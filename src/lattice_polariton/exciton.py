"""Standing-wave exciton modes of the finite chain.

An electronic excitation hops between nearest-neighbour sites, so with
fixed (empty-site) boundaries the single-excitation Hamiltonian is a real
symmetric Toeplitz tridiagonal matrix.  Its eigenvectors are sine standing
waves indexed k = 1..N, and the cavity couples only to the odd-k (bright)
modes; even-k modes have a vanishing net dipole and stay dark.
"""

from __future__ import annotations

import math

import numpy as np

from .params import (
    EPSILON_0, PLANCK_H, SystemParams, cavity_frequency, mode_volume, site_positions,
    transfer_parameter,
)
from .resolvent import half_tangents, mode_cosines


def exciton_shifts(params: SystemParams) -> np.ndarray:
    """Mode energies for k = 1..N as offsets in Hz from the atomic line:
    2 J cos(pi k / (N+1)) by ``mode_cosines``, so the band-centre mode of
    an odd chain sits exactly on the line."""
    k = np.arange(1, params.num_sites + 1)
    shifts = 2.0 * transfer_parameter(params) * mode_cosines(k, params.num_sites)
    shifts += 0.0  # the centre's 2J * 0 is -0.0 when J < 0; write it as 0.0
    return shifts


def exciton_energies(params: SystemParams) -> np.ndarray:
    """Mode energies in Hz for k = 1..N: nu_a + exciton_shifts(params).

    Near 4e14 Hz these are quantized to 0.0625 Hz; work with the shifts
    where that matters.
    """
    return params.atom_frequency_hz + exciton_shifts(params)


def site_coupling(params: SystemParams) -> float:
    """Single-site exciton-photon coupling magnitude in Hz:
    sqrt(nu_c mu^2 / (2 eps0 V h))."""
    return float(_site_coupling_at(params, cavity_frequency(params)))


def _site_coupling_at(params: SystemParams, cavity_hz):
    """site_coupling with the cavity at ``cavity_hz``, a number or an array
    of them.  A Python float cavity divides as Python does, so a divisor
    that underflows to 0 raises ZeroDivisionError; numpy's give inf."""
    volume = mode_volume(params)
    return np.sqrt(cavity_hz * params.dipole_Cm**2 / (2.0 * EPSILON_0 * volume * PLANCK_H))


def mode_coupling_array(params: SystemParams) -> np.ndarray:
    """Cavity coupling magnitudes in Hz for k = 1..N (flat beam envelope).

    Mode k couples with sqrt(2/(N+1)) cot(pi k / (2(N+1))) times the
    single-site coupling for odd k, and exactly zero for even k; each
    cotangent, 1 / ``half_tangents``, is within 8 ulp of math.tan's.
    """
    couplings = np.zeros(params.num_sites)
    scale = site_coupling(params) * math.sqrt(2.0 / (params.num_sites + 1))
    couplings[::2] = scale * (1.0 / half_tangents(np.arange(1, params.num_sites + 1, 2), params.num_sites))
    return couplings


def envelope_mode_couplings(params: SystemParams) -> np.ndarray:
    """Cavity couplings in Hz with the exact Gaussian beam envelope.

    The per-site couplings g exp(-r_n^2 / w0^2) are projected onto the sine
    modes, sqrt(2/(N+1)) sum_n sin(pi n k / (N+1)) g_n: a type-I discrete
    sine transform, taken as the FFT of the profile's odd extension.  The
    profile is symmetric about the chain's centre, so even-k couplings are
    exactly zero, as in the flat case.  Reduces to mode_coupling_array when
    the chain is much shorter than the waist.
    """
    num_sites = params.num_sites
    positions = site_positions(params)
    per_site = site_coupling(params) * np.exp(-((positions / params.beam_waist_m) ** 2))
    per_site = (per_site + per_site[::-1]) / 2.0
    odd_extension = np.concatenate([[0.0], per_site, [0.0], -per_site[::-1]])
    spectrum = np.fft.rfft(odd_extension)[1 : num_sites + 1]
    couplings = -math.sqrt(2.0 / (num_sites + 1)) / 2.0 * spectrum.imag
    couplings[1::2] = 0.0
    return couplings


def oscillator_fractions(couplings: np.ndarray) -> np.ndarray:
    """Fraction of the total oscillator strength carried by each mode.

    Weights are the squared mode couplings (mode_coupling_array or
    envelope_mode_couplings) normalised to unit sum; with the flat envelope
    the nodeless k = 1 mode carries about 81% for large N.  ValueError when
    the squares sum to zero (all underflow) or overflow: nothing to share.
    """
    weights = couplings**2
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"the squared mode couplings sum to {total}: no oscillator strength")
    return weights / total
