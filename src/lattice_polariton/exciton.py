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


def exciton_shifts(params: SystemParams) -> np.ndarray:
    """Mode energies for k = 1..N as offsets in Hz from the atomic line.

    2 J cos(pi k / (N+1)), taken as 2 J sin(pi (N+1-2k) / (2(N+1))): the
    integer N+1-2k is exact, so each shift keeps full relative precision,
    and the band-centre mode of an odd chain sits exactly on the line.
    """
    m = params.num_sites + 1 - 2 * np.arange(1, params.num_sites + 1)
    shifts = 2.0 * transfer_parameter(params) * np.sin(np.pi * m / (2.0 * (params.num_sites + 1)))
    shifts += 0.0  # the centre's 2J * 0 is -0.0 when J < 0; write it as 0.0
    return shifts


def exciton_energies(params: SystemParams) -> np.ndarray:
    """Mode energies in Hz for k = 1..N: nu_a + exciton_shifts(params).

    Near 4e14 Hz these are quantized to 0.0625 Hz; work with the shifts
    where that matters.
    """
    return params.atom_frequency_hz + exciton_shifts(params)


def coupling_sum(k: int, num_sites: int) -> float:
    """Site sum of the mode-k sine amplitudes.

    Equals cot(pi k / (2(N+1))) for odd k and exactly zero for even k;
    the even case is decided by parity, not by numeric cancellation.
    """
    if not 1 <= k <= num_sites:
        raise ValueError(f"mode index k={k} out of range 1..{num_sites}")
    if k % 2 == 0:
        return 0.0
    return 1.0 / math.tan(math.pi * k / (2.0 * (num_sites + 1)))


def site_coupling(params: SystemParams) -> float:
    """Single-site exciton-photon coupling magnitude in Hz:
    sqrt(nu_c mu^2 / (2 eps0 V h))."""
    nu_c = cavity_frequency(params)
    volume = mode_volume(params)
    return math.sqrt(nu_c * params.dipole_Cm**2 / (2.0 * EPSILON_0 * volume * PLANCK_H))


def _coupling_scale(params: SystemParams) -> float:
    return site_coupling(params) * math.sqrt(2.0 / (params.num_sites + 1))


def _odd_cotangents(num_sites: int) -> np.ndarray:
    """coupling_sum(k, N) for the odd k = 1, 3, ... <= N, to the last bit:
    the tangents come from math.tan, as there, since np.tan differs from
    libm in the last bit for a few modes in a thousand."""
    angles = np.pi * np.arange(1, num_sites + 1, 2) / (2.0 * (num_sites + 1))
    return 1.0 / np.fromiter(map(math.tan, memoryview(angles)), float, angles.size)


def mode_coupling_array(params: SystemParams) -> np.ndarray:
    """Cavity coupling magnitudes in Hz for k = 1..N (flat beam envelope).

    Mode k couples with sqrt(2/(N+1)) cot(pi k / (2(N+1))) times the
    single-site coupling for odd k, and exactly zero for even k.
    """
    couplings = np.zeros(params.num_sites)
    couplings[::2] = _coupling_scale(params) * _odd_cotangents(params.num_sites)
    return couplings


def superradiant_coupling(params: SystemParams) -> float:
    """Cavity coupling magnitude in Hz of the k = 1 exciton.

    Equal to mode_coupling_array(params)[0], but O(1) instead of O(N).
    """
    return _coupling_scale(params) * coupling_sum(1, params.num_sites)


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
