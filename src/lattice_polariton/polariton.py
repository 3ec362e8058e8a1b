"""Exciton-photon diagonalization in three model variants.

The headline model couples the cavity mode to the single superradiant
exciton (a 2x2 problem with closed-form eigenvectors).  The full multimode
model keeps all N excitons plus the photon as a bordered-diagonal matrix
and quantifies the truncation error.  The non-interacting collective model
drops the dipole-dipole transfer entirely, which recovers the familiar
sqrt(N)-enhanced coupling of independent atoms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exciton import (
    _site_coupling_at, envelope_mode_couplings, exciton_shifts, mode_coupling_array,
    site_coupling,
)
from .params import (
    SystemParams, _check_angle, _check_num_sites, _check_positive, _superradiant_shift_at,
    _transfer_at, cavity_frequency, transfer_parameter,
)

if TYPE_CHECKING:
    from .arrowhead import ArrowheadEigen


class ModelVariant(str, enum.Enum):
    """Which exciton content the cavity mode is coupled to."""

    TWO_MODE_SUPERRADIANT = "two-mode"
    FULL_MULTIMODE = "multimode"
    NONINTERACTING_COLLECTIVE = "noninteracting"


@dataclass(frozen=True)
class PolaritonDoublet:
    """Two-mode diagonalization result.

    Amplitudes are real; the coupling phase is absorbed into the photon
    amplitude.  (exciton_amp, photon_amp) per branch form the orthonormal
    eigenvectors of the 2x2 coupling matrix.
    """

    detuning_hz: float        # (E_c - E_ex) / 2h, signed
    half_splitting_hz: float  # sqrt(detuning^2 + coupling^2), >= 0
    upper_hz: float
    lower_hz: float
    exciton_amp_upper: float
    photon_amp_upper: float
    exciton_amp_lower: float
    photon_amp_lower: float

    @property
    def splitting_hz(self) -> float:
        return self.upper_hz - self.lower_hz

    @property
    def exciton_weight_upper(self) -> float:
        return self.exciton_amp_upper**2

    @property
    def photon_weight_upper(self) -> float:
        return self.photon_amp_upper**2

    @property
    def exciton_weight_lower(self) -> float:
        return self.exciton_amp_lower**2

    @property
    def photon_weight_lower(self) -> float:
        return self.photon_amp_lower**2


def _one_mode(
    params: SystemParams, variant: ModelVariant, cavity_hz: float | None, num_sites: int,
    theta_rad: float,
) -> tuple[float, float]:
    """Coupling in Hz, and line offset in Hz from the atomic line, of a
    one-mode variant's exciton: the superradiant k = 1 mode, coupled with
    sqrt(2/(N+1)) cot(pi / (2(N+1))) times the single-site coupling, or the
    noninteracting collective mode on the atomic line, with sqrt(N) times
    it.  The cavity (None: on the superradiant line), N and theta replace
    the parameters' own, and are checked as SystemParams checks them."""
    _check_num_sites(num_sites)
    _check_angle(theta_rad)
    shift = _superradiant_shift_at(_transfer_at(params, theta_rad), num_sites)
    if cavity_hz is None:
        cavity_hz = params.atom_frequency_hz + shift
    _check_positive("cavity_frequency_hz", cavity_hz)
    site = _site_coupling_at(params, cavity_hz)
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        cotangent = 1.0 / math.tan(math.pi / (2.0 * (num_sites + 1)))
        return site * math.sqrt(2.0 / (num_sites + 1)) * cotangent, shift
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return site * math.sqrt(num_sites), 0.0
    raise ValueError(f"no single mode in model variant {variant!r}: use two-mode or noninteracting")


def _own_mode(params: SystemParams, variant: ModelVariant) -> tuple[float, float]:
    """_one_mode at the parameters' own cavity, N and angle."""
    return _one_mode(
        params, variant, params.cavity_frequency_hz, params.num_sites, params.theta_rad
    )


def superradiant_coupling(params: SystemParams) -> float:
    """Cavity coupling magnitude in Hz of the k = 1 exciton.

    Equal to mode_coupling_array(params)[0], but O(1) instead of O(N).
    """
    return _own_mode(params, ModelVariant.TWO_MODE_SUPERRADIANT)[0]


def collective_coupling_noninteracting(params: SystemParams) -> float:
    """Collective coupling magnitude in Hz of N independent atoms:
    sqrt(N) times the single-site coupling."""
    return _own_mode(params, ModelVariant.NONINTERACTING_COLLECTIVE)[0]


def _half_splitting(cavity_hz: float, exciton_hz: float, coupling_hz: float) -> float:
    """Half-splitting sqrt(detuning^2 + coupling^2) of one exciton mode
    against the cavity, with the detuning (E_c - E_ex)/2."""
    return math.hypot((cavity_hz - exciton_hz) / 2.0, coupling_hz)


def two_mode_doublet(cavity_hz: float, exciton_hz: float, coupling_hz: float) -> PolaritonDoublet:
    """Diagonalize one exciton mode against the cavity mode.

    Branch energies are (E_c + E_ex)/2 +- sqrt(detuning^2 + coupling^2).
    The zero-coupling limits are handled explicitly: at finite detuning the
    branches are pure exciton/photon states, and in the fully degenerate
    case the (upper=exciton, lower=photon) convention is applied.
    """
    if coupling_hz < 0:
        raise ValueError(f"coupling_hz must be >= 0, got {coupling_hz}")
    detuning = (cavity_hz - exciton_hz) / 2.0
    half_split = _half_splitting(cavity_hz, exciton_hz, coupling_hz)
    mean = (cavity_hz + exciton_hz) / 2.0
    upper = mean + half_split
    lower = mean - half_split

    if coupling_hz == 0.0:
        # Pure states; the general amplitude formulas hit 0/0 here.  With
        # zero detuning too, the upper branch is the exciton by convention.
        amps = (0.0, 1.0, -1.0, 0.0) if detuning > 0 else (1.0, 0.0, 0.0, 1.0)
    else:
        # (half - det) and (half + det) multiply to coupling^2; computing the
        # smaller one from that identity avoids cancellation at small coupling,
        # keeping the weight normalization good to ~1e-15.
        if detuning >= 0.0:
            plus = half_split + detuning
            minus = coupling_hz**2 / plus
        else:
            minus = half_split - detuning
            plus = coupling_hz**2 / minus
        x_upper = math.sqrt(minus / (2.0 * half_split))
        x_lower = -math.sqrt(plus / (2.0 * half_split))
        y_upper = coupling_hz / math.sqrt(2.0 * half_split * minus)
        y_lower = coupling_hz / math.sqrt(2.0 * half_split * plus)
        amps = (x_upper, y_upper, x_lower, y_lower)

    # amps: (exciton, photon) of the upper branch, then of the lower one.
    return PolaritonDoublet(detuning, half_split, upper, lower, *amps)


def superradiant_doublet(params: SystemParams) -> PolaritonDoublet:
    """Doublet of the cavity mode and the superradiant exciton at the
    parameters' cavity frequency."""
    coupling, shift = _own_mode(params, ModelVariant.TWO_MODE_SUPERRADIANT)
    return two_mode_doublet(cavity_frequency(params), params.atom_frequency_hz + shift, coupling)


def variant_modes(
    params: SystemParams, variant: ModelVariant, envelope_exact: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Couplings in Hz of the exciton modes seen by the cavity, and their
    lines as offsets in Hz from the atomic line.

    Two-mode: the superradiant exciton only.  Multimode: every coupled
    chain mode (the odd-k set for a flat envelope).  Non-interacting: one
    collective mode at the bare atomic line.  Each line is independent of
    the cavity; each coupling is taken at the parameters' cavity.
    """
    if variant is not ModelVariant.FULL_MULTIMODE:
        coupling, shift = _own_mode(params, variant)
        return np.array([coupling]), np.array([shift])
    couplings = envelope_mode_couplings(params) if envelope_exact else mode_coupling_array(params)
    keep = couplings != 0.0
    return couplings[keep], exciton_shifts(params)[keep]


def variant_center(params: SystemParams, variant: ModelVariant) -> tuple[float, float]:
    """Midpoint of the cavity and exciton lines, plus the variant's
    zero-detuning vacuum Rabi splitting Omega_0 (used to size sweep grids).
    The multimode model is placed and sized by its superradiant mode."""
    if variant is ModelVariant.FULL_MULTIMODE:
        variant = ModelVariant.TWO_MODE_SUPERRADIANT
    coupling_hz, shift_hz = _own_mode(params, variant)
    exciton_hz = params.atom_frequency_hz + shift_hz
    return (cavity_frequency(params) + exciton_hz) / 2.0, 2.0 * coupling_hz


def rabi_splitting(
    params: SystemParams, variant: ModelVariant, num_sites: int, theta_rad: float,
    cavity_hz: float | None = None,
) -> float:
    """Rabi splitting 2 sqrt(detuning^2 + coupling^2) of a one-mode variant
    at N sites and dipole angle theta.  A cavity of None sits on the
    variant's own line (the superradiant exciton, or the bare atomic line
    for the non-interacting gas): the vacuum Rabi splitting 2 |coupling|.
    On the atomic line, the transfer shift detunes the superradiant
    exciton, and the generalized splitting depends on the angle."""
    atom_hz = params.atom_frequency_hz
    if cavity_hz is None and variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        cavity_hz = atom_hz
    coupling, shift = _one_mode(params, variant, cavity_hz, num_sites, theta_rad)
    exciton_hz = atom_hz + shift
    cavity_hz = exciton_hz if cavity_hz is None else cavity_hz
    return 2.0 * _half_splitting(cavity_hz, exciton_hz, coupling)


def multimode_diagonalize(
    params: SystemParams, include_envelope: bool = False
) -> ArrowheadEigen:
    """Diagonalize all N excitons plus the photon.

    The matrix is bordered-diagonal (an arrowhead): exciton energies on the
    diagonal, the cavity frequency in the corner, couplings along the
    border.  It is solved by the secular-equation kernel of ``arrowhead``
    in offsets from the atomic line, which is added to the frequencies
    last.  Modes with zero coupling (every even k, with or without the beam
    envelope) are split off first, so dark modes come out as exact
    eigenpairs: unit eigenvectors at exactly their exciton energy, with zero
    photon weight.  With flat couplings the secular function is the chain's
    resolvent in closed form, so the frequencies and photon weights cost
    O(N) time and memory; with ``include_envelope`` the couplings carry the
    Gaussian beam profile, and each block of roots sums its near poles
    exactly and the far ones from Chebyshev tables, whose build is the only
    O(N^2) term.  The solver is the result; its eigenvector rows are
    k = 1..N, then the photon.
    """
    # Imported here: the command line never diagonalizes, so it skips it.
    from .arrowhead import ArrowheadEigen

    atom_hz = params.atom_frequency_hz
    chain = None if include_envelope else (transfer_parameter(params), site_coupling(params))
    border = envelope_mode_couplings(params) if include_envelope else mode_coupling_array(params)
    return ArrowheadEigen(
        exciton_shifts(params), border,
        cavity_frequency(params) - atom_hz, shift=atom_hz, chain=chain,
    )
