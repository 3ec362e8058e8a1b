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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .exciton import (
    envelope_mode_couplings, exciton_shifts, mode_coupling_array, site_coupling,
    superradiant_coupling,
)
from .params import SystemParams, cavity_frequency, superradiant_shift, transfer_parameter

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


def collective_coupling_noninteracting(params: SystemParams) -> float:
    """Collective coupling magnitude in Hz of N independent atoms:
    sqrt(N) times the single-site coupling."""
    return site_coupling(params) * math.sqrt(params.num_sites)


def _half_splitting(cavity_hz: float, exciton_hz: float, coupling_hz: float) -> tuple[float, float]:
    """Signed half-detuning (E_c - E_ex)/2 of one exciton mode from the
    cavity, and the doublet's half-splitting sqrt(detuning^2 + coupling^2)."""
    detuning = (cavity_hz - exciton_hz) / 2.0
    return detuning, math.hypot(detuning, coupling_hz)


def two_mode_doublet(
    cavity_hz: float, exciton_hz: float, coupling_hz: float
) -> PolaritonDoublet:
    """Diagonalize one exciton mode against the cavity mode.

    Branch energies are (E_c + E_ex)/2 +- sqrt(detuning^2 + coupling^2).
    The zero-coupling limits are handled explicitly: at finite detuning the
    branches are pure exciton/photon states, and in the fully degenerate
    case the (upper=exciton, lower=photon) convention is applied.
    """
    if coupling_hz < 0:
        raise ValueError(f"coupling_hz must be >= 0, got {coupling_hz}")
    detuning, half_split = _half_splitting(cavity_hz, exciton_hz, coupling_hz)
    mean = (cavity_hz + exciton_hz) / 2.0
    upper = mean + half_split
    lower = mean - half_split

    if half_split == 0.0:
        amps = (1.0, 0.0, 0.0, 1.0)
    elif coupling_hz == 0.0:
        # Pure states; the general amplitude formulas hit 0/0 here.
        if detuning > 0:
            amps = (0.0, 1.0, -1.0, 0.0)
        else:
            amps = (1.0, 0.0, 0.0, 1.0)
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

    return PolaritonDoublet(
        detuning_hz=detuning,
        half_splitting_hz=half_split,
        upper_hz=upper,
        lower_hz=lower,
        exciton_amp_upper=amps[0],
        photon_amp_upper=amps[1],
        exciton_amp_lower=amps[2],
        photon_amp_lower=amps[3],
    )


def superradiant_doublet(params: SystemParams) -> PolaritonDoublet:
    """Doublet of the cavity mode and the superradiant exciton at the
    parameters' cavity frequency."""
    coupling_hz, shift_hz = _single_mode(params, ModelVariant.TWO_MODE_SUPERRADIANT)
    exciton_hz = params.atom_frequency_hz + shift_hz
    return two_mode_doublet(cavity_frequency(params), exciton_hz, coupling_hz)


def _single_mode(params: SystemParams, variant: ModelVariant) -> tuple[float, float]:
    """Coupling in Hz and line offset in Hz from the atomic line of a
    one-mode variant: the superradiant exciton, or the noninteracting
    collective mode on the atomic line."""
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        return superradiant_coupling(params), superradiant_shift(params)
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return collective_coupling_noninteracting(params), 0.0
    raise ValueError(f"no single mode in model variant {variant!r}: use two-mode or noninteracting")


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
        coupling, shift = _single_mode(params, variant)
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
    coupling_hz, shift_hz = _single_mode(params, variant)
    exciton_hz = params.atom_frequency_hz + shift_hz
    return (cavity_frequency(params) + exciton_hz) / 2.0, 2.0 * coupling_hz


def vacuum_rabi_vs_N(
    params: SystemParams,
    n_values: Iterable[int],
    variant: ModelVariant,
) -> list[tuple[int, float]]:
    """Vacuum Rabi splitting 2|coupling|/h versus atom number.

    The cavity sits on the variant's own line: the superradiant exciton for
    the interacting chain, the bare atomic line for the non-interacting gas.
    """
    results = []
    for n in n_values:
        p = replace(params, num_sites=int(n))
        # The line does not depend on the cavity, the coupling does.
        line = p.atom_frequency_hz + _single_mode(p, variant)[1]
        coupling, _ = _single_mode(replace(p, cavity_frequency_hz=line), variant)
        results.append((int(n), 2.0 * _half_splitting(line, line, coupling)[1]))
    return results


def generalized_rabi(
    params: SystemParams,
    theta_rad: float,
    num_sites: int,
    variant: ModelVariant,
) -> float:
    """Rabi splitting with the cavity locked on the bare atomic line.

    The transfer shift then detunes the superradiant exciton from the
    cavity, so the interacting splitting is 2 sqrt(detuning^2 + coupling^2)
    and depends on the dipole angle; the non-interacting splitting is
    2 sqrt(N) times the single-site coupling, angle-independent.
    """
    p = replace(
        params,
        theta_rad=theta_rad,
        num_sites=int(num_sites),
        cavity_frequency_hz=params.atom_frequency_hz,
    )
    coupling, shift = _single_mode(p, variant)
    return 2.0 * _half_splitting(p.atom_frequency_hz, p.atom_frequency_hz + shift, coupling)[1]


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
    Gaussian beam profile and the secular sums cost O(N^2) time.  The
    solver is the result; its eigenvector rows are k = 1..N, then the photon.
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
