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
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .exciton import (
    envelope_mode_couplings, exciton_energies, mode_coupling_array, site_coupling,
    superradiant_coupling,
)
from .params import SystemParams, cavity_frequency, superradiant_energy

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


class MultimodeResult:
    """Full (N+1)-mode eigendecomposition: N excitons plus the photon.

    ``frequencies_hz`` (ascending) and ``photon_weights`` are computed
    eagerly in O(N) memory.  ``eigenvectors`` ((N+1, N+1): rows are the
    basis states, excitons k = 1..N then the photon; columns follow the
    frequencies) is built on first access and cached; it refuses chains
    whose (N+1)^2 matrix would exceed about 2 GB.  ``exciton_weights``
    ((N+1, N), row i <-> eigenvector i) squares the cached eigenvectors
    into a second matrix of that size.  Each eigenvector's photon weight
    plus its exciton weights sum to one.
    """

    def __init__(self, solution: ArrowheadEigen):
        self._solution = solution
        self.frequencies_hz = solution.values
        self.photon_weights = solution.photon_weights

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return self._solution.vectors()

    @cached_property
    def exciton_weights(self) -> np.ndarray:
        return np.square(self.eigenvectors[:-1, :].T)


def collective_coupling_noninteracting(params: SystemParams) -> float:
    """Collective coupling magnitude in Hz of N independent atoms:
    sqrt(N) times the single-site coupling."""
    return site_coupling(params) * math.sqrt(params.num_sites)


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
    detuning = (cavity_hz - exciton_hz) / 2.0
    half_split = math.hypot(detuning, coupling_hz)
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
    return two_mode_doublet(
        cavity_frequency(params),
        superradiant_energy(params),
        superradiant_coupling(params),
    )


def vacuum_rabi_vs_N(
    params: SystemParams,
    n_values: Iterable[int],
    variant: ModelVariant,
) -> list[tuple[int, float]]:
    """Vacuum Rabi splitting 2|coupling|/h versus atom number.

    Each variant is evaluated at its own zero-detuning convention: the
    interacting chain with the cavity on the superradiant exciton, the
    non-interacting gas with the cavity on the bare atomic line.
    """
    results = []
    for n in n_values:
        if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
            p = replace(params, num_sites=int(n), cavity_frequency_hz=None)
            omega = 2.0 * superradiant_coupling(p)
        elif variant is ModelVariant.NONINTERACTING_COLLECTIVE:
            p = replace(
                params, num_sites=int(n), cavity_frequency_hz=params.atom_frequency_hz
            )
            omega = 2.0 * collective_coupling_noninteracting(p)
        else:
            raise ValueError(f"vacuum_rabi_vs_N supports two-mode and noninteracting, got {variant}")
        results.append((int(n), omega))
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
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return 2.0 * collective_coupling_noninteracting(p)
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        detuning = (p.atom_frequency_hz - superradiant_energy(p)) / 2.0
        return 2.0 * math.hypot(detuning, superradiant_coupling(p))
    raise ValueError(f"generalized_rabi supports two-mode and noninteracting, got {variant}")


def multimode_diagonalize(
    params: SystemParams, include_envelope: bool = False
) -> MultimodeResult:
    """Diagonalize all N excitons plus the photon.

    The matrix is bordered-diagonal (an arrowhead): exciton energies on the
    diagonal, the cavity frequency in the corner, couplings along the
    border.  It is solved by the secular-equation kernel of ``arrowhead``
    relative to the atomic line, in O(N) memory and O(N^2) time.  Modes
    with zero coupling (every even k, with or without the beam envelope)
    are split off first, so dark modes come out as exact eigenpairs: unit
    eigenvectors at exactly their exciton energy, with zero photon weight.
    With ``include_envelope`` the couplings carry the Gaussian beam profile.
    """
    # Imported here: the command line never diagonalizes, so it skips it.
    from .arrowhead import ArrowheadEigen

    if include_envelope:
        couplings = envelope_mode_couplings(params)
    else:
        couplings = mode_coupling_array(params)
    solution = ArrowheadEigen(
        exciton_energies(params), couplings, cavity_frequency(params),
        shift=params.atom_frequency_hz,
    )
    return MultimodeResult(solution)
