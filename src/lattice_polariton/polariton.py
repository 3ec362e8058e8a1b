"""Exciton-photon diagonalization in three model variants.

The headline model couples the cavity mode to the single superradiant
exciton (a 2x2 problem with closed-form eigenvectors).  The full multimode
model keeps all N excitons plus the photon as a bordered-diagonal matrix
and quantifies the truncation error.  The non-interacting collective model
drops the dipole-dipole transfer entirely, which recovers the familiar
sqrt(N)-enhanced coupling of independent atoms.

The two one-mode variants share one kernel, ``_one_mode``, for a single
point and for a sweep alike.  A sweep passes an array of cavity
frequencies, site counts or angles, and the kernel computes what the sweep
holds fixed once per block of 4,096 points: the mode volume, J at a fixed
angle, the k = 1 shift and its cotangent at a fixed N.  The polariton
doublets (``superradiant_doublets``) and the Rabi splittings
(``rabi_splitting`` of an array) build on it, and each point of a sweep is
bitwise the number a loop over Python floats gives: +, -, *, / and sqrt
run in numpy, which rounds them as Python does, while cos, tan, hypot and
x**2 go through Python's own functions (``blocks.libm``), since numpy's
differ from them in the last bit.  Where Python's arithmetic would raise
(a square that overflows, a division by a zero that underflowed), the
sweep raises the same error at the same first point (``_Points``), and
numpy's warnings are kept off.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from numpy import ndarray

from .blocks import libm, row_blocks
from .exciton import (
    _site_coupling_at, envelope_mode_couplings, exciton_shifts, mode_coupling_array,
    site_coupling,
)
from .params import (
    MAX_NUM_SITES, SystemParams, _check_angle, _check_num_sites, _check_positive,
    _superradiant_shift_at, _transfer_at, cavity_frequency, transfer_parameter,
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


class _Points:
    """The points of a sweep up to its first failure, as a loop over the
    points finds it.  A step that fails at some points cuts the sweep before
    the first of them and keeps that point's error; the steps after it run
    on the points left, and a failure at an earlier point replaces the kept
    one.  A failure at the first point is raised at once, since nothing can
    fail before it; any other is raised by ``done``.  A step that fails at
    every point (one of the sweep's invariants) thus raises as Python floats
    raise it, at the first point."""

    def __init__(self, size: int):
        self.size, self._refusal = size, None

    def check(self, check, values, fails) -> None:
        """Run a check that raises on a bad number, such as SystemParams's:
        on ``values`` when it is a number, else on the first point of the
        array where ``fails(values)`` holds."""
        if not isinstance(values, ndarray):
            return check(values)
        bad = np.flatnonzero(fails(values[: self.size]))
        if bad.size:
            self.size = int(bad[0])
            self._refusal = partial(check, values[self.size].item())
            if self.size == 0:
                self._refusal()

    def keep(self, *values):
        """The values at the points left: arrays cut, numbers as they are."""
        return [v[: self.size] if isinstance(v, ndarray) else v for v in values]

    def done(self) -> None:
        if self._refusal is not None:
            self._refusal()


class _Numbers:
    """The one point of a call on numbers: each check raises at once."""

    @staticmethod
    def check(check, value, fails) -> None:
        check(value)

    @staticmethod
    def keep(*values):
        return values


_NUMBERS = _Numbers()


# Points of a sweep computed at a time: the kernel's temporaries, some
# twenty arrays of them, stay under 1 MB.
_BLOCK_POINTS = 4096


def _blockwise(kernel, *args, rows: tuple[int, ...] = ()) -> np.ndarray:
    """kernel(points, *args) over the points of the array arguments, a
    block at a time, into one array of shape rows + (points,).  numpy is
    kept quiet, as Python floats are: the kernel raises where they raise."""
    size = np.broadcast_shapes(*(a.shape for a in args if isinstance(a, ndarray)))[0]
    out = np.empty((*rows, size))
    with np.errstate(all="ignore"):
        for r0, r1, _ in row_blocks(size, 1, elements=_BLOCK_POINTS):
            points = _Points(r1 - r0)
            block = kernel(points, *(a[r0:r1] if isinstance(a, ndarray) else a for a in args))
            points.done()
            out[..., r0:r1] = block
    return out


# Where a sweep's points fail SystemParams's checks.
def _bad_counts(n: np.ndarray) -> np.ndarray:
    return (n.dtype.kind not in "biu") | (n < 1) | (n > MAX_NUM_SITES)


def _bad_angles(theta: np.ndarray) -> np.ndarray:
    return ~np.isfinite(theta)


def _bad_frequencies(nu: np.ndarray) -> np.ndarray:
    return ~(np.isfinite(nu) & (nu > 0.0))


_check_cavity = partial(_check_positive, "cavity_frequency_hz")


def _one_mode(
    params: SystemParams, variant: ModelVariant, cavity_hz, num_sites, theta_rad,
    points: _Points | _Numbers = _NUMBERS,
):
    """Coupling in Hz, and line offset in Hz from the atomic line, of a
    one-mode variant's exciton: the superradiant k = 1 mode, coupled with
    sqrt(2/(N+1)) cot(pi / (2(N+1))) times the single-site coupling, or the
    noninteracting collective mode on the atomic line, with sqrt(N) times
    it.  The cavity (None: on the superradiant line), N and theta replace
    the parameters' own, and are checked as SystemParams checks them.

    This is the single-mode kernel.  Each of the cavity, N and theta is a
    number, or an array of a sweep's points (then ``points`` tracks the
    sweep's first failure); what a sweep holds fixed is computed once: the
    mode volume, J at a fixed angle, the k = 1 shift and its cotangent at a
    fixed N.  Arrays take exactly the float operations of numbers: +, -, *,
    / and sqrt in numpy, which rounds them as Python does, and cos, tan,
    hypot and x**2 through Python's own functions (``blocks.libm``)."""
    points.check(_check_num_sites, num_sites, _bad_counts)
    points.check(_check_angle, theta_rad, _bad_angles)
    cavity_hz, num_sites, theta_rad = points.keep(cavity_hz, num_sites, theta_rad)
    shift = _superradiant_shift_at(_transfer_at(params, theta_rad), num_sites)
    if cavity_hz is None:
        cavity_hz = params.atom_frequency_hz + shift
    points.check(_check_cavity, cavity_hz, _bad_frequencies)
    cavity_hz, num_sites, shift = points.keep(cavity_hz, num_sites, shift)
    site = _site_coupling_at(params, cavity_hz)
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        cotangent = 1.0 / libm(math.tan, math.pi / (2.0 * (num_sites + 1)))
        return site * libm(math.sqrt, 2.0 / (num_sites + 1)) * cotangent, shift
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return site * libm(math.sqrt, num_sites), 0.0
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


def _half_splitting(cavity_hz, exciton_hz, coupling_hz):
    """Half-splitting sqrt(detuning^2 + coupling^2) of one exciton mode
    against the cavity, with the detuning (E_c - E_ex)/2."""
    return libm(math.hypot, (cavity_hz - exciton_hz) / 2.0, coupling_hz)


def _check_coupling(coupling_hz: float) -> None:
    if coupling_hz < 0:
        raise ValueError(f"coupling_hz must be >= 0, got {coupling_hz}")


def _doublets(points: _Points, cavity_hz, exciton_hz, coupling_hz) -> np.ndarray:
    """Rows detuning, half-splitting, upper and lower branch, and the four
    amplitudes of two_mode_doublet, for arrays of a sweep's points."""
    points.check(_check_coupling, coupling_hz, lambda g: g < 0)
    # coupling**2 overflows, and Python raises, from 2**512 on: below it the
    # exact square is an ulp under the largest float.
    points.check(partial(pow, exp=2), coupling_hz,
                 lambda g: np.isfinite(g) & (np.abs(g) >= 2.0**512))
    cavity_hz, exciton_hz, coupling_hz = points.keep(cavity_hz, exciton_hz, coupling_hz)
    detuning = (cavity_hz - exciton_hz) / 2.0
    half_split = _half_splitting(cavity_hz, exciton_hz, coupling_hz)
    mean = (cavity_hz + exciton_hz) / 2.0
    # (half - det) and (half + det) multiply to coupling^2; computing the
    # smaller one from that identity avoids cancellation at small coupling,
    # keeping the weight normalization good to ~1e-15.
    ahead = detuning >= 0.0
    larger = np.where(ahead, half_split + detuning, half_split - detuning)
    smaller = libm(pow, coupling_hz, 2) / larger
    plus, minus = np.where(ahead, larger, smaller), np.where(ahead, smaller, larger)
    pure = coupling_hz == 0.0
    # Where the coupling is not 0, Python divides it by these roots, and
    # raises at one that underflowed to 0.
    roots = np.sqrt(2.0 * half_split * np.array([minus, plus]))
    points.check(lambda g: g / 0.0, coupling_hz, lambda g: (g != 0.0) & (roots == 0.0).any(axis=0))
    amps = np.array([np.sqrt(minus / (2.0 * half_split)), -np.sqrt(plus / (2.0 * half_split)),
                     *(coupling_hz / roots)])
    # amps: exciton and photon of the upper branch, then of the lower one.
    # Pure states where the general formulas hit 0/0; with zero detuning
    # too, the upper branch is the exciton by convention.
    pure_amps = np.where(detuning > 0, [[0.0], [-1.0], [1.0], [0.0]], [[1.0], [0.0], [0.0], [1.0]])
    amps = np.where(pure, pure_amps, amps)[[0, 2, 1, 3]]
    return np.array([detuning, half_split, mean + half_split, mean - half_split, *amps])


def two_mode_doublet(cavity_hz: float, exciton_hz: float, coupling_hz: float) -> PolaritonDoublet:
    """Diagonalize one exciton mode against the cavity mode.

    Branch energies are (E_c + E_ex)/2 +- sqrt(detuning^2 + coupling^2).
    The zero-coupling limits are handled explicitly: at finite detuning the
    branches are pure exciton/photon states, and in the fully degenerate
    case the (upper=exciton, lower=photon) convention is applied.
    """
    rows = _blockwise(_doublets, np.array([cavity_hz]), exciton_hz, np.array([coupling_hz]),
                      rows=(8,))
    return PolaritonDoublet(*rows[:, 0].tolist())


def superradiant_doublet(params: SystemParams) -> PolaritonDoublet:
    """Doublet of the cavity mode and the superradiant exciton at the
    parameters' cavity frequency."""
    coupling, shift = _own_mode(params, ModelVariant.TWO_MODE_SUPERRADIANT)
    return two_mode_doublet(cavity_frequency(params), params.atom_frequency_hz + shift, coupling)


def _detuning_rows(points: _Points, params: SystemParams, cavity_hz: np.ndarray):
    coupling, shift = _one_mode(params, ModelVariant.TWO_MODE_SUPERRADIANT, cavity_hz,
                                params.num_sites, params.theta_rad, points)
    cavity_hz, = points.keep(cavity_hz)
    rows = _doublets(points, cavity_hz, params.atom_frequency_hz + shift, coupling)
    return np.concatenate([rows[2:4], libm(pow, rows[4:], 2)])


def superradiant_doublets(params: SystemParams, cavity_hz: np.ndarray) -> np.ndarray:
    """Doublets of the superradiant exciton against each cavity frequency
    of an array: rows of the upper and the lower branch in Hz, then the
    exciton and photon weights of the upper branch and of the lower one.
    Each point is bitwise that of superradiant_doublet with that cavity, and
    a sweep that cannot be made raises that of its first failing point."""
    return _blockwise(_detuning_rows, params, cavity_hz, rows=(6,))


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


def _rabi(points, params, variant, num_sites, theta_rad, cavity_hz):
    atom_hz = params.atom_frequency_hz
    if cavity_hz is None and variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        cavity_hz = atom_hz
    coupling, shift = _one_mode(params, variant, cavity_hz, num_sites, theta_rad, points)
    exciton_hz = atom_hz + shift
    cavity_hz, = points.keep(exciton_hz if cavity_hz is None else cavity_hz)
    return 2.0 * _half_splitting(cavity_hz, exciton_hz, coupling)


def rabi_splitting(
    params: SystemParams, variant: ModelVariant, num_sites: int | np.ndarray,
    theta_rad: float | np.ndarray, cavity_hz: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Rabi splitting 2 sqrt(detuning^2 + coupling^2) of a one-mode variant
    at N sites and dipole angle theta.  A cavity of None sits on the
    variant's own line (the superradiant exciton, or the bare atomic line
    for the non-interacting gas): the vacuum Rabi splitting 2 |coupling|.
    On the atomic line, the transfer shift detunes the superradiant
    exciton, and the generalized splitting depends on the angle.

    N, theta or the cavity may be an array of a sweep's points: then the
    splittings are an array, each bitwise that of its point, and a sweep
    that cannot be made raises that of its first failing point."""
    if any(isinstance(a, ndarray) for a in (num_sites, theta_rad, cavity_hz)):
        return _blockwise(_rabi, params, variant, num_sites, theta_rad, cavity_hz)
    return _rabi(_NUMBERS, params, variant, num_sites, theta_rad, cavity_hz)


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
    Gaussian beam profile, the roots iterate together, 8,192 at a time, and
    each block of 64 sums its near poles exactly and the far ones from
    Chebyshev tables, whose build is the only O(N^2) term.  The solver is
    the result; its eigenvector rows are k = 1..N, then the photon.
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
