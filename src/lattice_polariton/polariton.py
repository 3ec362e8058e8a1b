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
angle, the k = 1 shift and its cotangent at a fixed N.  The doublets
(``superradiant_doublets``, for arrays of cavities) and the Rabi splittings
(``rabi_splitting``) build on it.  The kernel runs on numpy's ufuncs (cos,
tan, hypot, sqrt and x * x), with one code for numbers and arrays.  Its
accuracy contract is bounded agreement with a loop over Python floats:
each value is within 8 ulp of that loop's, an ulp taken at the size of the
frequencies the value is made from (tests/oracles.py, ``KERNEL_ULPS``).  A
sweep checks its N, theta and cavity as SystemParams does, and raises
SystemParams's error at the first point that fails.  Any other failure (a
square that overflows, a coupling or a root that underflows, a zero
denominator) leaves inf or NaN at its point, without a warning, and the
command line refuses such a dataset with exit 1.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from numpy import ndarray

from .blocks import row_blocks
from .exciton import (
    _site_coupling_at, envelope_mode_couplings, exciton_shifts, mode_coupling_array,
    site_coupling,
)
from .params import (
    MAX_NUM_SITES, SystemParams, _check_angle, _check_num_sites, _check_positive,
    _superradiant_shift_at, _transfer_at, cavity_frequency, transfer_parameter,
)
from .resolvent import half_tangents

if TYPE_CHECKING:
    from .arrowhead import ArrowheadEigen


class ModelVariant(str, enum.Enum):
    """Which exciton content the cavity mode is coupled to."""

    TWO_MODE_SUPERRADIANT = "two-mode"
    FULL_MULTIMODE = "multimode"
    NONINTERACTING_COLLECTIVE = "noninteracting"


# Points of a sweep computed at a time: the kernel's temporaries, some
# twenty arrays of them, stay under 1 MB.
_BLOCK_POINTS = 4096


def _sweep(kernel, *args, rows: tuple[int, ...] = ()):
    """kernel(*args) over the points of the array arguments, a block at a
    time, into one array of shape rows + (points,); with no array argument,
    the one point as a float.  The number arguments enter as numpy's, and
    numpy is kept quiet: a step that overflows, underflows or divides by
    zero leaves inf or NaN at its point instead of raising."""
    args = [np.asarray(a)[()] if isinstance(a, (int, float)) else a for a in args]
    shapes = [a.shape for a in args if isinstance(a, ndarray)]
    with np.errstate(all="ignore"):
        if not shapes:
            return kernel(*args).item()
        size = np.broadcast_shapes(*shapes)[0]
        out = np.empty((*rows, size))
        for r0, r1, _ in row_blocks(size, 1, elements=_BLOCK_POINTS):
            out[..., r0:r1] = kernel(*(a[r0:r1] if isinstance(a, ndarray) else a for a in args))
    return out


def _refuse(*checks) -> None:
    """Raise SystemParams's error at the first point that fails one of
    ``checks``, as a loop over the points would: there the first check that
    fails raises.  Each is (check, bad, values): ``values`` a number or an
    array of a sweep's points, and bad(values) where check would raise."""
    first = None
    for check, bad, values in checks:
        if isinstance(values, ndarray):
            failing = np.flatnonzero(bad(values))
            if failing.size and (first is None or failing[0] < first[0]):
                first = failing[0], check, values[failing[0]].item()
        elif first is None or first[0] > 0:  # a number fails at every point
            check(values.item() if isinstance(values, np.generic) else values)
    if first is not None:
        first[1](first[2])


# Where a sweep's points fail SystemParams's checks.
_COUNTS = (_check_num_sites,
           lambda n: (n.dtype.kind not in "biu") | (n < 1) | (n > MAX_NUM_SITES))
_ANGLES = (_check_angle, lambda theta: ~np.isfinite(theta))
_CAVITIES = (partial(_check_positive, "cavity_frequency_hz"),
             lambda nu: ~(np.isfinite(nu) & (nu > 0.0)))


def _one_mode(params: SystemParams, variant: ModelVariant, cavity_hz, num_sites, theta_rad):
    """Coupling in Hz, and line offset in Hz from the atomic line, of a
    one-mode variant's exciton: the superradiant k = 1 mode, coupled with
    sqrt(2/(N+1)) cot(pi / (2(N+1))) times the single-site coupling, or the
    noninteracting collective mode on the atomic line, with sqrt(N) times
    it.  The cavity (None: on the superradiant line), N and theta replace
    the parameters' own, and are checked as SystemParams checks them.

    This is the single-mode kernel.  Each of the cavity, N and theta is a
    number, or an array of a sweep's points, and one code serves both; what
    a sweep holds fixed is computed once: the mode volume, J at a fixed
    angle, the k = 1 shift and its cotangent at a fixed N.  The
    noninteracting mode needs neither J nor the shift."""
    shift = 0.0
    if variant is not ModelVariant.NONINTERACTING_COLLECTIVE:
        shift = _superradiant_shift_at(_transfer_at(params, theta_rad), num_sites)
    if cavity_hz is None:
        cavity_hz = params.atom_frequency_hz + shift
    _refuse((*_COUNTS, num_sites), (*_ANGLES, theta_rad), (*_CAVITIES, cavity_hz))
    site = _site_coupling_at(params, cavity_hz)
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        cotangent = 1.0 / half_tangents(1, num_sites)
        return site * np.sqrt(2.0 / (num_sites + 1)) * cotangent, shift
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return site * np.sqrt(num_sites), shift
    raise ValueError(f"no single mode in model variant {variant!r}: use two-mode or noninteracting")


def _own_mode(params: SystemParams, variant: ModelVariant) -> tuple[float, float, float]:
    """_one_mode at the parameters' own cavity, N and angle, in floats,
    and that cavity: a Python float, so a site coupling whose divisor
    underflows to 0 raises ZeroDivisionError, as site_coupling does."""
    with np.errstate(all="ignore"):
        cavity_hz = cavity_frequency(params)
        coupling, shift = _one_mode(params, variant, cavity_hz, params.num_sites, params.theta_rad)
    return float(coupling), float(shift), cavity_hz


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
    return np.hypot((cavity_hz - exciton_hz) / 2.0, coupling_hz)


def _doublets(cavity_hz, exciton_hz, coupling_hz) -> np.ndarray:
    """Doublets of one exciton mode against the cavity at arrays of points:
    rows detuning, half-splitting, upper and lower branch, then the exciton
    and photon amplitudes of each branch (the 2x2 problem's eigenvectors)."""
    detuning = (cavity_hz - exciton_hz) / 2.0
    half_split = _half_splitting(cavity_hz, exciton_hz, coupling_hz)
    mean = (cavity_hz + exciton_hz) / 2.0
    # (half - det) and (half + det) multiply to coupling^2; computing the
    # smaller one from that identity avoids cancellation at small coupling,
    # keeping the weight normalization good to ~1e-15.
    ahead = detuning >= 0.0
    larger = np.where(ahead, half_split + detuning, half_split - detuning)
    smaller = coupling_hz * coupling_hz / larger
    plus, minus = np.where(ahead, larger, smaller), np.where(ahead, smaller, larger)
    roots = np.sqrt(2.0 * half_split * np.array([minus, plus]))
    amps = np.array([np.sqrt(minus / (2.0 * half_split)), -np.sqrt(plus / (2.0 * half_split)),
                     *(coupling_hz / roots)])
    # amps: exciton and photon of the upper branch, then of the lower one.
    # Pure states where the general formulas hit 0/0; with zero detuning
    # too, the upper branch is the exciton by convention.
    pure_amps = np.where(detuning > 0, [[0.0], [-1.0], [1.0], [0.0]], [[1.0], [0.0], [0.0], [1.0]])
    amps = np.where(coupling_hz == 0.0, pure_amps, amps)[[0, 2, 1, 3]]
    return np.array([detuning, half_split, mean + half_split, mean - half_split, *amps])


def _detuning_rows(params: SystemParams, cavity_hz: np.ndarray):
    coupling, shift = _one_mode(params, ModelVariant.TWO_MODE_SUPERRADIANT, cavity_hz,
                                params.num_sites, params.theta_rad)
    rows = _doublets(cavity_hz, params.atom_frequency_hz + shift, coupling)
    return np.concatenate([rows[2:4], rows[4:] * rows[4:]])


def superradiant_doublets(params: SystemParams, cavity_hz: np.ndarray) -> np.ndarray:
    """Doublets of the superradiant exciton against an array of cavities (one
    cavity is an array of one): rows of the upper and lower branch in Hz, then
    the exciton and photon weights of each, each point within the kernel's
    accuracy bound of its cavity alone.  A cavity at or below 0 Hz raises at
    the first; a point that cannot be made is inf or NaN."""
    return _sweep(_detuning_rows, params, cavity_hz, rows=(6,))


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
        coupling, shift, _ = _own_mode(params, variant)
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
    coupling_hz, shift_hz, cavity_hz = _own_mode(params, variant)
    exciton_hz = params.atom_frequency_hz + shift_hz
    return (cavity_hz + exciton_hz) / 2.0, 2.0 * coupling_hz


def _rabi(params, variant, num_sites, theta_rad, cavity_hz):
    coupling, shift = _one_mode(params, variant, cavity_hz, num_sites, theta_rad)
    exciton_hz = params.atom_frequency_hz + shift
    return 2.0 * _half_splitting(exciton_hz if cavity_hz is None else cavity_hz, exciton_hz,
                                 coupling)


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
    splittings are an array, each that of its point within the kernel's
    accuracy bound.  An N, theta or cavity that SystemParams refuses raises
    its error at the first such point; a point that cannot be made is inf
    or NaN."""
    if cavity_hz is None and variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        cavity_hz = params.atom_frequency_hz
    return _sweep(_rabi, params, variant, num_sites, theta_rad, cavity_hz)


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
    Chebyshev tables, whose build is the only O(N^2) term.  The solver is the
    result; its eigenvector rows are k = 1..N, then the photon, and its lazy
    ``eigenvectors`` and ``exciton_weights`` each cost their own matrix only.
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
