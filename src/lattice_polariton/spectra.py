"""Linear transmission and reflection spectra of the driven cavity.

The cavity is a symmetric two-port resonator (equal mirror rates) driven
through one mirror at normal incidence.  Each exciton mode enters the
cavity response as a damped oscillator, giving

    D(nu) = i (nu_c - nu) + kappa/2 + Sigma(nu)
    Sigma(nu) = sum_m g_m^2 / (i (nu_m - nu) + Gamma_a/2)
    t(nu) = gamma_mirror / D(nu),   r(nu) = 1 - t(nu)

with kappa = 2 gamma_mirror + gamma_side the total cavity width.  All rates
are FWHM linewidths, so half-widths appear in the Lorentzian denominators
and an empty lossless cavity transmits a Lorentzian of FWHM kappa.

Every frequency is handled as an offset from a reference line (the atomic
line in ``sweep``, the cavity in ``cavity_response``): at 4e14 Hz a float
resolves only 0.0625 Hz, about 1e-8 of the atomic half-width.  The
self-energy Sigma has one kernel.  For the flat multimode chain it is
i g_site^2 u^T (x - H)^-1 u, with u all ones and x = nu + i Gamma_a/2, which
has a closed form (``resolvent.chain_sum``); every other model sums its
resonances in (points x resonances) blocks (``_resonance_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import row_blocks
from .exciton import site_coupling
from .params import (
    DampingSet, SystemParams, cavity_frequency, superradiant_energy, transfer_parameter,
)
from .polariton import _BLOCK_POINTS, ModelVariant, variant_center, variant_modes
from .resolvent import chain_sum

# Default sweep: 2001 points over at least +-150 MHz around the cavity/exciton
# midpoint, about 15 grid points per 10-MHz linewidth.
DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_SPAN_HZ = 1.5e8
# Vacuum Rabi splittings a grid covers on each side of the midpoint, which
# keeps both branches and their tails on it.
_DOUBLET_REACH = 2.5
# Elements of each (points x resonances) buffer of the resonance sum: 128 kB.
# Blocks four times larger are no faster, and add 1 MB to the peak RSS.
_BLOCK_ELEMENTS = 1 << 14


class NoOutputChannelError(ValueError):
    """The cavity has no mirror output channel (kappa = 0)."""


@dataclass(frozen=True)
class Peak:
    location_hz: float
    height: float
    fwhm_hz: float  # NaN when a half-height crossing lies outside the trace


@dataclass(frozen=True)
class SpectrumTrace:
    """Sampled spectrum with transmission peak metadata."""

    frequencies_hz: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray
    peaks: tuple[Peak, ...]
    center_hz: float  # midpoint of cavity and exciton frequencies


def _resonance_sum(
    offsets: np.ndarray, half_width: float, couplings: np.ndarray, lines: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of Sigma = sum_k g_k^2 / (i (line_k - nu) + h)
    at each offset nu, with h = Gamma_a/2 and lines and offsets from the
    same reference.

    With d = line_k - nu these are h sum g^2 / (d^2 + h^2) and
    -sum g^2 d / (d^2 + h^2): two real matrix-vector products per
    (points x resonances) block, in two reused buffers.  They go through
    matmul: np.dot on a one-column block stalls in threaded OpenBLAS (8 ms
    a block with two threads, against 0.1 ms), and both give the same bits.
    """
    weights = couplings**2
    real, imag = np.empty(offsets.size), np.empty(offsets.size)
    for r0, r1, (d, q) in row_blocks(offsets.size, lines.size, 2, _BLOCK_ELEMENTS):
        np.subtract(lines, offsets[r0:r1, None], out=d)
        np.square(d, out=q)
        q += half_width * half_width
        np.divide(1.0, q, out=q)
        np.matmul(q, weights, out=real[r0:r1])
        d *= q
        np.matmul(d, weights, out=imag[r0:r1])
    real *= half_width
    np.negative(imag, out=imag)
    return real, imag


def _transmission(
    offsets: np.ndarray, cavity_offset: float, damping: DampingSet, self_energy
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of t = gamma_mirror / D at drive offsets nu,
    for a cavity at ``cavity_offset`` from the same reference;
    ``self_energy(offsets, Gamma_a/2)`` gives the parts of Sigma.

    With undamped atoms (Gamma_a = 0) a drive on a coupled line makes Sigma,
    and so D, infinite (or NaN, from inf/inf): there t = 0 and r = 1.
    """
    kappa = damping.cavity_width_hz
    if kappa <= 0.0:
        raise NoOutputChannelError("cavity width kappa = 0: no mirror output channel")
    half_atom = damping.gamma_atom_hz / 2.0
    undamped = half_atom == 0.0
    quiet = "ignore" if undamped else None
    with np.errstate(divide=quiet, invalid=quiet):
        t_real, t_imag = self_energy(offsets, half_atom)  # D, then t, in place
        t_real += kappa / 2.0
        t_imag += cavity_offset - offsets
        scale = t_real * t_real
        scale += t_imag * t_imag
        np.divide(damping.gamma_mirror_hz, scale, out=scale)
        t_real *= scale
        t_imag *= scale
        np.negative(t_imag, out=t_imag)
    if undamped:
        pole = ~(np.isfinite(t_real) & np.isfinite(t_imag))
        t_real[pole] = t_imag[pole] = 0.0
    return t_real, t_imag


def cavity_response(
    nu_hz: np.ndarray | float,
    cavity_hz: float,
    damping: DampingSet,
    resonances: list[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Complex transmission and reflection amplitudes at drive frequency nu.

    ``resonances`` holds (coupling_hz, frequency_hz) pairs; an empty list
    gives the bare-cavity response.  Frequencies are taken as offsets from
    the cavity, which are exact.  With undamped atoms (Gamma_a = 0), a
    drive exactly on a coupled resonance gives t = 0 and r = 1.
    """
    nu = np.asarray(nu_hz, dtype=float)
    pairs = np.array(resonances, dtype=float).reshape(-1, 2)
    bright = pairs[pairs[:, 0] != 0.0]  # a zero coupling adds nothing, and 0/0 on its line
    t_real, t_imag = _transmission(
        np.atleast_1d(nu - cavity_hz).ravel(), 0.0, damping,
        lambda x, h: _resonance_sum(x, h, bright[:, 0], bright[:, 1] - cavity_hz),
    )
    # Back to the input's shape; [()] makes a scalar input a scalar again.
    t = (t_real + 1j * t_imag).reshape(nu.shape)[()]
    return t, 1.0 - t


def default_grid(
    params: SystemParams,
    variant: ModelVariant = ModelVariant.TWO_MODE_SUPERRADIANT,
    points: int = DEFAULT_GRID_POINTS,
    span_hz: float | None = None,
) -> np.ndarray:
    """Frequency grid centred between the cavity and exciton lines.  The
    default half-span is DEFAULT_GRID_SPAN_HZ, or 2.5 vacuum Rabi
    splittings when the doublet needs more, widened by half the cavity's
    detuning from the superradiant line."""
    if points < 3:
        raise ValueError(f"grid needs at least 3 points, got {points}")
    center, omega0 = variant_center(params, variant)
    if span_hz is None:
        # A detuned cavity moves the doublet away from the midpoint by up
        # to half the detuning from the superradiant line.
        detuning = abs(cavity_frequency(params) - superradiant_energy(params))
        span_hz = max(DEFAULT_GRID_SPAN_HZ, _DOUBLET_REACH * omega0) + detuning / 2.0
    if not 0 < 2.0 * span_hz < math.inf:  # linspace takes the difference of the ends
        raise ValueError(f"grid span must be positive, and finite when doubled, got {span_hz}")
    return center + np.linspace(-span_hz, span_hz, points)


def _transfer(
    params: SystemParams,
    damping: DampingSet,
    variant: ModelVariant,
    grid: np.ndarray,
    envelope_exact: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of t for a model variant over a grid of
    absolute frequencies, evaluated in offsets from the atomic line (exact
    for the grid and the cavity; every mode line is computed as one)."""
    if variant is ModelVariant.FULL_MULTIMODE and not envelope_exact:
        coupling_sq = site_coupling(params) ** 2
        transfer, num_sites = transfer_parameter(params), params.num_sites

        def self_energy(x, h):  # i g_site^2 S, in blocks: its complex temporaries stay small
            parts = np.empty((2, x.size))
            for r0, r1, _ in row_blocks(x.size, 1, elements=_BLOCK_POINTS):
                chain = chain_sum(x[r0:r1] + 1j * h, transfer, num_sites)
                parts[:, r0:r1] = -coupling_sq * chain.imag, coupling_sq * chain.real
            return parts
    else:
        couplings, lines = variant_modes(params, variant, envelope_exact)

        def self_energy(x, h):
            return _resonance_sum(x, h, couplings, lines)
    atom_hz = params.atom_frequency_hz
    return _transmission(grid - atom_hz, cavity_frequency(params) - atom_hz, damping, self_energy)


def sweep(
    params: SystemParams,
    damping: DampingSet,
    variant: ModelVariant,
    grid: np.ndarray | None = None,
    envelope_exact: bool = False,
) -> SpectrumTrace:
    """Evaluate the spectrum over a frequency grid and locate peaks.

    The grid must be 1-D, strictly increasing, finite and above 0 Hz, and must
    comfortably cover the polariton doublet around the cavity/exciton midpoint.
    """
    center, omega0 = variant_center(params, variant)
    if grid is None:
        grid = default_grid(params, variant)
    else:
        grid = np.asarray(grid, dtype=float)
    # A comparison is False at a NaN, and quiet at an inf, where a difference is not.
    if grid.ndim != 1 or grid.size < 3 or not np.all(grid[1:] > grid[:-1]):
        raise ValueError("frequency grid must be strictly increasing with >= 3 points")
    if grid[0] <= 0.0:
        raise ValueError(f"frequency grid starts at {grid[0]:.6e} Hz: every frequency must be > 0")
    if grid[-1] == math.inf:
        raise ValueError("frequency grid ends at inf Hz: every frequency must be finite")
    reach = _DOUBLET_REACH * omega0
    if grid[0] > center - reach or grid[-1] < center + reach:
        raise ValueError(
            f"grid [{grid[0]:.6e}, {grid[-1]:.6e}] Hz does not cover "
            f"{center:.6e} +- {reach:.3e} Hz around the resonance"
        )

    t_real, t_imag = _transfer(params, damping, variant, grid, envelope_exact)
    imag_sq = np.square(t_imag, out=t_imag)
    transmission = t_real * t_real + imag_sq
    reflection = (1.0 - t_real) ** 2 + imag_sq
    peaks = tuple(peak_find(grid, transmission, ceiling=1.0))
    return SpectrumTrace(
        frequencies_hz=grid,
        transmission=transmission,
        reflection=reflection,
        peaks=peaks,
        center_hz=center,
    )


def _parabolic_vertex(x: np.ndarray, y: np.ndarray, floor: float, ceiling: float) -> tuple[float, float]:
    """Vertex of the parabola through three points (x shifted for
    conditioning), at or above the middle sample.  The maximum is
    unresolved, and keeps its sample, if the fit is degenerate, if the
    vertex passes ``ceiling``, or if a neighbour lies below half the
    sample's height above ``floor``: next to a one-point transmission zero,
    say, the vertex would overshoot by up to 1/8 of the drop."""
    x0 = x[1]
    a, b, c = np.polyfit(x - x0, y, 2)
    if a < 0.0 and 2.0 * min(y[0], y[2]) >= y[1] + floor:
        height = c - b**2 / (4.0 * a)
        if height <= ceiling:
            return float(x0 - b / (2.0 * a)), float(max(height, y[1]))
    return float(x0), float(y[1])


# Steps the first window of a half-height search tests; each later window
# doubles, so a search costs O(distance to where it stops), not O(points).
_FIRST_WINDOW = 64


def _half_crossing(
    freq: np.ndarray, values: np.ndarray, start: int, half: float, step: int
) -> float:
    """Frequency where the trace crosses ``half`` walking from a peak.

    The walk from ``start`` in steps of ``step`` (+1 or -1) stops at the
    first step that falls below ``half`` or that rises above both ``half``
    and its own start (into a neighbouring peak, giving NaN).
    """
    steps = values.size - 1 - start if step > 0 else start
    lo, width = 0, _FIRST_WINDOW
    while lo < steps:
        i = start + step * np.arange(lo, min(steps, lo + width))
        here, there = values[i], values[i + step]
        crossed = (there < half) & (half <= here)
        stops = np.flatnonzero(crossed | ((there > here) & (there > half)))
        if stops.size:
            if not crossed[stops[0]]:
                break  # rising into a neighbouring peak before crossing
            a = i[stops[0]]
            frac = (values[a] - half) / (values[a] - values[a + step])
            return float(freq[a] + frac * (freq[a + step] - freq[a]))
        lo, width = lo + width, 2 * width
    return math.nan


def _maxima(freq: np.ndarray, vals: np.ndarray, ceiling: float) -> list[tuple[int, float, float]]:
    """Index, location and height of each local maximum of the float arrays,
    by 3-point comparison with parabolic refinement that stops at
    ``ceiling``, in order of location."""
    if freq.size != vals.size:
        raise ValueError("frequency and value arrays must have equal length")
    if freq.size < 3:
        return []
    inner = vals[1:-1]
    maxima = np.flatnonzero((inner > vals[:-2]) & (inner > vals[2:])) + 1
    floor = vals.min()
    found = [(i, *_parabolic_vertex(freq[i - 1 : i + 2], vals[i - 1 : i + 2], floor, ceiling))
             for i in maxima.tolist()]
    return sorted(found, key=lambda m: m[1])


def peak_find(frequencies_hz: np.ndarray, values: np.ndarray, ceiling: float = math.inf) -> list[Peak]:
    """Local maxima by 3-point comparison with parabolic refinement, which
    stops at ``ceiling``, the trace's bound (1 for a transmission).

    FWHM comes from linearly interpolated half-height crossings on both
    sides (NaN when a side never crosses).  Peaks are ordered by location;
    a trace with no interior maximum yields an empty list.
    """
    freq = np.asarray(frequencies_hz, dtype=float)
    vals = np.asarray(values, dtype=float)
    return [Peak(location_hz=location, height=height,
                 fwhm_hz=_half_crossing(freq, vals, i, height / 2.0, +1)
                 - _half_crossing(freq, vals, i, height / 2.0, -1))
            for i, location, height in _maxima(freq, vals, ceiling)]
