"""Linear transmission and reflection spectra of the driven cavity.

The cavity is a symmetric two-port resonator (equal mirror rates) driven
through one mirror at normal incidence.  Each exciton mode enters the
cavity response as a damped oscillator, giving

    D(nu) = i (nu_c - nu) + kappa/2 + sum_m g_m^2 / (i (nu_m - nu) + Gamma_a/2)
    t(nu) = gamma_mirror / D(nu),   r(nu) = 1 - t(nu)

with kappa = 2 gamma_mirror + gamma_side the total cavity width.  All rates
are FWHM linewidths, so half-widths appear in the Lorentzian denominators
and an empty lossless cavity transmits a Lorentzian of FWHM kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DampingSet, SystemParams, cavity_frequency
from .polariton import ModelVariant, variant_resonances

# Default sweep: 2001 points over at least +-150 MHz around the cavity/exciton
# midpoint, about 15 grid points per 10-MHz linewidth.
DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_SPAN_HZ = 1.5e8
# Vacuum Rabi splittings a grid covers on each side of the midpoint, which
# keeps both branches and their tails on it.
_DOUBLET_REACH = 2.5


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


def cavity_response(
    nu_hz: np.ndarray | float,
    cavity_hz: float,
    damping: DampingSet,
    resonances: list[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Complex transmission and reflection amplitudes at drive frequency nu.

    ``resonances`` holds (coupling_hz, frequency_hz) pairs; an empty list
    gives the bare-cavity response.  With undamped atoms (Gamma_a = 0), a
    drive exactly on a coupled resonance makes D infinite: there t = 0 and
    r = 1.
    """
    kappa = damping.cavity_width_hz
    if kappa <= 0.0:
        raise NoOutputChannelError("cavity width kappa = 0: no mirror output channel")
    nu = np.asarray(nu_hz, dtype=float)
    shape = nu.shape
    half_atom = damping.gamma_atom_hz / 2.0
    undamped = half_atom == 0.0
    if undamped:
        # On a 1-D grid a pole gives numpy's inf, where a scalar would raise.
        nu = np.atleast_1d(nu)
        on_pole = np.zeros(nu.shape, dtype=bool)
    denom = 1j * (cavity_hz - nu) + kappa / 2.0
    quiet = "ignore" if undamped else None
    with np.errstate(divide=quiet, invalid=quiet):
        for coupling, frequency in resonances:
            if undamped:
                if coupling == 0.0:
                    continue  # adds nothing, and would make 0/0 on its own line
                on_pole |= nu == frequency
            denom = denom + coupling**2 / (1j * (frequency - nu) + half_atom)
        t = damping.gamma_mirror_hz / denom
    if undamped:
        # Back to the input's shape; [()] makes a scalar input a scalar again.
        t = np.where(on_pole, 0.0, t).reshape(shape)[()]
    return t, 1.0 - t


def variant_center(params: SystemParams, variant: ModelVariant) -> tuple[float, float]:
    """Midpoint of the cavity and exciton lines, plus the variant's
    zero-detuning vacuum Rabi splitting Omega_0 (used to size sweep grids).
    The multimode model is placed and sized by its superradiant mode."""
    if variant is ModelVariant.FULL_MULTIMODE:
        variant = ModelVariant.TWO_MODE_SUPERRADIANT
    [(coupling_hz, exciton_hz)] = variant_resonances(params, variant)
    return (cavity_frequency(params) + exciton_hz) / 2.0, 2.0 * coupling_hz


def default_grid(
    params: SystemParams,
    variant: ModelVariant = ModelVariant.TWO_MODE_SUPERRADIANT,
    points: int = DEFAULT_GRID_POINTS,
    span_hz: float | None = None,
) -> np.ndarray:
    """Frequency grid centred between the cavity and exciton lines.  The
    default half-span is DEFAULT_GRID_SPAN_HZ, or 2.5 vacuum Rabi
    splittings when the doublet needs more."""
    if points < 3:
        raise ValueError(f"grid needs at least 3 points, got {points}")
    center, omega0 = variant_center(params, variant)
    if span_hz is None:
        span_hz = max(DEFAULT_GRID_SPAN_HZ, _DOUBLET_REACH * omega0)
    elif span_hz <= 0:
        raise ValueError(f"grid span must be positive, got {span_hz}")
    return center + np.linspace(-span_hz, span_hz, points)


def sweep(
    params: SystemParams,
    damping: DampingSet,
    variant: ModelVariant,
    grid: np.ndarray | None = None,
    envelope_exact: bool = False,
) -> SpectrumTrace:
    """Evaluate the spectrum over a frequency grid and locate peaks.

    The grid must be strictly increasing and must comfortably cover the
    polariton doublet around the cavity/exciton midpoint.
    """
    center, omega0 = variant_center(params, variant)
    if grid is None:
        grid = default_grid(params, variant)
    else:
        grid = np.asarray(grid, dtype=float)
    if grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise ValueError("frequency grid must be strictly increasing with >= 3 points")
    reach = _DOUBLET_REACH * omega0
    if grid[0] > center - reach or grid[-1] < center + reach:
        raise ValueError(
            f"grid [{grid[0]:.6e}, {grid[-1]:.6e}] Hz does not cover "
            f"{center:.6e} +- {reach:.3e} Hz around the resonance"
        )

    t, r = cavity_response(grid, cavity_frequency(params), damping,
                           variant_resonances(params, variant, envelope_exact))
    transmission = np.abs(t) ** 2
    reflection = np.abs(r) ** 2
    peaks = tuple(peak_find(grid, transmission))
    return SpectrumTrace(
        frequencies_hz=grid,
        transmission=transmission,
        reflection=reflection,
        peaks=peaks,
        center_hz=center,
    )


def _parabolic_vertex(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Vertex of the parabola through three points (x shifted for
    conditioning); falls back to the middle sample if degenerate."""
    x0 = x[1]
    a, b, c = np.polyfit(x - x0, y, 2)
    if a >= 0.0:
        return float(x0), float(y[1])
    xv = -b / (2.0 * a)
    return float(x0 + xv), float(c - b**2 / (4.0 * a))


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


def peak_find(frequencies_hz: np.ndarray, values: np.ndarray) -> list[Peak]:
    """Local maxima by 3-point comparison with parabolic refinement.

    FWHM comes from linearly interpolated half-height crossings on both
    sides (NaN when a side never crosses).  Peaks are ordered by location;
    a trace with no interior maximum yields an empty list.
    """
    freq = np.asarray(frequencies_hz, dtype=float)
    vals = np.asarray(values, dtype=float)
    if freq.size != vals.size:
        raise ValueError("frequency and value arrays must have equal length")
    if freq.size < 3:
        return []
    inner = vals[1:-1]
    maxima = np.flatnonzero((inner > vals[:-2]) & (inner > vals[2:])) + 1
    peaks = []
    for i in maxima.tolist():
        location, height = _parabolic_vertex(freq[i - 1 : i + 2], vals[i - 1 : i + 2])
        half = height / 2.0
        left = _half_crossing(freq, vals, i, half, -1)
        right = _half_crossing(freq, vals, i, half, +1)
        peaks.append(Peak(location_hz=location, height=height, fwhm_hz=right - left))
    peaks.sort(key=lambda p: p.location_hz)
    return peaks
