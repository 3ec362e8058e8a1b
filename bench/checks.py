"""Output checks.  None of them is timed; any that fails makes its job fail.

The multimode oracle rebuilds the bordered exciton+photon matrix from the
physics alone (CODATA constants, the sine standing waves and the Gaussian
beam envelope) and diagonalizes it with ``numpy.linalg.eigvalsh``.  It uses
parity exactly: even-k modes have zero coupling, so they are split off as
exact eigenvalues and only the bright block is diagonalized.  The package's
frequencies must match within ``FREQ_TOL``, whichever solver produced them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PLANCK_H = 6.62607015e-34      # J s
EPSILON_0 = 8.8541878128e-12   # F/m

# Absolute frequency tolerance as a share of the atomic line (40 Hz at
# 4e14 Hz).  The dense solver works on unshifted 4e14 Hz entries and agrees
# with the shifted oracle to about 1 Hz at N = 2500; the smallest level
# spacing at the band edge is about 860 Hz there.
FREQ_TOL = 1e-13
# Sums that must equal 1 (oscillator fractions, photon + exciton weights).
# CSV cells carry 12 significant digits.
SUM_TOL = 1e-9
# |t|^2 + |r|^2 may not exceed 1 by more than rounding.
POWER_TOL = 1e-9


class CheckError(Exception):
    """An output is wrong."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_trace(freq, transmission, reflection, peak_locations) -> None:
    """A spectrum: finite, |t|^2 + |r|^2 <= 1, peaks inside the grid."""
    freq = np.asarray(freq)
    trans = np.asarray(transmission)
    refl = np.asarray(reflection)
    _require(np.isfinite(freq).all() and np.isfinite(trans).all() and np.isfinite(refl).all(),
             "spectrum holds a non-finite value")
    _require(trans.min() >= 0 and refl.min() >= 0, "negative transmission or reflection")
    excess = (trans + refl).max() - 1.0
    _require(excess <= POWER_TOL, f"|t|^2 + |r|^2 exceeds 1 by {excess:.3e}")
    for location in peak_locations:
        _require(math.isfinite(location) and freq[0] <= location <= freq[-1],
                 f"peak at {location!r} Hz lies outside the grid [{freq[0]:.9e}, {freq[-1]:.9e}]")


def check_amplitudes(t, r) -> None:
    """Complex transmission and reflection amplitudes."""
    _require(np.isfinite(t).all() and np.isfinite(r).all(), "amplitude is not finite")
    excess = (np.abs(t) ** 2 + np.abs(r) ** 2).max() - 1.0
    _require(excess <= POWER_TOL, f"|t|^2 + |r|^2 exceeds 1 by {excess:.3e}")


def _check_unit_sum(values, what: str) -> None:
    error = np.abs(values - 1.0).max()
    _require(error <= SUM_TOL, f"{what} miss 1 by {error:.3e}")


def check_csv(path: Path, rows: int) -> tuple[int, int]:
    """Check one CLI dataset; return its data row count and size in bytes."""
    _require(path.is_file(), f"no output written at {path}")
    peaks = []
    with open(path) as handle:
        line = handle.readline()
        while line.startswith("#"):
            if line.startswith("# peak,"):
                peaks.append(float(line.split(",")[1]))
            line = handle.readline()
        header = line.strip().split(",")
        numeric = [i for i, name in enumerate(header) if name != "class"]
        try:
            data = np.loadtxt(handle, delimiter=",", usecols=numeric, ndmin=2)
        except ValueError as exc:
            raise CheckError(f"unparsable CSV: {exc}") from exc
    _require(data.shape[0] == rows, f"expected {rows} rows, got {data.shape[0]}")
    _require(np.isfinite(data).all(), "CSV holds a non-finite value")
    column = {header[i]: data[:, j] for j, i in enumerate(numeric)}
    if "oscillator_fraction" in column:
        fractions = column["oscillator_fraction"]
        _require(fractions.min() >= 0, "negative oscillator fraction")
        _check_unit_sum(np.array([fractions.sum()]), "oscillator fractions")
    for branch in ("upper", "lower"):
        if f"photon_weight_{branch}" in column:
            _check_unit_sum(column[f"photon_weight_{branch}"] + column[f"exciton_weight_{branch}"],
                            f"{branch} photon + exciton weights")
    if "transmission" in column:
        check_trace(column["nu_hz"], column["transmission"], column["reflection"], peaks)
    return rows, path.stat().st_size


class Oracle:
    """Independent exciton energies, couplings and bordered-matrix spectrum
    of one chain, built from the physics rather than from the package."""

    def __init__(self, params):
        n = params.num_sites
        self.params = params
        self.num_sites = n
        transfer = (params.dipole_Cm**2 * (1.0 - 3.0 * math.cos(params.theta_rad) ** 2)
                    / (4.0 * math.pi * EPSILON_0 * params.lattice_constant_m**3 * PLANCK_H))
        k = np.arange(1, n + 1)
        self.shifts = 2.0 * transfer * np.cos(np.pi * k / (n + 1))  # E_k - nu_a
        self.atom_hz = params.atom_frequency_hz
        self.cavity_hz = self.atom_hz + self.shifts[0]  # resonant with the k = 1 exciton
        volume = math.pi * params.beam_waist_m**2 * params.mirror_distance_m / 4.0
        self.site_coupling = math.sqrt(
            self.cavity_hz * params.dipole_Cm**2 / (2.0 * EPSILON_0 * volume * PLANCK_H))
        self.bright = k % 2 == 1
        self._frequencies: dict[bool, np.ndarray] = {}

    def couplings(self, envelope: bool) -> np.ndarray:
        """Cavity couplings in Hz for k = 1..N; exactly zero for even k."""
        n = self.num_sites
        odd = np.arange(1, n + 1, 2)
        g = np.zeros(n)
        if envelope:
            sites = np.arange(1, n + 1)
            positions = (sites - (n + 1) / 2.0) * self.params.lattice_constant_m
            per_site = self.site_coupling * np.exp(-((positions / self.params.beam_waist_m) ** 2))
            transform = np.sin(np.pi * np.outer(odd, sites) / (n + 1))
            g[odd - 1] = math.sqrt(2.0 / (n + 1)) * (transform @ per_site)
        else:
            g[odd - 1] = self.site_coupling * math.sqrt(2.0 / (n + 1)) / np.tan(np.pi * odd / (2.0 * (n + 1)))
        return g

    def frequencies(self, envelope: bool) -> np.ndarray:
        """All N + 1 eigenfrequencies in Hz, ascending (computed once)."""
        if envelope not in self._frequencies:
            self._frequencies[envelope] = self._eigenfrequencies(envelope)
        return self._frequencies[envelope]

    def _eigenfrequencies(self, envelope: bool) -> np.ndarray:
        g = self.couplings(envelope)[self.bright]
        dim = g.size + 1
        block = np.zeros((dim, dim))
        block[np.arange(dim - 1), np.arange(dim - 1)] = self.shifts[self.bright]
        block[-1, -1] = self.cavity_hz - self.atom_hz
        block[:-1, -1] = g
        block[-1, :-1] = g
        shifted = np.concatenate([np.linalg.eigvalsh(block), self.shifts[~self.bright]])
        return np.sort(shifted) + self.atom_hz

    def resonances(self) -> list[tuple[float, float]]:
        """(coupling_hz, frequency_hz) of the bright flat-envelope modes."""
        g = self.couplings(False)[self.bright]
        return list(zip(g.tolist(), (self.atom_hz + self.shifts[self.bright]).tolist()))

    def grid(self, points: int) -> np.ndarray:
        """Grid spanning +-3 vacuum Rabi splittings around the k = 1 line."""
        omega0 = 2.0 * self.couplings(False)[0]
        return self.cavity_hz + np.linspace(-3.0 * omega0, 3.0 * omega0, points)


def check_multimode(result, oracle: Oracle, envelope: bool) -> None:
    """A multimode eigendecomposition: frequencies against the oracle, and
    photon plus exciton weights of every eigenvector summing to 1."""
    freq = np.asarray(result.frequencies_hz)
    n = oracle.num_sites
    _require(freq.shape == (n + 1,), f"expected {n + 1} frequencies, got {freq.shape}")
    _require(np.isfinite(freq).all(), "non-finite frequency")
    _require((np.diff(freq) >= 0).all(), "frequencies are not ascending")
    error = np.abs(freq - oracle.frequencies(envelope)).max()
    tol = FREQ_TOL * abs(oracle.atom_hz)
    _require(error <= tol, f"frequencies differ from the oracle by {error:.3e} Hz (tolerance {tol:.3e})")
    photon = np.asarray(result.photon_weights)
    exciton = np.asarray(result.exciton_weights)
    _require(photon.min() >= 0 and exciton.min() >= 0, "negative weight")
    _check_unit_sum(photon + exciton.sum(axis=1), "photon + exciton weights")
    _check_unit_sum(np.array([photon.sum()]), "photon weights over all eigenvectors")
