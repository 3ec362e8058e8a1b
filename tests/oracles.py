"""Brute-force oracles for the exciton mode structure and the spectra, used
only by tests.

The package computes the standing-wave modes in closed form; these helpers
rebuild the same objects the slow way (explicit sine vectors, the per-mode
coupling sum and its sum rule, and a LAPACK tridiagonal eigensolve) so the
tests can check the closed forms against them.  ``resonance_loop`` is the cavity response as one
complex pass per resonance, the form the package used before its blocked
and closed-form self-energy kernel.  scipy, which the tridiagonal
eigensolver needs, is a test dependency only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from lattice_polariton import DampingSet, SystemParams, transfer_parameter


def sine_mode_vector(k: int, num_sites: int) -> np.ndarray:
    """Unit-norm eigenvector of mode k: component n is
    sqrt(2/(N+1)) sin(pi n k / (N+1))."""
    if not 1 <= k <= num_sites:
        raise ValueError(f"mode index k={k} out of range 1..{num_sites}")
    n = np.arange(1, num_sites + 1)
    return math.sqrt(2.0 / (num_sites + 1)) * np.sin(np.pi * n * k / (num_sites + 1))


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


def coupling_sum_rule(num_sites: int) -> float:
    """Sum over odd k of coupling_sum(k, N)^2 = cot^2(pi k / (2(N+1))).

    Equals N(N+1)/2 exactly; used as a numeric cross-check of the mode
    couplings.
    """
    if num_sites < 1:
        raise ValueError(f"num_sites must be >= 1, got {num_sites}")
    return math.fsum(coupling_sum(k, num_sites) ** 2 for k in range(1, num_sites + 1, 2))


@dataclass(frozen=True)
class SiteHamiltonian:
    """Site-basis excitation Hamiltonian: uniform diagonal, uniform
    nearest-neighbour off-diagonal, fixed (empty) boundaries."""

    dim: int
    diagonal_hz: float
    offdiag_hz: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @classmethod
    def from_params(cls, params: SystemParams) -> "SiteHamiltonian":
        return cls(
            dim=params.num_sites,
            diagonal_hz=params.atom_frequency_hz,
            offdiag_hz=transfer_parameter(params),
        )

    def matrix(self) -> np.ndarray:
        h = np.diag(np.full(self.dim, self.diagonal_hz))
        off = np.full(self.dim - 1, self.offdiag_hz)
        h += np.diag(off, 1) + np.diag(off, -1)
        return h


def diagonalize_site_hamiltonian(h: SiteHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force eigendecomposition of the site Hamiltonian.

    Returns (eigenvalues ascending, eigenvectors as columns).  Serves as a
    numerical oracle for exciton_energies and sine_mode_vector.
    """
    if h.dim == 1:
        return np.array([h.diagonal_hz]), np.array([[1.0]])
    diagonal = np.full(h.dim, h.diagonal_hz)
    offdiag = np.full(h.dim - 1, h.offdiag_hz)
    return eigh_tridiagonal(diagonal, offdiag)


def resonance_loop(
    nu_hz, cavity_hz: float, damping: DampingSet, resonances: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Complex t and r at drive frequencies nu, summing the self-energy one
    resonance at a time.  ``resonances`` holds (coupling_hz, frequency_hz)
    pairs; nu, the cavity and the frequencies may be absolute or offsets
    from any one reference.  With Gamma_a = 0, a drive exactly on a coupled
    resonance gives t = 0 and r = 1."""
    kappa = damping.cavity_width_hz
    nu = np.asarray(nu_hz, dtype=float)
    shape = nu.shape
    half_atom = damping.gamma_atom_hz / 2.0
    undamped = half_atom == 0.0
    if undamped:
        nu = np.atleast_1d(nu)
        on_pole = np.zeros(nu.shape, dtype=bool)
    denom = 1j * (cavity_hz - nu) + kappa / 2.0
    quiet = "ignore" if undamped else None
    with np.errstate(divide=quiet, invalid=quiet):
        for coupling, frequency in resonances:
            if undamped:
                if coupling == 0.0:
                    continue
                on_pole |= nu == frequency
            denom = denom + coupling**2 / (1j * (frequency - nu) + half_atom)
        t = damping.gamma_mirror_hz / denom
    if undamped:
        t = np.where(on_pole, 0.0, t).reshape(shape)[()]
    return t, 1.0 - t
