"""Brute-force oracles for the exciton mode structure, used only by tests.

The package computes the standing-wave modes in closed form; these helpers
rebuild the same objects the slow way (explicit sine vectors, a per-mode sum
rule and a LAPACK tridiagonal eigensolve) so the tests can check the closed
forms against them.  scipy, which the tridiagonal eigensolver needs, is a
test dependency only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from lattice_polariton import SystemParams, coupling_sum, transfer_parameter


def sine_mode_vector(k: int, num_sites: int) -> np.ndarray:
    """Unit-norm eigenvector of mode k: component n is
    sqrt(2/(N+1)) sin(pi n k / (N+1))."""
    if not 1 <= k <= num_sites:
        raise ValueError(f"mode index k={k} out of range 1..{num_sites}")
    n = np.arange(1, num_sites + 1)
    return math.sqrt(2.0 / (num_sites + 1)) * np.sin(np.pi * n * k / (num_sites + 1))


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
