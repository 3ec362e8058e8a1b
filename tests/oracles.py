"""Brute-force oracles for the exciton mode structure and the spectra, used
only by tests.

The package computes the standing-wave modes in closed form; these helpers
rebuild the same objects the slow way (explicit sine vectors, the per-mode
coupling sum and its sum rule, and a LAPACK tridiagonal eigensolve) so the
tests can check the closed forms against them.  ``resonance_loop`` is the cavity response as one
complex pass per resonance, the form the package used before its blocked
and closed-form self-energy kernel.  ``polariton_loop`` and ``rabi_loop``
build the polariton and Rabi datasets one grid point at a time in Python
floats, the form the package used before its single-mode array kernel.  scipy, which the tridiagonal
eigensolver needs, is a test dependency only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np
from scipy.linalg import eigh_tridiagonal

from lattice_polariton import (
    DampingSet, ModelVariant, SystemParams, mode_volume, transfer_parameter,
)
from lattice_polariton.params import (
    EPSILON_0, PLANCK_H, _check_angle, _check_num_sites, _check_positive,
)


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


def _shift_point(params: SystemParams, num_sites: int, theta_rad: float) -> float:
    """The k = 1 line's offset from the atomic line, 2 J cos(pi / (N+1))."""
    geometry = 1.0 - 3.0 * math.cos(theta_rad) ** 2
    transfer = (
        params.dipole_Cm**2
        * geometry
        / (4.0 * math.pi * EPSILON_0 * params.lattice_constant_m**3 * PLANCK_H)
    )
    return 2.0 * transfer * math.cos(math.pi / (num_sites + 1))


def one_mode_point(
    params: SystemParams, variant: ModelVariant, cavity_hz: float | None, num_sites: int,
    theta_rad: float,
) -> tuple[float, float]:
    """Coupling and line offset in Hz of a one-mode variant's exciton at one
    cavity (None: on the superradiant line), N and theta."""
    _check_num_sites(num_sites)
    _check_angle(theta_rad)
    shift = _shift_point(params, num_sites, theta_rad)
    if cavity_hz is None:
        cavity_hz = params.atom_frequency_hz + shift
    _check_positive("cavity_frequency_hz", cavity_hz)
    volume = mode_volume(params)
    site = math.sqrt(cavity_hz * params.dipole_Cm**2 / (2.0 * EPSILON_0 * volume * PLANCK_H))
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        cotangent = 1.0 / math.tan(math.pi / (2.0 * (num_sites + 1)))
        return site * math.sqrt(2.0 / (num_sites + 1)) * cotangent, shift
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return site * math.sqrt(num_sites), 0.0
    raise ValueError(f"no single mode in model variant {variant!r}: use two-mode or noninteracting")


def doublet_point(cavity_hz: float, exciton_hz: float, coupling_hz: float) -> tuple[float, ...]:
    """two_mode_doublet's fields: detuning, half-splitting, upper and lower
    branch, then the exciton and photon amplitudes of each branch."""
    if coupling_hz < 0:
        raise ValueError(f"coupling_hz must be >= 0, got {coupling_hz}")
    detuning = (cavity_hz - exciton_hz) / 2.0
    half_split = math.hypot((cavity_hz - exciton_hz) / 2.0, coupling_hz)
    mean = (cavity_hz + exciton_hz) / 2.0
    if coupling_hz == 0.0:
        amps = (0.0, 1.0, -1.0, 0.0) if detuning > 0 else (1.0, 0.0, 0.0, 1.0)
    else:
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
    return (detuning, half_split, mean + half_split, mean - half_split, *amps)


def rabi_point(
    params: SystemParams, variant: ModelVariant, num_sites: int, theta_rad: float,
    cavity_hz: float | None = None,
) -> float:
    """rabi_splitting at one N, theta and cavity."""
    atom_hz = params.atom_frequency_hz
    if cavity_hz is None and variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        cavity_hz = atom_hz
    coupling, shift = one_mode_point(params, variant, cavity_hz, num_sites, theta_rad)
    exciton_hz = atom_hz + shift
    cavity_hz = exciton_hz if cavity_hz is None else cavity_hz
    return 2.0 * math.hypot((cavity_hz - exciton_hz) / 2.0, coupling)


def polariton_loop(params: SystemParams, cavities_hz: np.ndarray) -> np.ndarray:
    """Rows upper and lower branch, then the exciton and photon weights of
    each, of the superradiant doublet at each cavity, one point at a time."""
    exciton_hz = params.atom_frequency_hz + _shift_point(params, params.num_sites, params.theta_rad)
    values = np.empty((6, cavities_hz.size))
    for i, c in enumerate(cavities_hz.tolist()):
        coupling = one_mode_point(
            params, ModelVariant.TWO_MODE_SUPERRADIANT, c, params.num_sites, params.theta_rad
        )[0]
        _, _, upper, lower, *amps = doublet_point(c, exciton_hz, coupling)
        values[:, i] = (upper, lower, *(a**2 for a in amps))
    return values


def rabi_loop(params, variant, sites, thetas, cavity_hz=None) -> np.ndarray:
    """rabi_point along iterables of site counts and angles."""
    splittings = map(partial(rabi_point, params, variant), sites, thetas, repeat(cavity_hz))
    return np.fromiter(splittings, float)
