"""Brute-force oracles for the exciton mode structure and the spectra, used
only by tests.

The package computes the standing-wave modes in closed form; these helpers
rebuild the same objects the slow way (explicit sine vectors, the per-mode
coupling sum and its sum rule, and a LAPACK tridiagonal eigensolve) so the
tests can check the closed forms against them.  ``resonance_loop`` is the cavity response as one
complex pass per resonance, the form the package used before its blocked
and closed-form self-energy kernel.  ``polariton_loop`` and ``rabi_loop``
build the polariton and Rabi datasets one grid point at a time in Python
floats, the form the package used before its single-mode array kernel, and
``ulps`` measures how far the kernel's numbers are from theirs; ``one_doublet``
and ``own_doublet`` read the kernel's doublet at a single point.  ``PoleSums``,
``FarField`` and ``block_sums`` are the general arrowhead solve's former driver, one iteration per
block of BLOCK_ROWS roots and per outer root, and ``roots_by_block`` runs it; ``whole_row_sums`` is
the evaluator before that, every root summed over every pole.  ``chain_sum_near_pole`` is the flat
chain's closed form as it was before its per-mode angles were taken once per set of roots.
``dense_eigenvectors`` and ``dense_exciton_weights`` are the arrowhead's dense accessors as they were
before their blocked kernel: the whole (N+1)^2 matrix, then each merged run's reflection over every
column, and the exciton weights squared from that matrix.  ``mp_vertex`` is the
vertex of a peak's three samples in mpmath, with the Lebesgue sums that carry an error
in the samples into it.  scipy, which the tridiagonal eigensolver needs, is a test
dependency only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal

from lattice_polariton import (
    DampingSet, ModelVariant, SystemParams, cavity_frequency, mode_volume, superradiant_doublets,
    transfer_parameter,
)
from lattice_polariton.arrowhead import (
    _NODE_WEIGHTS, _NODES, BLOCK_ROWS, FAR_NODES, _recomputed_couplings, _secular_roots, _solve_chunk,
)
from lattice_polariton.blocks import row_blocks
from lattice_polariton.params import (
    EPSILON_0, PLANCK_H, _check_angle, _check_num_sites, _check_positive,
)
from lattice_polariton.polariton import _doublets, _sweep


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
    """The doublet of one exciton mode against the cavity, as the rows of
    ``polariton._doublets``: detuning, half-splitting, upper and lower
    branch, then the exciton and photon amplitudes of each branch.  The
    photon amplitudes take the coupling's sign."""
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


def one_doublet(cavity_hz: float, exciton_hz: float, coupling_hz: float) -> list[float]:
    """The doublet kernel ``_doublets`` on a sweep one point long: the rows
    of doublet_point, as floats."""
    return _sweep(_doublets, np.array([cavity_hz]), exciton_hz, np.array([coupling_hz]),
                  rows=(8,))[:, 0].tolist()


def own_doublet(params: SystemParams) -> list[float]:
    """superradiant_doublets at the parameters' own cavity: the upper and
    the lower branch in Hz, then the exciton and photon weights of each."""
    return superradiant_doublets(params, np.array([cavity_frequency(params)]))[:, 0].tolist()


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


# How far the one-mode kernel's numbers may be from those of the per-point
# loops, in ``ulps``: numpy's cos, tan, hypot and x * x against Python's
# math and x**2, each faithful.  Measured on x86-64 (numpy 2.4, AVX-512):
# 0 on branch energies, at most 2 on splittings, 3 on lines, mode
# couplings and weights.  Against 40-digit mpmath the weights, a square of
# a square root of a quotient of rounded terms, were at most 5 ulp off in
# 80,000, with the counts falling 5- to 15-fold per ulp from 2 ulp on;
# the margin keeps a run of a few hundred draws from failing by chance.
KERNEL_ULPS = 8


def ulps(got, want, scale=0.0) -> np.ndarray:
    """|got - want| in units in the last place of the larger of |want| and
    ``scale``, the size of the terms want is made from where they cancel:
    0 where the two are equal or both NaN, inf where only one is finite."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    with np.errstate(all="ignore"):
        distance = np.abs(got - want) / np.spacing(np.maximum(np.abs(want), scale))
    return np.where((got == want) | np.isnan(got) & np.isnan(want), 0.0,
                    np.where(np.isnan(distance), np.inf, distance))


def rabi_loop(params, variant, sites, thetas, cavity_hz=None) -> np.ndarray:
    """rabi_point along iterables of site counts and angles."""
    splittings = map(partial(rabi_point, params, variant), sites, thetas, repeat(cavity_hz))
    return np.fromiter(splittings, float)


class PoleSums:
    """The secular sums of one chunk of roots r0..r1-1: summed over the
    near poles lo..hi-1 (every pole by default) in two reused
    (rows x (hi - lo)) buffers, plus the ``far`` field of the others.  Root
    i lies between poles i-1 and i, so for row i the poles j < i are below
    the current point and the poles j >= i above.  Every row is evaluated,
    whichever are done."""

    def __init__(self, poles, couplings, r0, r1, buffers, near=None, far=None):
        lo, hi = near or (0, couplings.size)
        self.poles, self.near, self.couplings, self.far = poles, poles[lo:hi], couplings[lo:hi], far
        self.r0, self.mix_end = r0 - lo, min(r1, hi) - lo
        rows = np.arange(r0, r1)[:, None]
        self.below_mix = (np.arange(r0, min(r1, hi))[None, :] < rows).astype(float)
        self.offsets, self.buffer = buffers

    def at(self, origin):
        np.subtract(self.near[None, :], self.poles[origin][:, None], out=self.offsets)
        if self.far is not None:
            self.start = self.poles[origin] - self.far.ref

    def __call__(self, tau, done=None):
        y = np.subtract(self.offsets, tau[:, None], out=self.buffer)
        z = self.couplings
        np.divide(z, y, out=y)
        r0, end = self.r0, self.mix_end
        below, mix, above = y[:, :r0], y[:, r0:end], y[:, end:]
        mix_below = mix * self.below_mix
        mix_above = mix - mix_below
        psi = below @ z[:r0] + mix_below @ z[r0:end]
        phi = above @ z[end:] + mix_above @ z[r0:end]
        squares = lambda block: np.einsum("ij,ij->i", block, block)
        dpsi = squares(below) + squares(mix_below)
        dphi = squares(above) + squares(mix_above)
        if self.far is not None:
            far_psi, far_phi, far_dpsi, far_dphi = self.far(self.start + tau)
            psi, phi, dpsi, dphi = psi + far_psi, phi + far_phi, dpsi + far_dpsi, dphi + far_dphi
        return psi, phi, dpsi, dphi, phi - psi


class FarField:
    """psi, phi and their derivatives over the poles outside lo..hi-1, at
    points ref + t for t in [0, width]: Chebyshev interpolants through
    FAR_NODES points, built from pairwise sums over 512 poles at a time."""

    def __init__(self, poles, couplings, lo, hi, ref, width):
        self.ref, self.nodes = ref, width * _NODES
        self.table = np.zeros((FAR_NODES, 4))  # psi, phi, dpsi, dphi at each node
        for side, (c0, c1) in enumerate(((0, lo), (hi, poles.size))):
            for p0 in range(c0, c1, 512):
                p1 = min(c1, p0 + 512)
                z = couplings[p0:p1]
                y = z / ((poles[p0:p1] - ref) - self.nodes[:, None])
                self.table[:, side] += np.sum(y * z, axis=1)
                self.table[:, side + 2] += np.sum(y * y, axis=1)

    def __call__(self, t):
        diff = t[:, None] - self.nodes
        exact = diff == 0.0
        weights = _NODE_WEIGHTS / np.where(exact, 1.0, diff)
        hit = exact.any(axis=1)
        weights[hit] = exact[hit]
        return (weights @ self.table / weights.sum(axis=1)[:, None]).T


def _outer(poles, couplings, row):
    buffers = [np.empty((1, poles.size), poles.dtype) for _ in range(2)]
    return slice(row, row + 1), PoleSums(poles, couplings, row, row + 1, buffers)


def block_sums(poles, couplings):
    """The two outer roots summed over every pole, and the interior roots
    BLOCK_ROWS at a time: exact over the poles within one block width, in
    value, of the block's interval, split in row_blocks, and from a far
    field built once per block for the others."""
    n = poles.size
    yield _outer(poles, couplings, 0)
    for b0 in range(1, n, BLOCK_ROWS):
        b1 = min(b0 + BLOCK_ROWS, n)
        ref, top = poles[b0 - 1], poles[b1 - 1]
        lo, hi = np.searchsorted(poles, (2.0 * ref - top, 2.0 * top - ref))
        far = None if lo == 0 and hi == n else FarField(poles, couplings, lo, hi, ref, top - ref)
        for r0, r1, buffers in row_blocks(b1 - b0, hi - lo, buffers=2):
            yield slice(b0 + r0, b0 + r1), PoleSums(poles, couplings, b0 + r0, b0 + r1, buffers,
                                                    (lo, hi), far)
    yield _outer(poles, couplings, n)


def whole_row_sums(poles, couplings):
    """Every row summed over every pole, in the poles' dtype."""
    n = poles.size
    for r0, r1, _ in row_blocks(n + 1, n):
        buffers = [np.empty((r1 - r0, n), poles.dtype) for _ in range(2)]
        yield slice(r0, r1), PoleSums(poles, couplings, r0, r1, buffers)


def roots_by_block(poles, couplings, alpha, blocks):
    """Origins, offsets, slopes f' and error bounds of the n + 1 roots, one
    iteration per chunk of rows that ``blocks`` yields with its evaluator."""
    n = poles.size
    bound = float(np.sqrt(couplings @ couplings))
    origin = np.empty(n + 1, dtype=int)
    tau, slope, error = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    for rows, secular in blocks:
        origin[rows], tau[rows], slope[rows], error[rows] = _solve_chunk(
            poles, alpha, bound, rows.start, rows.stop, secular)
    return origin, tau, slope, error


def chain_sum_near_pole(k, tau, transfer_hz, num_sites):
    """S, S' and the size of its terms at x = d_k + tau for odd modes k, every
    angle computed on each call and both tangent branches taken on every row."""
    m = num_sites + 1
    pi = 4.0 * np.arctan(tau.dtype.type(1.0))
    sin_k = np.sin(pi * np.minimum(k, m - k) / m)
    cos_k = np.sin(pi * (m - 2 * k) / (2.0 * m))
    q = tau / (-4.0 * transfer_hz)
    root = np.sqrt(np.maximum(sin_k * sin_k + 4.0 * q * (cos_k - q), 0.0))
    half = np.arctan(2.0 * q / (sin_k + root))
    c = np.where(2 * k <= m, 1.0 / np.tan(pi * k / (2.0 * m) + half),
                 np.tan(pi * (m - k) / (2.0 * m) - half))
    t = np.tan(m * half)
    ratio = c / t
    scale = (1.0 + c * c) / (4.0 * transfer_hz)
    value = -scale * (m + ratio)
    slope = -scale * scale / 2.0 * ((1.0 + 3.0 * c * c) / (c * t) + m * (1.0 + 3.0 * t * t) / (t * t))
    size = np.abs(scale) * (m + np.abs(ratio))
    return value, slope, size


def dense_eigenvectors(solution):
    """The (N+1)^2 eigenvectors of an ``ArrowheadEigen``, built whole: the
    bright columns a block of roots at a time, the deflated poles' unit
    vectors, then each merged run's reflector over every column."""
    dim = solution.size + 1
    poles, couplings = solution._kept_poles, solution._kept_couplings
    origin, tau = solution._origin, solution._tau
    if solution._closed:
        origin, tau, _, _ = _secular_roots(poles, couplings, solution._alpha)
    z_hat = _recomputed_couplings(poles, couplings, origin, tau) if poles.size else couplings
    out = np.zeros((dim, dim))
    position = solution._position
    for r0, r1, _ in row_blocks(tau.size, poles.size):
        cols = position[r0:r1]
        photon = np.ones(r1 - r0)
        if poles.size:  # [z_hat_j / (lam - d_j); 1], normalized
            amps = z_hat / ((poles[origin[r0:r1], None] - poles) + tau[r0:r1, None])
            photon = np.sqrt(1.0 / (1.0 + np.einsum("ij,ij->i", amps, amps)))
            out[np.ix_(solution._kept, cols)] = (amps * photon[:, None]).T
        out[-1, cols] = photon
    out[solution._deflated, position[tau.size:]] = 1.0
    # Back from each run's rotated coordinates, a chunk of rows at a time.
    for members, w in solution._runs:
        blocks = list(row_blocks(w.size, dim))
        projection = sum(w[r0:r1] @ out[members[r0:r1]] for r0, r1, _ in blocks)
        for r0, r1, _ in blocks:
            out[members[r0:r1]] -= np.outer(2.0 * w[r0:r1], projection)
    return out


def dense_exciton_weights(solution):
    """(N+1, N) squares of the exciton rows of ``dense_eigenvectors``."""
    return np.square(dense_eigenvectors(solution)[:-1, :].T)


def mp_vertex(x, y):
    """The parabola through three points, at mpmath's precision: its
    curvature a, the location and height of its vertex, and the Lebesgue
    sums sum |L_j| and sum |L_j'| of its Lagrange basis at the vertex.  An
    error of at most e in each sample moves the height by up to e sum |L_j|
    and the location by up to e sum |L_j'| / (2 |a|), to first order."""
    xs, ys = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
    h0, h2 = xs[0] - xs[1], xs[2] - xs[1]
    s0 = (ys[0] - ys[1]) / h0
    a = ((ys[2] - ys[1]) / h2 - s0) / (h2 - h0)
    b = s0 - a * h0
    t = xs[1] - b / (2 * a)
    basis = slopes = 0
    for j in range(3):
        k, m = (n for n in range(3) if n != j)
        scale = (xs[j] - xs[k]) * (xs[j] - xs[m])
        basis += abs((t - xs[k]) * (t - xs[m]) / scale)
        slopes += abs((2 * t - xs[k] - xs[m]) / scale)
    return a, t, ys[1] - b * b / (4 * a), basis, slopes
