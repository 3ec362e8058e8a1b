"""Eigendecomposition of a real symmetric arrowhead matrix.

    A = [[diag(d), z  ],
         [z^T,     alpha]]

is the bordered-diagonal form of N exciton modes (energies d, cavity
couplings z) coupled to one photon (frequency alpha).  Its eigenvalues are
the roots of the secular function

    f(lam) = lam - alpha + sum_j z_j^2 / (d_j - lam),

which increases between neighbouring poles d_j, so exactly one root lies in
each gap and one beyond each end of the band.

The solver follows the standard accurate recipe for this problem:

- Work relative to a reference ``shift`` (the bare atomic line), so the
  poles and the corner are small numbers with full relative precision.
- Deflate: a coupling of at most eps * ||(d, z, alpha)|| leaves its pole an
  exact eigenvalue with a unit eigenvector; a run of poles that coincide
  within the same tolerance is reflected (as in LAPACK dlaed2) so that one
  member carries its whole coupling and the others deflate like zero ones.
- Find all roots at once, vectorized over roots and chunked so that every
  temporary has a fixed size.  Each root is stored as its offset from the
  nearer neighbouring pole (its origin), so the distances lam - d_j keep
  full relative accuracy.  Interior roots step to the root of a two-pole
  rational model matching f and f' (R.-C. Li's "middle way", the method of
  LAPACK dlaed4; LAPACK Working Note 89, 1993); the two outer roots use a
  one-pole model that keeps the linear term exact.  Every step is
  safeguarded by bisection inside a closed bracket and stops at the
  rounding level of f or of the offset.
- Recompute the couplings from the computed roots (Gu and Eisenstat, SIAM
  J. Matrix Anal. Appl. 16, 1995), so that the eigenvectors
  v ~ [z_hat / (lam - d); 1] are orthogonal to working precision
  (Jakovcevic Stor, Slapnicar and Barlow, Linear Algebra Appl. 464, 2015).

Frequencies and photon weights need O(N) memory and O(N^2) time; the dense
eigenvector matrix is built only on request.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .blocks import row_blocks

EPS = sys.float_info.epsilon
MAX_ITERATIONS = 100
# Largest dense (N+1) x (N+1) float64 eigenvector matrix that is built; its
# temporaries are chunked like the solver's.
DENSE_BUDGET_BYTES = 2e9


def _model_root(c, a, b):
    """Root of c eta^2 - a eta + b = 0 that tends to b / a as c -> 0."""
    root = np.sqrt(np.abs(a * a - 4.0 * b * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            c == 0.0, b / a, np.where(a <= 0.0, (a - root) / (2.0 * c), 2.0 * b / (a + root))
        )


class _Secular:
    """The secular sums of one chunk of roots r0..r1-1, evaluated in a
    reused buffer.  Root i lies between poles i-1 and i, so for row i the
    poles j < i are below the current point and the poles j >= i above."""

    def __init__(self, couplings, r0, r1, buffer):
        n = couplings.size
        self.couplings = couplings
        self.r0, self.mix_end = r0, min(r1, n)
        rows = np.arange(r0, r1)[:, None]
        self.below_mix = (np.arange(r0, self.mix_end)[None, :] < rows).astype(float)
        self.buffer = buffer

    def evaluate(self, reference, tau):
        """psi, phi (sums of z_j^2 / (d_j - lam) over the poles below and
        above each row's point) and their derivatives, with the distances
        d_j - lam given as ``reference - tau``."""
        y = np.subtract(reference, tau[:, None], out=self.buffer)
        z = self.couplings
        np.divide(z, y, out=y)
        r0, end = self.r0, self.mix_end
        below, mix, above = y[:, :r0], y[:, r0:end], y[:, end:]
        mix_below = mix * self.below_mix
        mix_above = mix - mix_below
        psi = below @ z[:r0] + mix_below @ z[r0:end]
        phi = above @ z[end:] + mix_above @ z[r0:end]
        dpsi = _sum_squares(below) + _sum_squares(mix_below)
        dphi = _sum_squares(above) + _sum_squares(mix_above)
        return psi, phi, dpsi, dphi


def _sum_squares(block):
    return np.einsum("ij,ij->i", block, block)


def _solve_chunk(poles, couplings, alpha, bound, r0, r1, buffers):
    """Origins and offsets of roots r0..r1-1 of the deflated problem;
    ``buffers`` are two (r1 - r0, n) scratch arrays."""
    n = poles.size
    i = np.arange(r0, r1)
    first, last = i == 0, i == n
    interior = ~(first | last)
    lower = np.maximum(i - 1, 0)
    upper = np.minimum(i, n - 1)
    gap = poles[upper] - poles[lower]
    # Brackets and start points as offsets from each root's lower pole
    # (from pole 0 for the root below the band): interior roots start at
    # the middle of their gap, outer roots at the middle of the interval
    # between the end pole and the Weyl bound.
    origin = np.where(first, 0, lower)
    lo = np.where(first, min(poles[0], alpha) - bound - poles[0], 0.0)
    hi = np.where(last, max(poles[-1], alpha) + bound - poles[-1], np.where(first, 0.0, gap))
    tau = (lo + hi) / 2.0

    offsets, scratch = buffers
    secular = _Secular(couplings, r0, r1, scratch)
    # At the offset itself: the rounded point poles[origin] + tau can lie past
    # a root between close poles, and a bracket from its sign would miss it.
    np.subtract(poles[None, :], poles[origin][:, None], out=offsets)
    psi, phi, dpsi, dphi = secular.evaluate(offsets, tau)
    f = poles[origin] - alpha + tau + psi + phi
    hi = np.where(f > 0.0, tau, hi)
    lo = np.where(f < 0.0, tau, lo)
    # Interior roots past the middle are measured from their upper pole.
    switch = interior & (f < 0.0)
    origin = np.where(switch, upper, origin)
    moved = np.where(switch, gap, 0.0)
    tau, lo, hi = tau - moved, lo - moved, hi - moved
    np.subtract(poles[None, :], poles[origin][:, None], out=offsets)
    base = poles[origin] - alpha

    # Offsets of the two poles around each root from its origin.
    lower_off = poles[lower] - poles[origin]
    upper_off = poles[upper] - poles[origin]
    # The linear term's slope is given to the pole that is not the origin.
    slope_lo = np.where(switch, 1.0, 0.0)
    slope_hi = 1.0 - slope_lo
    end_first, end_last = poles[0] - alpha, poles[-1] - alpha
    done = f == 0.0
    for _ in range(MAX_ITERATIONS):
        # Interior roots: two-pole model through f and f'.
        d_lo = lower_off - tau
        d_hi = upper_off - tau
        c = f - d_lo * (dpsi + slope_lo) - d_hi * (dphi + slope_hi)
        a = (d_lo + d_hi) * f - d_lo * d_hi * (1.0 + dpsi + dphi)
        b = d_lo * d_hi * f
        step = tau + _model_root(c, a, b)
        # Outer roots: one pole and the exact linear term, u^2 - p u - s = 0
        # for the new distance u to the end pole.
        with np.errstate(divide="ignore", invalid="ignore"):
            s = tau * tau * np.where(first, dphi, dpsi)
            p = np.where(first, end_first + phi + tau * dphi, -(end_last + psi + tau * dpsi))
            root = np.sqrt(p * p + 4.0 * s)
            u = np.where(p >= 0.0, (p + root) / 2.0, 2.0 * s / (root - p))
        step = np.where(first, -u, np.where(last, u, step))
        # Safeguard: a step must land inside the closed bracket, off the pole.
        ok = (step >= lo) & (step <= hi) & (step != 0.0)
        step = np.where(ok, step, (lo + hi) / 2.0)
        done |= np.abs(step - tau) <= 2.0 * EPS * np.abs(tau)
        if done.all():
            break
        tau = np.where(done, tau, step)
        psi, phi, dpsi, dphi = secular.evaluate(offsets, tau)
        f = base + tau + psi + phi
        hi = np.where(f > 0.0, tau, hi)
        lo = np.where(f < 0.0, tau, lo)
        error = EPS * (8.0 * (phi - psi) + 2.0 * np.abs(base) + np.abs(tau) * (1.0 + dpsi + dphi))
        done |= (np.abs(f) <= error) | (hi - lo <= 2.0 * EPS * np.maximum(np.abs(lo), np.abs(hi)))
    return origin, tau


def _recomputed_couplings(poles, couplings, origin, tau):
    """Couplings z_hat for which the computed roots are exact eigenvalues
    (Gu-Eisenstat): z_hat_j^2 = -prod_k (lam_k - d_j) / prod_{k != j} (d_k - d_j).
    Each d_k pairs with lam_k below d_j and with lam_{k+1} above it, so
    every ratio lies between one and the ratio of neighbouring gaps."""
    n = poles.size
    z_hat = np.empty(n)
    root_poles = poles[origin]
    for r0, r1, (lam_minus_d, ratios) in row_blocks(n, n + 1, buffers=2):
        m = r1 - r0
        own = np.arange(m)
        pole = poles[r0:r1, None]
        np.subtract(root_poles[None, :], pole, out=lam_minus_d)
        lam_minus_d += tau
        ratios = np.subtract(poles[None, :], pole, out=ratios[:, :n])
        np.divide(lam_minus_d[:, :r0], ratios[:, :r0], out=ratios[:, :r0])
        np.divide(lam_minus_d[:, r1 + 1:], ratios[:, r1:], out=ratios[:, r1:])
        block = ratios[:, r0:r1]
        block[own, own] = 1.0
        block[...] = np.where(np.tri(m, k=-1, dtype=bool), lam_minus_d[:, r0:r1],
                              lam_minus_d[:, r0 + 1:r1 + 1]) / block
        product = np.prod(ratios, axis=1)
        z_hat[r0:r1] = np.sqrt(np.abs(lam_minus_d[own, r0 + own] * product))
    return np.copysign(z_hat, couplings)


def _photon_weights(poles, z_hat, origin, tau):
    """1 / (1 + sum_j z_hat_j^2 / (lam - d_j)^2) for every root."""
    weights = np.empty(tau.size)
    for r0, r1, (y,) in row_blocks(tau.size, poles.size, buffers=1):
        np.subtract(poles[None, :], poles[origin[r0:r1]][:, None], out=y)
        y -= tau[r0:r1, None]
        np.divide(z_hat, y, out=y)
        weights[r0:r1] = 1.0 / (1.0 + _sum_squares(y))
    return weights


def _secular_roots(poles, couplings, alpha):
    """Origins and offsets of the n + 1 roots for n sorted, distinct poles
    with nonzero couplings."""
    n = poles.size
    bound = float(np.sqrt(couplings @ couplings))
    origin = np.empty(n + 1, dtype=int)
    tau = np.empty(n + 1)
    for r0, r1, buffers in row_blocks(n + 1, n, buffers=2):
        origin[r0:r1], tau[r0:r1] = _solve_chunk(poles, couplings, alpha, bound, r0, r1, buffers)
    return origin, tau


class ArrowheadEigen:
    """Eigenvalues and photon weights of an arrowhead matrix, with the
    eigenvectors built on request.

    Every eigenvalue is ``diagonal[origin] + offset`` for its nearer pole,
    so an eigenvalue on a deflated pole is that pole exactly.
    ``frequencies_hz`` are ascending; column i of ``eigenvectors`` belongs
    to ``frequencies_hz[i]``, and its rows follow the input order of the
    diagonal, then the corner.
    """

    def __init__(self, diagonal, border, corner: float, shift: float = 0.0):
        diagonal = np.asarray(diagonal, dtype=float)
        border = np.asarray(border, dtype=float)
        if diagonal.shape != border.shape or diagonal.ndim != 1:
            raise ValueError("diagonal and border must be 1-D arrays of equal length")
        self.size = diagonal.size
        poles = diagonal - shift
        alpha = corner - shift
        magnitude = max(np.abs(poles).max(initial=0.0), np.abs(border).max(initial=0.0), abs(alpha))
        if not math.isfinite(magnitude):
            raise ValueError("arrowhead entries must be finite")
        # Solve in units of a power of two near the largest entry: exact,
        # and squares neither underflow nor overflow.
        unit = math.ldexp(1.0, math.frexp(magnitude)[1]) if magnitude > 0.0 else 1.0
        poles, border, alpha = poles / unit, border / unit, alpha / unit
        tol = EPS * math.sqrt(float(poles @ poles + border @ border) + alpha * alpha)

        # Deflation: negligible couplings leave their poles as eigenvalues.
        coupled = np.nonzero(np.abs(border) > tol)[0]
        coupled = coupled[np.argsort(poles[coupled], kind="stable")]
        # Poles closer than tol merge: a reflector I - 2 w w^T puts a run's whole
        # coupling on its last member, and the others deflate like dark modes.
        starts = np.diff(poles[coupled], prepend=-np.inf) > tol
        ends = np.diff(poles[coupled], append=np.inf) > tol
        kept = coupled[ends]
        kept_couplings = border[kept].copy()
        self._runs = []
        if not starts.all():
            group = np.cumsum(starts) - 1
            norms = np.sqrt(np.bincount(group, weights=border[coupled] ** 2))
            for g in np.nonzero(np.bincount(group) > 1)[0]:
                members = coupled[group == g]
                w = border[members] / norms[g]
                sign = 1.0 if w[-1] > 0 else -1.0
                w[-1] += sign
                self._runs.append((members, w / np.linalg.norm(w)))
                kept_couplings[g] = -sign * norms[g]

        n = kept.size
        self._kept, self._kept_poles = kept, poles[kept]
        if n:
            self._origin, self._tau = _secular_roots(self._kept_poles, kept_couplings, alpha)
            self._z_hat = _recomputed_couplings(
                self._kept_poles, kept_couplings, self._origin, self._tau)
            bright_weights = _photon_weights(self._kept_poles, self._z_hat, self._origin, self._tau)
            bright_values = diagonal[kept[self._origin]] + unit * self._tau
        else:  # the photon alone
            self._origin, self._tau = np.zeros(1, dtype=int), np.array([alpha])
            self._z_hat, bright_weights = np.zeros(0), np.ones(1)
            bright_values = np.array([float(corner)])

        # Deflated eigenpairs sit on their own poles, without photon weight.
        deflated = np.ones(self.size, dtype=bool)
        deflated[kept] = False
        self._deflated = np.nonzero(deflated)[0]
        values = np.concatenate([bright_values, diagonal[self._deflated]])
        order = np.argsort(values, kind="stable")
        self.frequencies_hz = values[order]
        weights = np.concatenate([bright_weights, np.zeros(self._deflated.size)])
        self.photon_weights = weights[order]
        # Output column of each bright root, then of each deflated pole.
        self._position = np.empty(order.size, dtype=int)
        self._position[order] = np.arange(order.size)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(N+1, N+1) orthonormal eigenvectors, one column per eigenvalue."""
        dim = self.size + 1
        need = 8.0 * dim * dim
        if need > DENSE_BUDGET_BYTES:
            raise ValueError(
                f"the dense eigenvectors of N = {self.size} modes need {need / 1e9:.3g} GB "
                f"((N+1)^2 float64 values), over the {DENSE_BUDGET_BYTES / 1e9:.3g} GB limit")
        out = np.zeros((dim, dim))
        position, poles, origin, tau = self._position, self._kept_poles, self._origin, self._tau
        for r0, r1, _ in row_blocks(tau.size, poles.size):
            cols = position[r0:r1]
            out[-1, cols] = np.sqrt(self.photon_weights[cols])
            if poles.size:  # exciton amplitudes z_hat_j / (lam - d_j) * sqrt(w)
                amps = self._z_hat / ((poles[origin[r0:r1], None] - poles) + tau[r0:r1, None])
                out[np.ix_(self._kept, cols)] = (amps * out[-1, cols][:, None]).T
        out[self._deflated, position[tau.size:]] = 1.0
        # Back from each run's rotated coordinates, a chunk of rows at a time.
        for members, w in self._runs:
            blocks = list(row_blocks(w.size, dim))
            projection = sum(w[r0:r1] @ out[members[r0:r1]] for r0, r1, _ in blocks)
            for r0, r1, _ in blocks:
                out[members[r0:r1]] -= np.outer(2.0 * w[r0:r1], projection)
        return out

    @cached_property
    def exciton_weights(self) -> np.ndarray:
        """(N+1, N) squared diagonal components, row i <-> eigenvector i."""
        return np.square(self.eigenvectors[:-1, :].T)
