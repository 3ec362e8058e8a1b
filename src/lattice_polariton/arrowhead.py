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

- Work in offsets from a reference ``shift`` (the bare atomic line), which
  is added to each eigenvalue last, so the poles and the corner are small
  numbers with full relative precision.
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
- Evaluate the sums in f one of two ways.  In general they are summed over
  the poles, O(N) per root.  For the flat chain (the ``chain`` argument)
  the sum is the chain's resolvent, whose closed form
  (``resolvent.chain_sum_near_pole``) costs O(1) per root; it gives only
  the total, so the model keeps the origin pole's own term exact and gives
  the rest of f' to the other pole (a fixed-weight step), and the photon
  weights are 1 / f'(lam).
- Recompute the couplings from the computed roots (Gu and Eisenstat, SIAM
  J. Matrix Anal. Appl. 16, 1995), so that the eigenvectors
  v ~ [z_hat / (lam - d); 1] are orthogonal to working precision
  (Jakovcevic Stor, Slapnicar and Barlow, Linear Algebra Appl. 464, 2015).
  The photon weights of the pole-sum solve come from z_hat too: from the
  original couplings they are not backward stable.

Frequencies and photon weights need O(N) memory, and O(N) time for the flat
chain, O(N^2) otherwise; z_hat costs O(N^2) and the dense eigenvector matrix
O(N^2) memory, so both are built only on request.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .blocks import DENSE_BUDGET_BYTES, row_blocks
from .resolvent import chain_sum_near_pole

EPS = sys.float_info.epsilon
MAX_ITERATIONS = 100


def _model_root(c, a, b):
    """Root of c eta^2 - a eta + b = 0 that tends to b / a as c -> 0."""
    root = np.sqrt(np.abs(a * a - 4.0 * b * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            c == 0.0, b / a, np.where(a <= 0.0, (a - root) / (2.0 * c), 2.0 * b / (a + root))
        )


class _PoleSums:
    """The secular sums of one chunk of roots r0..r1-1, summed over the
    poles in two reused (rows x n) buffers.  Root i lies between poles i-1
    and i, so for row i the poles j < i are below the current point and the
    poles j >= i above."""

    def __init__(self, poles, couplings, r0, r1, buffers):
        n = couplings.size
        self.poles, self.couplings = poles, couplings
        self.r0, self.mix_end = r0, min(r1, n)
        rows = np.arange(r0, r1)[:, None]
        self.below_mix = (np.arange(r0, self.mix_end)[None, :] < rows).astype(float)
        self.offsets, self.buffer = buffers

    def at(self, origin):
        """Measure each row's point from its pole ``origin``."""
        np.subtract(self.poles[None, :], self.poles[origin][:, None], out=self.offsets)

    def __call__(self, tau):
        """psi, phi (sums of z_j^2 / (d_j - lam) over the poles below and
        above each row's point lam = d_origin + tau), their derivatives, and
        the size of the terms, phi - psi."""
        y = np.subtract(self.offsets, tau[:, None], out=self.buffer)
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
        return psi, phi, dpsi, dphi, phi - psi


def _sum_squares(block):
    return np.einsum("ij,ij->i", block, block)


def _pole_sums(poles, couplings):
    n = poles.size
    for r0, r1, buffers in row_blocks(n + 1, n, buffers=2):
        yield r0, r1, _PoleSums(poles, couplings, r0, r1, buffers)


class _ChainSums:
    """The secular sums of one chunk of interior roots for the poles of a
    flat chain, from its resolvent in closed form: O(1) per row.

    The closed form gives the totals only.  The split keeps the origin
    pole's own term on its side and puts the rest on the other, so the
    two-pole step fixes the origin's weight and fits the other pole's
    (a fixed-weight step, also quadratically convergent).
    """

    def __init__(self, couplings, chain, r0, r1):
        self.couplings = couplings
        self.modes, self.transfer, self.coupling_sq, self.num_sites = chain
        self.rows = np.arange(r0, r1)

    def at(self, origin):
        self.k = self.modes[origin]
        self.weight = np.square(self.couplings[origin])
        self.lower = origin < self.rows

    def __call__(self, tau):
        value, slope, terms = chain_sum_near_pole(self.k, tau, self.transfer, self.num_sites)
        total = -self.coupling_sq * value  # sum_j z_j^2 / (d_j - lam)
        own = self.weight / -tau  # the origin's term
        own_slope = own / -tau
        # The rest of f' - 1, which can round below 0 next to the origin.
        rest = np.maximum(-self.coupling_sq * slope - own_slope, 0.0)
        psi = np.where(self.lower, own, total - own)
        dpsi = np.where(self.lower, own_slope, rest)
        dphi = np.where(self.lower, rest, own_slope)
        # The closed form errs by up to about 4 eps times its size, half of
        # the 8 eps the stopping test allows a pole sum's size.
        return psi, total - psi, dpsi, dphi, self.coupling_sq * terms / 2.0


def _chain_sums(poles, couplings, chain):
    """The closed form for the interior roots, in chunks of CHUNK_ELEMENTS
    rows with no (rows x n) buffer; the two outer roots, which may lie next
    to a band edge where the closed form cancels, are summed over the poles
    at O(N) each."""
    n = poles.size

    def outer(row):
        buffers = [np.empty((1, n), poles.dtype), np.empty((1, n), poles.dtype)]
        return row, row + 1, _PoleSums(poles, couplings, row, row + 1, buffers)
    yield outer(0)
    for r0, r1, _ in row_blocks(n - 1, 1):
        yield r0 + 1, r1 + 1, _ChainSums(couplings, chain, r0 + 1, r1 + 1)
    yield outer(n)


def _polish(alpha, chain, origin, tau):
    """One Newton step on each root of a flat chain, in long double and on
    the chain's exact lines and couplings, and f' at the result.

    In double precision f rounds to about eps times its largest terms,
    g^2 N / |J| for the chain's superradiant line, which leaves the photon
    weights 1/f' of an N = 20,000 chain off by up to 1e-12; the given lines
    are rounded too, by up to an ulp of the band.  From roots that close,
    one step with sums 2000 times finer (where the platform's long double
    has 64 bits) lands on the chain's root to working precision, and the
    weights of all roots sum to 1 within a few eps.  The sums are those of
    the iteration (``_chain_sums``), evaluated on long-double copies.
    """
    modes, transfer, coupling_sq, num_sites = chain
    wide = np.longdouble
    transfer, coupling_sq, m = wide(transfer), wide(coupling_sq), num_sites + 1
    pi = 4.0 * np.arctan(wide(1.0))
    lines = 2.0 * transfer * np.sin(pi * (m - 2 * modes) / (2.0 * m))
    couplings = np.sqrt(coupling_sq * 2.0 / m) / np.tan(pi * modes / (2.0 * m))
    tau, slope = tau.copy(), np.empty(tau.size)
    for r0, r1, secular in _chain_sums(lines, couplings, (modes, transfer, coupling_sq, num_sites)):
        rows = slice(r0, r1)
        secular.at(origin[rows])
        start = tau[rows].astype(wide)
        psi, phi, dpsi, dphi, _ = secular(start)
        step = start - (lines[origin[rows]] - alpha + start + psi + phi) / (1.0 + dpsi + dphi)
        tau[rows] = np.where(step * start > 0.0, step, start)  # on tau's side of the origin
        _, _, dpsi, dphi, _ = secular(tau[rows].astype(wide))
        slope[rows] = 1.0 + dpsi + dphi
    return tau, slope


def _solve_chunk(poles, alpha, bound, r0, r1, secular):
    """Origins and offsets of roots r0..r1-1 of the deflated problem;
    ``secular`` evaluates the sums of these rows."""
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

    # At the offset itself: the rounded point poles[origin] + tau can lie past
    # a root between close poles, and a bracket from its sign would miss it.
    secular.at(origin)
    psi, phi, dpsi, dphi, _ = secular(tau)
    f = poles[origin] - alpha + tau + psi + phi
    hi = np.where(f > 0.0, tau, hi)
    lo = np.where(f < 0.0, tau, lo)
    # Interior roots past the middle are measured from their upper pole.
    switch = interior & (f < 0.0)
    origin = np.where(switch, upper, origin)
    moved = np.where(switch, gap, 0.0)
    tau, lo, hi = tau - moved, lo - moved, hi - moved
    secular.at(origin)
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
        psi, phi, dpsi, dphi, size = secular(tau)
        f = base + tau + psi + phi
        hi = np.where(f > 0.0, tau, hi)
        lo = np.where(f < 0.0, tau, lo)
        error = EPS * (8.0 * size + 2.0 * np.abs(base) + np.abs(tau) * (1.0 + dpsi + dphi))
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


def _secular_roots(poles, couplings, alpha, blocks):
    """Origins and offsets of the n + 1 roots for n sorted, distinct poles
    with nonzero couplings; ``blocks`` yields each chunk of rows with its
    evaluator of the sums."""
    n = poles.size
    bound = float(np.sqrt(couplings @ couplings))
    origin = np.empty(n + 1, dtype=int)
    tau = np.empty(n + 1)
    for r0, r1, secular in blocks:
        origin[r0:r1], tau[r0:r1] = _solve_chunk(poles, alpha, bound, r0, r1, secular)
    return origin, tau


class ArrowheadEigen:
    """Eigenvalues and photon weights of the arrowhead matrix A + shift I,
    with the eigenvectors built on request.

    The entries of A are best given as offsets from ``shift`` (the atomic
    line, say), which is added to each eigenvalue last.  Every eigenvalue
    is ``shift + (diagonal[origin] + offset)`` for its nearer pole, so an
    eigenvalue on a deflated pole is ``shift + diagonal[j]`` exactly.
    ``frequencies_hz`` are ascending; column i of ``eigenvectors`` belongs
    to ``frequencies_hz[i]``, and its rows follow the input order of the
    diagonal, then the corner.

    ``chain = (J, g)`` declares the diagonal and border to be the N-site
    flat chain's lines 2 J cos(pi k / (N+1)) and couplings
    g sqrt(2/(N+1)) cot(pi k / (2(N+1))), zero for even k, in the order
    k = 1..N.  When every odd mode stays coupled and none merge, the secular
    sums then come from the chain's closed form, so the frequencies and
    photon weights cost O(N) time.
    """

    def __init__(self, diagonal, border, corner: float, shift: float = 0.0, chain=None):
        diagonal = np.asarray(diagonal, dtype=float)
        border = np.asarray(border, dtype=float)
        if diagonal.shape != border.shape or diagonal.ndim != 1:
            raise ValueError("diagonal and border must be 1-D arrays of equal length")
        self.size = diagonal.size
        magnitude = max(np.abs(diagonal).max(initial=0.0), np.abs(border).max(initial=0.0),
                        abs(corner))
        if not math.isfinite(magnitude):
            raise ValueError("arrowhead entries must be finite")
        # Solve in units of a power of two near the largest entry: exact,
        # and squares neither underflow nor overflow.
        unit = math.ldexp(1.0, math.frexp(magnitude)[1]) if magnitude > 0.0 else 1.0
        poles, border, alpha = diagonal / unit, border / unit, corner / unit
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
        self._kept, self._kept_poles, self._kept_couplings = kept, poles[kept], kept_couplings
        self._alpha = alpha
        # The closed form is the sum over every odd mode of the chain.
        self._closed = n > 0 and chain is not None and not self._runs and n == (self.size + 1) // 2
        if self._closed:
            transfer, coupling = chain
            chain = (kept + 1, transfer / unit, (coupling / unit) ** 2, self.size)
            self._origin, tau = _secular_roots(
                self._kept_poles, kept_couplings, alpha,
                _chain_sums(self._kept_poles, kept_couplings, chain))
            self._tau, slope = _polish(alpha, chain, self._origin, tau)
            bright_weights = 1.0 / slope
        elif n:
            self._origin, self._tau = _secular_roots(
                self._kept_poles, kept_couplings, alpha, _pole_sums(self._kept_poles, kept_couplings))
            bright_weights = self._vectors[3]
        else:  # the photon alone
            self._origin, self._tau = np.zeros(1, dtype=int), np.array([alpha])
            bright_weights = np.ones(1)
        bright_values = diagonal[kept[self._origin]] + unit * self._tau if n else np.array([corner])

        # Deflated eigenpairs sit on their own poles, without photon weight.
        deflated = np.ones(self.size, dtype=bool)
        deflated[kept] = False
        self._deflated = np.nonzero(deflated)[0]
        values = np.concatenate([bright_values, diagonal[self._deflated]])
        values += shift
        order = np.argsort(values, kind="stable")
        self.frequencies_hz = values[order]
        weights = np.concatenate([bright_weights, np.zeros(self._deflated.size)])
        self.photon_weights = weights[order]
        # Output column of each bright root, then of each deflated pole.
        self._position = np.empty(order.size, dtype=int)
        self._position[order] = np.arange(order.size)

    @cached_property
    def _vectors(self):
        """Origins, offsets, recomputed couplings z_hat and photon weights of
        the bright roots that the eigenvectors are built from, in O(N^2)
        time.  The closed form's roots are those of the chain's exact lines,
        which differ from the rounded diagonal by up to an ulp of the band;
        z_hat would absorb that difference and miss A v = lam v by 1e-12 of
        ||A|| at N = 2000, so the vectors come from the pole sums' roots."""
        if not self._kept.size:
            return self._origin, self._tau, np.zeros(0), np.ones(1)
        poles, couplings = self._kept_poles, self._kept_couplings
        origin, tau = self._origin, self._tau
        if self._closed:
            origin, tau = _secular_roots(poles, couplings, self._alpha, _pole_sums(poles, couplings))
        z_hat = _recomputed_couplings(poles, couplings, origin, tau)
        return origin, tau, z_hat, _photon_weights(poles, z_hat, origin, tau)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(N+1, N+1) orthonormal eigenvectors, one column per eigenvalue."""
        dim = self.size + 1
        need = 8.0 * dim * dim
        if need > DENSE_BUDGET_BYTES:
            raise ValueError(
                f"the dense eigenvectors of N = {self.size} modes need {need / 1e9:.3g} GB "
                f"((N+1)^2 float64 values), over the {DENSE_BUDGET_BYTES / 1e9:.3g} GB limit")
        origin, tau, z_hat, weights = self._vectors
        out = np.zeros((dim, dim))
        position, poles = self._position, self._kept_poles
        for r0, r1, _ in row_blocks(tau.size, poles.size):
            cols = position[r0:r1]
            photon = np.sqrt(weights[r0:r1])
            out[-1, cols] = photon
            if poles.size:  # exciton amplitudes z_hat_j / (lam - d_j) * sqrt(w)
                amps = z_hat / ((poles[origin[r0:r1], None] - poles) + tau[r0:r1, None])
                out[np.ix_(self._kept, cols)] = (amps * photon[:, None]).T
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
