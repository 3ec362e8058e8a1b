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
  exact eigenvalue with a unit eigenvector; a run of poles that spans at
  most the same tolerance is reflected (as in LAPACK dlaed2) so that one
  member carries its whole coupling and the others deflate like zero ones.
- Find the roots in one iteration loop per chunk of CHUNK_ROWS roots, one
  chunk at the usual sizes.  Each root is stored as its offset from the
  nearer neighbouring pole (its origin), so the distances lam - d_j keep
  full relative accuracy; the other neighbour's offset from the origin is
  taken with its rounding error.  Interior roots step to the root of a
  two-pole rational model matching f and f' (R.-C. Li's "middle way", the
  method of LAPACK dlaed4; LAPACK Working Note 89, 1993); the two outer
  roots use a one-pole model that keeps the linear term exact.  Every step
  is safeguarded by bisection inside a closed bracket and stops at the
  rounding level of f or of the offset.
- Evaluate the sums in f only for blocks with a root still open, so each
  root is evaluated as often as if its block were iterated alone.  In
  general a block of BLOCK_ROWS interior roots sums the poles within one
  block width of its interval exactly, on scratch shared by all blocks, and
  takes the others from Chebyshev interpolants tabulated for all blocks at
  once (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995; Livne and
  Brandt, ibid. 24, 2002); the two outer roots, and every root of a problem
  whose poles are all near, are summed over every pole.  For the flat chain
  (the ``chain`` argument) the interior sums are the chain's resolvent,
  whose closed form (``resolvent.chain_sum_near_pole``, on angles taken once
  per set of origins) costs O(1) per root; it gives only the total, so the
  model keeps the origin pole's own term exact and gives the rest of f' to
  the other pole (a fixed-weight step).
  Either way the photon weights are 1 / f'(lam) at the roots; in the general
  solve, f' takes z_hat (below) for the few poles where it differs from the
  given coupling by more than PHOTON_MISMATCH, so that weights and
  eigenvectors agree.
- Recompute the couplings from the computed roots (Gu and Eisenstat), so
  that the eigenvectors v ~ [z_hat / (lam - d); 1] are orthogonal to
  working precision (Jakovcevic Stor, Slapnicar and Barlow, Linear Algebra
  Appl. 464, 2015).

Frequencies and photon weights need O(N) memory, and O(N) time for the flat
chain; in general the far-field tables cost FAR_NODES / BLOCK_ROWS pole
sums per root, still O(N^2) but with a small constant.  z_hat costs O(N^2)
time, once for both dense accessors; each builds its own matrix on first
access, a block of eigenvectors at a time, with O(N) memory besides.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .blocks import CHUNK_ELEMENTS, DENSE_BUDGET_BYTES, row_blocks
from .resolvent import chain_angles, chain_sum_near_pole, half_tangents, mode_cosines

EPS = sys.float_info.epsilon
MAX_ITERATIONS = 100
# Relative difference of z_hat from a coupling beyond which the photon weights
# use z_hat (``_slopes_of_recomputed``): under the 1e-12 to which weights and
# eigenvectors agree, over the 1e-13 an envelope chain of N = 5000 reaches.
PHOTON_MISMATCH = 5e-13
# Interior roots per block of the general solve, and the Chebyshev points
# (second kind, on [0, 1]) with their barycentric weights for its far field.
BLOCK_ROWS = 64
FAR_NODES = 24
CHUNK_ROWS = CHUNK_ELEMENTS // 8  # roots per iteration loop, some 230 bytes of state each
_NODES = (1.0 + np.cos(np.pi * np.arange(FAR_NODES) / (FAR_NODES - 1))) / 2.0
_NODE_WEIGHTS = np.where(np.arange(FAR_NODES) % 2, -1.0, 1.0)
_NODE_WEIGHTS[[0, -1]] /= 2.0


def _model_root(c, a, b):
    """Root of c eta^2 - a eta + b = 0 that tends to b / a as c -> 0."""
    root = np.sqrt(np.abs(a * a - 4.0 * b * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            c == 0.0, b / a, np.where(a <= 0.0, (a - root) / (2.0 * c), 2.0 * b / (a + root))
        )


class _Sums:
    """The secular sums of the roots ``rows``, block by block (``_layout``).

    Root i lies between poles i-1 and i, so the terms z_j^2 / (d_j - lam) of
    the poles below its point lam are negative and the others positive: the
    sign splits each sum into psi and phi, and each row is summed on its own,
    whatever rows share its block or chunk.
    """

    def __init__(self, poles, couplings, rows, layout, chain=None):
        first, lo, hi, table, self.refs, self.nodes, self.tables = layout
        units = slice(np.searchsorted(first, rows.start, "right") - 1, np.searchsorted(first, rows.stop))
        self.edges = np.append(np.maximum(first[units], rows.start), rows.stop) - rows.start
        self.sizes = np.diff(self.edges)
        self.units = list(zip(self.edges[:-1], self.edges[1:], lo[units], hi[units]))
        table = np.repeat(table[units], self.sizes)
        self.far = np.flatnonzero(table >= 0)
        self.far_table, self.pole_rows = table[self.far], np.repeat(hi[units] > lo[units], self.sizes)
        self.poles, self.size, self.chain, self.r0 = poles, np.abs(couplings), chain, rows.start
        self.scratch = np.empty(2 * max((b - a) * (h - l) for a, b, l, h in self.units), poles.dtype)
        self.sums = np.empty((5, self.sizes.sum()), poles.dtype)

    def at(self, origin):
        """Measure each row's point from its pole ``origin``, and its other
        neighbour's offset with the rounding error (TwoSum) that weighs near it."""
        self.start, i = self.poles[origin], np.arange(self.r0, self.r0 + origin.size)
        self.other = np.where(origin < i, np.minimum(i, self.poles.size - 1), np.maximum(i - 1, 0))
        offset = self.poles[self.other] - self.start
        back = offset - self.poles[self.other]
        self.rounding = (self.poles[self.other] - (offset - back)) - (self.start + back)
        self.far_start = self.start[self.far] - self.refs[self.far_table]
        if self.chain is not None:
            k, self.weight = self.chain[0][origin], np.square(self.size[origin])
            self.angles = chain_angles(k, self.chain[3], self.poles.dtype.type)
            self.lower = origin < np.arange(self.r0, self.r0 + origin.size)

    def __call__(self, tau, done=None):
        """psi, phi (sums of z_j^2 / (d_j - lam) over the poles below and
        above each row's point lam = d_origin + tau), their derivatives, and
        the size of the terms, as the rows of one reused array; the rows of
        blocks that are all ``done`` keep their values."""
        sums = self.sums
        busy = np.ones(len(self.units), bool) if done is None else ~np.logical_and.reduceat(done, self.edges[:-1])
        for u in np.flatnonzero(busy):
            a, b, lo, hi = self.units[u]
            (self._near if hi > lo else self._closed)(a, b, lo, hi, tau)
        pick = np.flatnonzero(np.repeat(busy, self.sizes)[self.far])
        # Pieces whose gathered (rows x FAR_NODES x 5) tables take half of CHUNK_ELEMENTS.
        for p0, p1, _ in row_blocks(pick.size, 10 * FAR_NODES):
            p, rows = pick[p0:p1], self.far[pick[p0:p1]]
            sums[:4, rows] += _far_field(self.tables, self.nodes, self.far_table[p],
                                         self.far_start[p] + tau[rows])
        np.subtract(sums[1], sums[0], out=sums[4], where=self.pole_rows)
        return sums

    def _near(self, a, b, lo, hi, tau):
        terms = self.scratch[:2 * (b - a) * (hi - lo)].reshape(2, b - a, 1, hi - lo)
        below, above = terms[:, :, 0]
        np.subtract(self.poles[lo:hi], self.start[a:b, None], out=above)
        above -= tau[a:b, None]
        above[np.arange(b - a), self.other[a:b] - lo] += self.rounding[a:b]
        np.divide(self.size[lo:hi], above, out=above)  # |z_j| / (d_j - lam)
        np.minimum(above, 0.0, out=below)
        above -= below
        # One dot product per row and side, whatever rows share the block.
        self.sums[:2, a:b] = np.matmul(terms, self.size[lo:hi, None])[..., 0, 0]
        self.sums[2:4, a:b] = np.matmul(terms, terms.transpose(0, 1, 3, 2))[..., 0, 0]

    def _closed(self, a, b, lo, hi, tau):
        """The flat chain's sums from its resolvent, O(1) per row.  It gives
        the totals only: the origin pole's own term stays on its side, and the
        rest goes to the other, so the two-pole step fixes the origin's weight
        and fits the other pole's (a fixed-weight step, also quadratic)."""
        _, transfer, coupling_sq, num_sites = self.chain
        rows, tau = slice(a, b), tau[a:b]
        value, slope, terms = chain_sum_near_pole([part[rows] for part in self.angles], tau, transfer, num_sites)
        total = -coupling_sq * value  # sum_j z_j^2 / (d_j - lam)
        own = self.weight[rows] / -tau  # the origin's term
        own_slope = own / -tau
        # The rest of f' - 1, which can round below 0 next to the origin.
        rest = np.maximum(-coupling_sq * slope - own_slope, 0.0)
        lower = self.lower[rows]
        psi = np.where(lower, own, total - own)
        # The closed form errs by up to about 4 eps times its size, half of
        # the 8 eps the stopping test allows a pole sum's size.
        self.sums[:, rows] = (psi, total - psi, np.where(lower, own_slope, rest),
                              np.where(lower, rest, own_slope), coupling_sq * terms / 2.0)


def _far_field(tables, nodes, table, t):
    """psi, phi, dpsi and dphi (rows of the result) over the far poles of each
    point's block, at offsets t in [0, width] from the block's reference
    pole: Chebyshev interpolants through its FAR_NODES ``nodes``, in
    barycentric form.  Every far pole lies more than ``width`` from the
    interval, so the interpolants converge like (3 + sqrt 8)^-FAR_NODES."""
    diff = t[:, None] - nodes[table]
    if not diff.all():  # a point on a node takes that node's values
        hit = (diff == 0.0).any(axis=1)
        diff[hit] = np.where(diff[hit] == 0.0, 1.0, np.inf)
    # Each row's weighted values, and in the last column the weights' sum.
    sums = np.matmul((_NODE_WEIGHTS / diff)[:, None, :], tables[table])[:, 0]
    return (sums[:, :4] / sums[:, 4:]).T


def _far_tables(poles, couplings, lo, hi, ref, width):
    """psi, phi, dpsi, dphi and 1 over the poles outside lo..hi-1 of each
    block, at its FAR_NODES points ref + width * _NODES: (blocks, FAR_NODES,
    5).  Terms are offsets from ``ref``, a pole of the block, which keeps
    their relative accuracy, summed pairwise along the poles: a running sum
    would err by 20 eps of these same-sign sums at N = 10^4.  The (block,
    node) rows go through CHUNK_ELEMENTS terms at a time."""
    n, size = poles.size, np.abs(couplings)
    nodes = (width[:, None] * _NODES).ravel()
    block = np.arange(nodes.size) // FAR_NODES
    tables = np.ones((nodes.size, 5))
    for r0, r1, (terms,) in row_blocks(nodes.size, 2 * n, buffers=1):
        x, squares = terms.reshape(2, r1 - r0, n)
        for b in range(block[r0], block[r1 - 1] + 1):
            g0, g1 = max(b * FAR_NODES, r0), min((b + 1) * FAR_NODES, r1)
            np.subtract(poles - ref[b], nodes[g0:g1, None], out=x[g0 - r0:g1 - r0])
            x[g0 - r0:g1 - r0, lo[b]:hi[b]] = np.inf  # the near poles add nothing
        np.divide(size, x, out=x)
        np.multiply(x, x, out=squares)
        x *= size
        # Each row's terms below lo and from lo on, then the same for its squares.
        cuts = n * np.arange(2 * (r1 - r0))[:, None] + lo[np.tile(block[r0:r1], 2), None] * [0, 1]
        sums = np.add.reduceat(terms.ravel(), cuts.ravel()).reshape(2, -1, 2)
        tables[r0:r1, :4] = sums.transpose(1, 0, 2).reshape(-1, 4)
    return tables.reshape(-1, FAR_NODES, 5)


def _layout(poles, couplings, chain=None):
    """The blocks of roots, as arrays of their first roots, near poles lo..hi-1
    and far tables (-1 for none), then the tables' reference poles, nodes and
    values.  The roots 0 and n, beyond the band, are blocks of their own over
    every pole.  With ``chain`` the interior roots are one block with no near
    poles, the closed form.  Otherwise a block of BLOCK_ROWS interior roots
    sums exactly the poles within one block width, in value, of its interval
    [d_{b0-1}, d_{b1-1}], split so that (rows x near poles) fits
    CHUNK_ELEMENTS, and takes the others from a table built once for it: O(N)
    a block, and the near sums O(1) a root."""
    n = poles.size
    inner = np.arange(1, min(n, 2))
    lo = hi = np.zeros_like(inner)
    table, refs, nodes, tables = lo - 1, np.empty(0), np.empty((0, FAR_NODES)), None
    if chain is None:
        b0 = np.arange(1, n, BLOCK_ROWS)
        ref, top = poles[b0 - 1], poles[np.minimum(b0 + BLOCK_ROWS, n) - 1]
        lo, hi = np.searchsorted(poles, (2.0 * ref - top, 2.0 * top - ref))
        far = (lo > 0) | (hi < n)
        refs, width = ref[far], (top - ref)[far]
        nodes, tables = width[:, None] * _NODES, _far_tables(poles, couplings, lo[far], hi[far], refs, width)
        step = np.maximum(1, CHUNK_ELEMENTS // (hi - lo))
        inner = np.array([r for a, s in zip(b0, step) for r in range(a, min(a + BLOCK_ROWS, n), s)], int)
        block = np.searchsorted(b0, inner, "right") - 1
        lo, hi, table = lo[block], hi[block], np.where(far, np.cumsum(far) - 1, -1)[block]
    ends = lambda values, below, above: np.concatenate([[below], values, [above]])
    return ends(inner, 0, n), ends(lo, 0, 0), ends(hi, n, n), ends(table, -1, -1), refs, nodes, tables


def _chunks(poles, couplings, chain=None):
    """The roots CHUNK_ROWS at a time, each chunk with its evaluator."""
    layout = _layout(poles, couplings, chain)
    for r0 in range(0, poles.size + 1, CHUNK_ROWS):
        rows = slice(r0, min(r0 + CHUNK_ROWS, poles.size + 1))
        yield rows, _Sums(poles, couplings, rows, layout, chain)


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
    the iteration (``_layout`` with ``chain``), on long-double copies.
    """
    modes, transfer, coupling_sq, num_sites = chain
    wide = np.longdouble
    transfer, coupling_sq, pi = wide(transfer), wide(coupling_sq), 4.0 * np.arctan(wide(1.0))
    lines = 2.0 * transfer * mode_cosines(modes, num_sites, pi)
    couplings = np.sqrt(coupling_sq * 2.0 / (num_sites + 1)) / half_tangents(modes, num_sites, pi)
    tau, slope = tau.copy(), np.empty(tau.size)
    for rows, secular in _chunks(lines, couplings, (modes, transfer, coupling_sq, num_sites)):
        secular.at(origin[rows])
        start = tau[rows].astype(wide)
        psi, phi, dpsi, dphi, _ = secular(start)
        step = start - (lines[origin[rows]] - alpha + start + psi + phi) / (1.0 + dpsi + dphi)
        tau[rows] = np.where(step * start > 0.0, step, start)  # on tau's side of the origin
        _, _, dpsi, dphi, _ = secular(tau[rows].astype(wide))
        slope[rows] = 1.0 + dpsi + dphi
    return tau, slope


def _solve_chunk(poles, alpha, bound, r0, r1, secular):
    """Origins, offsets, slopes f' and error bounds of roots r0..r1-1 of the
    deflated problem; ``secular`` evaluates the sums of these rows.  Each
    row's last evaluation is at its returned offset, and its error bound is
    twice the rounding level of f there over f'."""
    n = poles.size
    i = np.arange(r0, r1)
    first, last = i == 0, i == n
    interior = ~(first | last)
    lower, upper = np.maximum(i - 1, 0), np.minimum(i, n - 1)
    gap = poles[upper] - poles[lower]
    # Brackets and start points as offsets from each root's lower pole
    # (from pole 0 for the root below the band): interior roots start at
    # the middle of their gap, outer roots at the middle of the interval
    # between the end pole and the Weyl bound.  That bound is reached for one
    # pole on the corner, so it is taken in offsets and widened past its
    # rounding: from the rounded point d_0 - |z| the root of d_0 = alpha,
    # z = 1e-14 lay 4e-18 out of the bracket, and the step stalled there.
    origin = np.where(first, 0, lower)
    widen = 1.0 + 4.0 * EPS
    lo = np.where(first, (min(0.0, alpha - poles[0]) - bound) * widen, 0.0)
    hi = np.where(last, (max(0.0, alpha - poles[-1]) + bound) * widen, np.where(first, 0.0, gap))
    tau = (lo + hi) / 2.0

    # At the offset itself: the rounded point poles[origin] + tau can lie past
    # a root between close poles, and a bracket from its sign would miss it.
    secular.at(origin)
    psi, phi, dpsi, dphi, size = secular(tau)
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
    lower_off, upper_off = poles[lower] - poles[origin], poles[upper] - poles[origin]
    del i, interior, lower, upper, gap, moved
    end_first, end_last = poles[0] - alpha, poles[-1] - alpha
    done = f == 0.0
    for _ in range(MAX_ITERATIONS):
        # Interior roots: two-pole model through f and f'.
        d_lo = lower_off - tau
        d_hi = upper_off - tau
        # The linear term's slope is given to the pole that is not the origin.
        c = f - d_lo * (dpsi + switch) - d_hi * (dphi + ~switch)
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
        del d_lo, d_hi, c, a, b, step, s, p, root, u, ok  # before the sums' own temporaries
        psi, phi, dpsi, dphi, size = secular(tau, done)
        f = base + tau + psi + phi
        hi = np.where(f > 0.0, tau, hi)
        lo = np.where(f < 0.0, tau, lo)
        error = _rounding(size, base, tau, dpsi, dphi)
        done |= (np.abs(f) <= error) | (hi - lo <= 2.0 * EPS * np.maximum(np.abs(lo), np.abs(hi)))
    slope = 1.0 + dpsi + dphi
    return origin, tau, slope, 2.0 * _rounding(size, base, tau, dpsi, dphi) / slope


def _rounding(size, base, tau, dpsi, dphi):
    """The rounding level of f = base + tau + psi + phi."""
    return EPS * (8.0 * size + 2.0 * np.abs(base) + np.abs(tau) * (1.0 + dpsi + dphi))


def _recomputed_couplings(poles, couplings, origin, tau, rows=None):
    """Couplings z_hat for which the computed roots are exact eigenvalues
    (Gu-Eisenstat): z_hat_j^2 = -prod_k (lam_k - d_j) / prod_{k != j} (d_k - d_j),
    for the poles ``rows`` (every pole by default).  Each d_k pairs with
    lam_k below d_j and with lam_{k+1} above it, so every ratio lies between
    one and the ratio of neighbouring gaps."""
    n = poles.size
    rows = np.arange(n) if rows is None else rows
    z_hat = np.empty(rows.size)
    root_poles = poles[origin]
    for r0, r1, (lam_minus_d, ratios) in row_blocks(rows.size, n + 1, buffers=2):
        j = rows[r0:r1, None]
        pole = poles[j]
        np.subtract(root_poles[None, :], pole, out=lam_minus_d)
        lam_minus_d += tau
        ratios = np.subtract(poles[None, :], pole, out=ratios[:, :n])
        ratios[np.arange(r1 - r0), j[:, 0]] = 1.0
        below = np.arange(n)[None, :] < j
        np.divide(np.where(below, lam_minus_d[:, :n], lam_minus_d[:, 1:]), ratios, out=ratios)
        product = np.prod(ratios, axis=1)
        z_hat[r0:r1] = np.sqrt(np.abs(np.take_along_axis(lam_minus_d, j, 1)[:, 0] * product))
    return np.copysign(z_hat, couplings[rows])


def _slopes_of_recomputed(poles, couplings, origin, tau, slope, error):
    """f' at the roots with the couplings z_hat of the eigenvectors: f' plus
    sum_j (z_hat_j^2 - z_j^2) / (lam - d_j)^2 over the poles whose z_hat
    differs from z_j by more than PHOTON_MISMATCH, relatively, so that the
    photon weights 1 / f' agree with the eigenvectors.

    z_hat_j / z_j - 1 is about sum_k (error of lam_k) / (2 (lam_k - d_j)),
    where the two roots next to d_j dominate; their error bounds screen the
    poles, and z_hat, at O(N) a pole, decides.  It is large only where a
    root lies within about its error over PHOTON_MISMATCH of a pole: a
    weakly coupled pole that the photon line of the others crosses, split
    into two roots about 2 |z_j| apart, whose weights 1 / f' with the given
    z_j are then as uncertain as those offsets, relatively.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(tau == 0.0, 0.0, error / np.abs(tau))
    loose = np.nonzero(relative[:-1] + relative[1:] > PHOTON_MISMATCH)[0]
    if loose.size:
        z_hat = _recomputed_couplings(poles, couplings, origin, tau, loose)
        off = np.abs(z_hat - couplings[loose]) > PHOTON_MISMATCH * np.abs(couplings[loose])
        loose, z_hat = loose[off], z_hat[off]
    if not loose.size:
        return slope
    change = (z_hat - couplings[loose]) * (z_hat + couplings[loose])
    slope = slope.copy()
    for r0, r1, _ in row_blocks(tau.size, loose.size):
        distance = (poles[origin[r0:r1], None] - poles[loose]) + tau[r0:r1, None]
        slope[r0:r1] += np.sum(change / np.square(distance), axis=1)
    return slope


def _secular_roots(poles, couplings, alpha, chain=None):
    """Origins, offsets, slopes f' and error bounds of the n + 1 roots for n
    sorted, distinct poles with nonzero couplings, one iteration per chunk
    of roots; ``chain`` takes the interior roots' sums from its closed form."""
    bound = float(np.sqrt(couplings @ couplings))
    chunks = [_solve_chunk(poles, alpha, bound, rows.start, rows.stop, secular)
              for rows, secular in _chunks(poles, couplings, chain)]
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


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
    flat chain's lines 2 J ``mode_cosines`` and couplings g sqrt(2/(N+1)) /
    ``half_tangents``, zero for even k, in the order k = 1..N.  When every
    odd mode stays coupled and none merge, the secular sums then come from
    the chain's closed form, so the frequencies and photon weights cost
    O(N) time.
    """

    def __init__(self, diagonal, border, corner: float, shift: float = 0.0, chain=None):
        diagonal = np.asarray(diagonal, dtype=float)
        border = np.asarray(border, dtype=float)
        if diagonal.shape != border.shape or diagonal.ndim != 1:
            raise ValueError("diagonal and border must be 1-D arrays of equal length")
        self.size = diagonal.size
        magnitude = np.abs(np.concatenate([diagonal, border, [corner]])).max()
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
        values = poles[coupled]
        starts = np.diff(values, prepend=-np.inf) > tol
        # A run must span at most tol, not merely step by at most tol, or the
        # merge moves its lower members by many tol.  Longer chains split from
        # the top, so the members that keep their couplings stay over tol apart.
        first = np.nonzero(starts)[0]
        last = np.append(first[1:], values.size) - 1
        for a, top in zip(first[last > first], last[last > first]):  # runs of two or more
            while values[top] - values[a] > tol:
                top = a + int(np.searchsorted(values[a:top], values[top] - tol))
                starts[top] = True
                top -= 1
        ends = np.append(starts[1:], True)[:values.size]
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
        del poles, border, coupled, values, starts, first, last, ends  # only the kept ones are solved
        # The closed form is the sum over every odd mode of the chain.
        self._closed = n > 0 and chain is not None and not self._runs and n == (self.size + 1) // 2
        if self._closed:
            transfer, coupling = chain
            chain = (kept + 1, transfer / unit, (coupling / unit) ** 2, self.size)
            self._origin, tau, _, _ = _secular_roots(self._kept_poles, kept_couplings, alpha, chain)
            self._tau, slope = _polish(alpha, chain, self._origin, tau)
        elif n:
            self._origin, self._tau, slope, error = _secular_roots(
                self._kept_poles, kept_couplings, alpha)
            slope = _slopes_of_recomputed(self._kept_poles, kept_couplings, self._origin,
                                          self._tau, slope, error)
        else:  # the photon alone
            self._origin, self._tau, slope = np.zeros(1, dtype=int), np.array([alpha]), np.ones(1)
        bright_weights = 1.0 / slope
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
    def _vector_roots(self):
        """Origins, offsets and z_hat of the eigenvectors, for both dense accessors, on the pole sums'
        roots: the closed form's exact lines would miss A v = lam v by 1e-12 of ||A|| at N = 2000."""
        poles, couplings, alpha = self._kept_poles, self._kept_couplings, self._alpha
        origin, tau = _secular_roots(poles, couplings, alpha)[:2] if self._closed else (self._origin, self._tau)
        return origin, tau, _recomputed_couplings(poles, couplings, origin, tau) if poles.size else couplings

    def _dense(self, rows, name, shape, write):
        """The first ``rows`` rows of the eigenvectors through ``write``, a block of columns at a time:
        the bright vectors on the kept rows and runs' deflated members, then the deflated ones."""
        if (need := 8.0 * rows * (self.size + 1)) > DENSE_BUDGET_BYTES:
            raise ValueError(f"the dense {name} of N = {self.size} modes need {need / 1e9:.3g} GB ({shape} "
                             f"float64 values), over the {DENSE_BUDGET_BYTES / 1e9:.3g} GB limit")
        out, (origin, tau, z_hat) = np.zeros((rows, self.size + 1)), self._vector_roots
        poles, position, n = self._kept_poles, self._position, self._kept_poles.size
        bright = np.concatenate([self._kept, *(m[:-1] for m, _ in self._runs)])
        slot = np.empty(self.size, dtype=int)
        slot[bright] = np.arange(bright.size)
        # Runs' I - 2 w w^T: a bright vector is zero on deflated members, so w^T v is the last one's times w's.
        members = np.concatenate([np.zeros(0, dtype=int), *(m for m, _ in self._runs)])
        ws = np.concatenate([np.zeros(0), *(w for _, w in self._runs)])
        last = np.cumsum(sizes := [m.size for m, _ in self._runs], dtype=int).repeat(sizes) - 1
        spread, lead, w_lead = slot[members], slot[members[last]], ws[last]
        for r0, r1, _ in row_blocks(tau.size, bright.size):
            values, photon = np.empty((r1 - r0, bright.size)), np.ones(r1 - r0)
            values[:, n:] = 0.0  # the runs' deflated members
            if n:  # [z_hat_j / (lam - d_j); 1], normalized
                amps = z_hat / ((poles[origin[r0:r1], None] - poles) + tau[r0:r1, None])
                photon = np.sqrt(1.0 / (1.0 + np.einsum("ij,ij->i", amps, amps)))
                np.multiply(amps, photon[:, None], out=values[:, :n])
            values[:, spread] -= (values[:, lead] * w_lead) * (2.0 * ws)
            out[bright[:, None], position[r0:r1]] = write(values.T)
            out[self.size:, position[r0:r1]] = photon  # the photon row, if it is one of ``rows``
        out[self._deflated, position[tau.size:]] = 1.0
        for m, w in self._runs:  # the run's deflated members: the reflector's columns e_i - 2 w w_i
            for c0, c1, _ in row_blocks(m.size - 1, m.size):
                values = np.eye(m.size, c1 - c0, -c0) - np.outer(2.0 * w, w[c0:c1])
                out[m[:, None], position[tau.size + np.searchsorted(self._deflated, m[c0:c1])]] = write(values)
        return out

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(N+1, N+1) orthonormal eigenvectors, one column per eigenvalue."""
        return self._dense(self.size + 1, "eigenvectors", "(N+1)^2", np.asarray)

    @cached_property
    def exciton_weights(self) -> np.ndarray:
        """(N+1, N) squared diagonal components, row i <-> eigenvector i."""
        return self._dense(self.size, "exciton weights", "(N+1) x N", np.square).T
