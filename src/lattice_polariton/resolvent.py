"""The flat chain's sine modes, and its resolvent sum S(x) = u^T (x - H)^-1 u.

H is the N-site chain (zero diagonal, hopping J, empty ends) and u is all
ones, so S = sum_k w_k / (x - d_k) over its modes k = 1..N: lines d_k =
2 J cos(theta_k) with theta_k = pi k / (N+1), and weights w_k = 2/(N+1)
cot^2(theta_k / 2) for odd k, 0 for even k.  Every layer takes cos(theta_k)
and tan(theta_k / 2) from ``mode_cosines`` and ``half_tangents``, in the
precision of their ``pi``.  Times the squared site coupling, S is the cavity
self-energy of the flat multimode model (``chain_sum``, complex, for the
spectra) and the sum in its secular function (``chain_sum_near_pole``, real,
for the eigensolve), both O(1) per point for any N (Economou, Green's
Functions in Quantum Physics, ch. 5).
"""

from __future__ import annotations

import numpy as np


def mode_cosines(k, num_sites, pi=np.pi):
    """cos(theta_k) as sin(pi (N+1-2k) / (2(N+1))), from the exact integer
    N+1-2k: full relative precision, and 0 at an odd chain's centre mode."""
    return np.sin(pi * (num_sites + 1 - 2 * k) / (2.0 * (num_sites + 1)))


def half_tangents(k, num_sites, pi=np.pi):
    """tan(theta_k / 2) = tan(pi k / (2(N+1))); k or N may be an array."""
    return np.tan(pi * k / (2.0 * (num_sites + 1)))


def chain_sum(x: np.ndarray, transfer_hz: float, num_sites: int) -> np.ndarray:
    """S(x) at complex offsets x.

    With x = 2 J cosh(s), Re s >= 0, the end-to-end Green's function of the
    chain gives

        S = [N - 2 e^-s expm1(-N s) / (expm1(-s) (1 + e^-(N+1) s))] / (x - 2J),

    O(1) per point for any N.  Next to the band edge x = 2J the bracket
    cancels, to a relative error of about eps / (N^2 |x - 2J| / |J|), which
    Gamma_a/2 bounds (5e-15 at N = 1 with the reference parameters); at the
    edge itself (s = 0) the limit N(N+1)(N+2)/(12 J) is used, and J = 0 (the
    magic angle) gives N/x.  On an odd-k pole, reachable only with
    Gamma_a = 0, S is huge, or not finite when 1 + e^-(N+1)s rounds to 0;
    the caller silences that warning.
    """
    if transfer_hz == 0.0:
        return num_sites / x
    gap = x - 2.0 * transfer_hz
    edge = gap == 0.0
    gap = np.where(edge, transfer_hz, gap)  # any nonzero stand-in at the edge
    s = 2.0 * np.arcsinh(np.sqrt(gap / transfer_hz) / 2.0)  # gap / J = 4 sinh^2(s/2)
    ratio = 2.0 * np.exp(-s) * np.expm1(-num_sites * s) / (
        np.expm1(-s) * (1.0 + np.exp(-(num_sites + 1) * s)))
    edge_value = num_sites * (num_sites + 1) * (num_sites + 2) / (12.0 * transfer_hz)
    return np.where(edge, edge_value, (num_sites - ratio) / gap)


def chain_angles(k: np.ndarray, num_sites: int, dtype=np.float64) -> tuple[np.ndarray, ...]:
    """sin(theta_k), cos(theta_k), the base angle of C and whether C is its
    cotangent (2k <= N+1), for ``chain_sum_near_pole`` at odd modes k, in
    ``dtype``; every angle is taken from the exact integers k and N+1-k."""
    m, below = num_sites + 1, 2 * k <= num_sites + 1
    pi = 4.0 * np.arctan(dtype(1.0))  # np.pi in float64; more in long double
    sin_k, cos_k = np.sin(pi * np.minimum(k, m - k) / m), mode_cosines(k, num_sites, pi)
    return sin_k, cos_k, pi * np.where(below, k, k - m) / (2.0 * m), below


def chain_sum_near_pole(
    angles: tuple[np.ndarray, ...], tau: np.ndarray, transfer_hz: float, num_sites: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, its derivative S' and the size of its terms at the real points
    x = d_k + tau, for odd modes k (their ``chain_angles``) and points
    between the band's outermost odd lines (J != 0).

    Inside the band x = 2 J cos(theta) with theta = theta_k + delta.  For
    odd k, tan((N+1) theta / 2) = -cot((N+1) delta / 2), so with
    C = cot(theta / 2) and T = tan((N+1) delta / 2)

        S  = -(1 + C^2) / (4 J) (N + 1 + C / T),
        S' = -(1 + C^2)^2 / (32 J^2) ((1 + 3 C^2) / (C T) + (N+1) (1 + 3 T^2) / T^2).

    delta comes from tau = -4 J sin(theta_k + delta/2) sin(delta/2), a
    quadratic in tan(delta/2) solved without cancellation, so the pole term
    keeps full relative accuracy however close x is to d_k: the textbook
    form, 1 + e^-(N+1)s, cancels there.  S is accurate to a few eps times
    the size (N + 1 + |C/T|)(1 + C^2) / (4 |J|), and S' to a few eps
    relative (its two terms never cancel by more than half).
    """
    sin_k, cos_k, base, below = angles
    m = num_sites + 1
    q = tau / (-4.0 * transfer_hz)
    # (cos_k - q) t^2 + sin_k t - q = 0 for t = tan(delta/2); its
    # discriminant is sin^2(theta), which stays away from 0 between lines.
    root = np.sqrt(np.maximum(sin_k * sin_k + 4.0 * q * (cos_k - q), 0.0))
    half = np.arctan(2.0 * q / (sin_k + root))
    # Above the middle base is -pi (N+1-k) / 2(N+1), and C = tan(-base - half).
    c = np.tan(np.where(below, base + half, -base - half))
    np.divide(1.0, c, out=c, where=below)
    t = np.tan(m * half)
    ratio = c / t
    scale = (1.0 + c * c) / (4.0 * transfer_hz)
    value = -scale * (m + ratio)
    slope = -scale * scale / 2.0 * ((1.0 + 3.0 * c * c) / (c * t) + m * (1.0 + 3.0 * t * t) / (t * t))
    size = np.abs(scale) * (m + np.abs(ratio))
    return value, slope, size
