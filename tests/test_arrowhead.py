"""The arrowhead secular solver against the dense eigensolver it replaced.

The oracle is the former dense path of multimode_diagonalize: split off
the zero couplings, then np.linalg.eigh on the coupled block bordered by
the photon.  It is O(N^3), so it is used for N <= 2000 only.
"""

import hashlib
import math
import tracemalloc
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lattice_polariton import (
    MAGIC_ANGLE_RAD,
    SystemParams,
    cavity_frequency,
    envelope_mode_couplings,
    exciton_energies,
    mode_coupling_array,
    multimode_diagonalize,
    site_coupling,
    superradiant_coupling,
    transfer_parameter,
)
from lattice_polariton import arrowhead
from lattice_polariton.arrowhead import (
    _NODES,
    DENSE_BUDGET_BYTES,
    ArrowheadEigen,
    _chunks,
    _far_field,
    _far_tables,
    _layout,
    _recomputed_couplings,
    _secular_roots,
    _Sums,
)
from lattice_polariton.blocks import row_blocks
from lattice_polariton.exciton import exciton_shifts
from lattice_polariton.resolvent import chain_angles, chain_sum_near_pole
import oracles
from oracles import PoleSums, block_sums, roots_by_block, whole_row_sums


def dense_bordered(diagonal, border, corner):
    """(values, vectors) of [[diag(d), z], [z^T, corner]] by dense eigh on
    the coupled block; zero-coupling modes are exact unit eigenpairs."""
    diagonal = np.asarray(diagonal, dtype=float)
    border = np.asarray(border, dtype=float)
    n = diagonal.size
    coupled = np.nonzero(border != 0.0)[0]
    dark = np.nonzero(border == 0.0)[0]
    dim = coupled.size + 1
    block = np.zeros((dim, dim))
    block[np.arange(dim - 1), np.arange(dim - 1)] = diagonal[coupled]
    block[-1, -1] = corner
    block[:-1, -1] = block[-1, :-1] = border[coupled]
    block_values, block_vectors = np.linalg.eigh(block)
    values = np.concatenate([block_values, diagonal[dark]])
    vectors = np.zeros((n + 1, n + 1))
    vectors[np.ix_(np.concatenate([coupled, [n]]), np.arange(dim))] = block_vectors
    vectors[dark, dim + np.arange(dark.size)] = 1.0
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def arrowhead_matrix(poles, couplings, corner):
    matrix = np.diag(np.concatenate([poles, [corner]]))
    matrix[:-1, -1] = matrix[-1, :-1] = couplings
    return matrix


def assert_eigen_equation(matrix, solution):
    """max |A V - V Lambda| within 1e-13 of ||A||_2: orthonormal vectors
    alone do not show that they belong to A.  For a subnormal matrix that
    bound rounds to 0, below the float64 quantum, so it is floored at one
    smallest subnormal per row of the product's sums."""
    vectors = solution.eigenvectors
    residual = matrix @ vectors - vectors * solution.frequencies_hz
    floor = matrix.shape[0] * np.finfo(float).smallest_subnormal
    assert np.abs(residual).max() <= max(1e-13 * np.linalg.norm(matrix, 2), floor)


def magic_problem(num_sites):
    """The flat chain at the magic angle in offsets from the atomic line:
    J -> 0, so every bright pole coincides and they merge into one run."""
    params = SystemParams(num_sites=num_sites, theta_rad=MAGIC_ANGLE_RAD)
    shift = params.atom_frequency_hz
    return (exciton_energies(params) - shift, mode_coupling_array(params),
            cavity_frequency(params) - shift)


def oracle(params, envelope):
    """Dense multimode frequencies and photon weights of the matrix in
    offsets from the atomic line, which is added last, like the solver."""
    shift = params.atom_frequency_hz
    couplings = envelope_mode_couplings(params) if envelope else mode_coupling_array(params)
    values, vectors = dense_bordered(
        exciton_shifts(params), couplings, cavity_frequency(params) - shift)
    return values + shift, vectors[-1] ** 2


CASES = [
    (1, 0.0),
    (2, 0.3),
    (7, 1e-6),
    (400, 1e-6),
    (401, math.radians(40.0)),
    (2000, math.radians(40.0)),
    (300, MAGIC_ANGLE_RAD),
    (301, MAGIC_ANGLE_RAD - 1e-6),
    (250, MAGIC_ANGLE_RAD + 1e-9),
]


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("envelope", [False, True], ids=["flat", "envelope"])
    @pytest.mark.parametrize("num_sites, theta", CASES)
    def test_frequencies_and_weights(self, num_sites, theta, envelope):
        params = SystemParams(num_sites=num_sites, theta_rad=theta)
        result = multimode_diagonalize(params, include_envelope=envelope)
        frequencies, photon = oracle(params, envelope)
        # Both round to the absolute 4e14 Hz grid (0.06 Hz) at the end.
        tol = 1e-13 * params.atom_frequency_hz
        assert np.abs(result.frequencies_hz - frequencies).max() <= tol
        assert np.all(np.diff(result.frequencies_hz) >= 0.0)
        assert np.abs(result.photon_weights - photon).max() < 1e-9
        totals = result.photon_weights + result.exciton_weights.sum(axis=1)
        assert np.abs(totals - 1.0).max() < 1e-12

    def test_single_site_eigenvectors_match_oracle_up_to_sign(self):
        params = SystemParams(num_sites=1)
        result = multimode_diagonalize(params)
        shift = params.atom_frequency_hz
        _, vectors = dense_bordered(exciton_energies(params) - shift, mode_coupling_array(params),
                                    cavity_frequency(params) - shift)
        np.testing.assert_allclose(np.abs(result.eigenvectors), np.abs(vectors), atol=1e-14)


class TestRefusals:
    @pytest.mark.parametrize("diagonal, border", [([1.0, 2.0], [1.0]), ([[1.0]], [[1.0]])],
                             ids=["lengths", "2-d"])
    def test_shapes(self, diagonal, border):
        with pytest.raises(ValueError, match="^diagonal and border must be 1-D arrays of equal length$"):
            ArrowheadEigen(diagonal, border, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["diagonal", "border", "corner"])
    def test_non_finite_entries(self, where, value):
        # Each slot after the first of the magnitude check: Python's max
        # drops a NaN there, and the solve returned the bare corner.
        entries = {"diagonal": [1.0, 2.0], "border": [1.0, 1.0], "corner": 0.0}
        entries[where] = value if where == "corner" else [1.0, value]
        with pytest.raises(ValueError, match="^arrowhead entries must be finite$"):
            ArrowheadEigen(**entries)

    @pytest.mark.parametrize("envelope", [False, True], ids=["flat", "envelope"])
    def test_nan_site_coupling(self, envelope):
        # The default cavity sits at -5e44 Hz, so the site coupling is the
        # square root of a negative number (the CLI refuses these inputs).
        params = SystemParams(num_sites=7, dipole_Cm=1e-10, mode_volume_m3=1e-278)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
            multimode_diagonalize(params, include_envelope=envelope)


class TestDarkModes:
    @pytest.mark.parametrize("num_sites", [2, 7, 40, 401, 2000])
    def test_envelope_splits_off_n_over_2_dark_modes(self, num_sites):
        result = multimode_diagonalize(SystemParams(num_sites=num_sites), include_envelope=True)
        assert np.count_nonzero(result.photon_weights == 0.0) == num_sites // 2

    @pytest.mark.parametrize("num_sites", [2, 7, 40, 401])
    def test_envelope_dark_modes_are_exact_eigenpairs(self, num_sites):
        # A waist much shorter than the chain (401 sites span 40 um): the
        # envelope reshapes every bright coupling, and may push the highest
        # ones below the deflation tolerance too.
        params = SystemParams(num_sites=num_sites, beam_waist_m=2e-6)
        result = multimode_diagonalize(params, include_envelope=True)
        energies = exciton_energies(params)
        assert np.count_nonzero(result.photon_weights == 0.0) >= num_sites // 2
        vectors = result.eigenvectors
        for k in range(2, num_sites + 1, 2):
            [column] = np.nonzero(vectors[k - 1, :] == 1.0)[0]
            assert result.frequencies_hz[column] == energies[k - 1]
            assert np.count_nonzero(vectors[:, column]) == 1

    # 1000 sites: the 500 merged poles span several chunks of rows and columns.
    @pytest.mark.parametrize("num_sites", [300, 1000])
    def test_magic_angle_leaves_one_bright_mode(self, num_sites):
        # J -> 0: every bright pole coincides, they merge into one collective
        # mode, and the rest are dark combinations at the bare line.
        # multimode_diagonalize's solve, with its shift applied beforehand so
        # that the eigenvalues are offsets from the atomic line.
        problem = magic_problem(num_sites)
        result = ArrowheadEigen(*problem)
        assert np.count_nonzero(result.photon_weights) == 2
        gram = result.eigenvectors.T @ result.eigenvectors
        assert np.abs(gram - np.eye(num_sites + 1)).max() < 1e-12
        assert_eigen_equation(arrowhead_matrix(*problem), result)

    @settings(max_examples=30, deadline=None)
    @given(num_sites=st.integers(1, 600), envelope=st.booleans(),
           theta=st.one_of(st.floats(0.0, MAGIC_ANGLE_RAD - 0.05),
                           st.floats(MAGIC_ANGLE_RAD + 0.05, math.pi / 2.0)))
    @example(num_sites=1, envelope=False, theta=0.0)
    @example(num_sites=600, envelope=True, theta=0.4)
    @example(num_sites=599, envelope=False, theta=1.2)
    def test_even_modes_are_exactly_dark_in_the_exciton_weights(self, num_sites, envelope, theta):
        # Away from the magic angle no poles merge: every even k is split off
        # with its zero coupling, and the blocked kernel writes nothing there.
        params = SystemParams(num_sites=num_sites, theta_rad=theta)
        result = multimode_diagonalize(params, include_envelope=envelope)
        weights = result.exciton_weights
        bright = result.photon_weights > 0.0
        assert np.all(weights[bright, 1::2] == 0.0)
        dark = weights[~bright]
        own = np.argmax(dark, axis=1)
        assert np.all(np.count_nonzero(dark, axis=1) == 1)
        assert np.all(dark[np.arange(own.size), own] == 1.0)
        np.testing.assert_array_equal(result.frequencies_hz[~bright], exciton_energies(params)[own])


class TestLazyProperties:
    def test_cached(self):
        result = multimode_diagonalize(SystemParams(num_sites=50))
        assert result.eigenvectors is result.eigenvectors
        assert result.exciton_weights is result.exciton_weights

    def test_size_guard_names_n_and_size(self):
        num_sites = int(math.sqrt(DENSE_BUDGET_BYTES / 8.0))
        # At the magic angle the bright poles merge, so the solve is cheap.
        result = multimode_diagonalize(SystemParams(num_sites=num_sites, theta_rad=MAGIC_ANGLE_RAD))
        assert result.frequencies_hz.size == num_sites + 1
        for name in ("eigenvectors", "exciton_weights"):
            with pytest.raises(ValueError, match=rf"N = {num_sites} .*GB"):
                getattr(result, name)

    def test_eager_path_allocates_no_dense_matrix(self):
        num_sites = 4000
        params = SystemParams(num_sites=num_sites, theta_rad=0.5)
        tracemalloc.start()
        try:
            multimode_diagonalize(params, include_envelope=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (N+1)^2 float64 matrix would be 128 MB; a quarter of that
        # (the bright block) 32 MB.
        assert peak < 16e6

    def test_merged_poles_add_no_dense_temporary(self):
        # At the magic angle N/2 poles merge; their reflector and spread rows
        # are written in chunks, so building the vectors costs their own
        # (N+1)^2 matrix and little more.
        num_sites = 2000
        params = SystemParams(num_sites=num_sites, theta_rad=MAGIC_ANGLE_RAD)
        result = multimode_diagonalize(params)
        tracemalloc.start()
        try:
            result.eigenvectors
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8.0 * (num_sites + 1) ** 2 + 4e6

    @pytest.mark.parametrize("theta, envelope", [(0.0, False), (0.0, True), (MAGIC_ANGLE_RAD, False)],
                             ids=["flat", "envelope", "magic"])
    def test_exciton_weights_cost_their_own_matrix(self, theta, envelope):
        # Built a block of eigenvectors at a time, squared and dropped: no
        # (N+1)^2 eigenvector matrix beside the (N+1) x N result.
        params = SystemParams(num_sites=2000, theta_rad=theta)
        result = multimode_diagonalize(params, include_envelope=envelope)
        tracemalloc.start()
        try:
            weights = result.exciton_weights
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= weights.nbytes + 4e6


EPS = np.finfo(float).eps


def flat_problem(params, detuning_hz=0.0):
    """The flat multimode arrowhead in offsets from the atomic line, and the
    chain's (J, g) that let the solver use its closed form."""
    corner = cavity_frequency(params) - params.atom_frequency_hz + detuning_hz
    chain = (transfer_parameter(params), site_coupling(params))
    return (exciton_shifts(params), mode_coupling_array(params), corner), chain


class TestFlatChainClosedForm:
    @pytest.mark.parametrize("num_sites", [1000, 2000])
    def test_solve_is_in_offsets_from_the_atomic_line(self, num_sites):
        # The poles are offsets with full precision, not absolute 4e14 Hz
        # energies quantized to 0.0625 Hz; the line is added last.
        params = SystemParams(num_sites=num_sites, theta_rad=math.radians(20.0))
        problem, chain = flat_problem(params)
        offsets = ArrowheadEigen(*problem, chain=chain)
        result = multimode_diagonalize(params)
        np.testing.assert_array_equal(
            result.frequencies_hz, params.atom_frequency_hz + offsets.frequencies_hz)
        np.testing.assert_array_equal(result.photon_weights, offsets.photon_weights)
        # Quantized poles were off by up to 0.06 Hz, 4e-10 of the scale.
        values, _ = dense_bordered(*problem)
        scale = np.linalg.norm(arrowhead_matrix(*problem), 2)
        assert np.abs(offsets.frequencies_hz - values).max() <= 1e-13 * scale

    @pytest.mark.parametrize("theta_deg", [0.0, 40.0, 90.0])
    def test_eigenvectors_are_those_of_the_pole_sums(self, theta_deg):
        # The closed form's roots belong to the chain's exact lines, a
        # rounding away from the given diagonal; the vectors are built from
        # the pole sums' roots, so they solve the given matrix.
        params = SystemParams(num_sites=600, theta_rad=math.radians(theta_deg))
        problem, chain = flat_problem(params)
        fast, slow = ArrowheadEigen(*problem, chain=chain), ArrowheadEigen(*problem)
        np.testing.assert_array_equal(fast.eigenvectors, slow.eigenvectors)
        assert_eigen_equation(arrowhead_matrix(*problem), fast)

    def test_memory_is_linear_in_n(self):
        # N = 1e6 through the closed form: the pole sums would take hours.
        # 200 bytes per site leaves no room for a (rows x N) block of 25 rows.
        num_sites = 1_000_000
        params = SystemParams(num_sites=num_sites)
        tracemalloc.start()
        try:
            result = multimode_diagonalize(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * num_sites
        assert result.frequencies_hz.size == num_sites + 1
        assert np.count_nonzero(result.photon_weights) == num_sites // 2 + 1
        assert abs(result.photon_weights.sum() - 1.0) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    num_sites=st.integers(min_value=3, max_value=10**6),
    transfer=st.sampled_from([-1.0, 1.0]).flatmap(
        lambda sign: st.floats(min_value=1e2, max_value=1e10).map(lambda j: sign * j)),
    points=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                              st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
                              st.booleans()), min_size=1, max_size=12),
    wide=st.booleans(),
)
def test_cached_angles_are_the_former_closed_form_bit_for_bit(num_sites, transfer, points, wide):
    # Odd modes k anywhere in the band, at offsets tau a fraction of the way
    # to either neighbouring odd line, in double and in long double.
    dtype = np.longdouble if wide else np.float64
    m, odd = num_sites + 1, (num_sites + 1) // 2
    where, fraction, up = (np.array(column) for column in zip(*points))
    i = np.minimum((where * odd).astype(int), odd - 1)
    j = np.where((up & (i + 1 < odd)) | (i == 0), i + 1, i - 1)
    pi = 4.0 * np.arctan(dtype(1.0))
    line = lambda index: 2.0 * dtype(transfer) * np.sin(pi * (m - 2 * (2 * index + 1)) / (2.0 * m))
    k, tau = 2 * i + 1, fraction.astype(dtype) * (line(j) - line(i))
    with np.errstate(all="ignore"):  # the bits are compared, warnings or not
        new = chain_sum_near_pole(chain_angles(k, num_sites, dtype), tau, dtype(transfer), num_sites)
        old = oracles.chain_sum_near_pole(k, tau, dtype(transfer), num_sites)
    for fast, slow in zip(new, old):
        # Equal values of one sign: the same bits, as a long double's padding
        # bytes are not part of its value.
        assert fast.dtype == slow.dtype == dtype
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(np.signbit(fast), np.signbit(slow))


def test_closed_form_weights_match_mpmath():
    # A doublet next to a pair of lines at 90 degrees, where rounding the
    # lines to doubles moves the pole sums' photon weights by 4.5e-13: the
    # closed form solves the chain's exact lines.
    params = SystemParams(num_sites=2055, theta_rad=math.pi / 2.0)
    (poles, couplings, _), chain = flat_problem(params)
    corner = -5.45e7
    result = ArrowheadEigen(poles, couplings, corner, chain=chain)
    with mpmath.workdps(30):
        transfer, coupling = (mpmath.mpf(x) for x in chain)
        m = params.num_sites + 1
        lines = [2 * transfer * mpmath.cos(mpmath.pi * k / m) for k in range(1, m, 2)]
        weights = [2 * coupling**2 / m * mpmath.cot(mpmath.pi * k / (2 * m)) ** 2
                   for k in range(1, m, 2)]
        for i in np.argsort(result.photon_weights)[-3:]:
            root = mpmath.findroot(
                lambda x: x - corner + mpmath.fsum(w / (d - x) for d, w in zip(lines, weights)),
                mpmath.mpf(result.frequencies_hz[i]))
            photon = 1 / (1 + mpmath.fsum(w / (d - root) ** 2 for d, w in zip(lines, weights)))
            assert abs(result.photon_weights[i] - photon) < 1e-13


def test_flat_outputs_are_bitwise_unchanged():
    # SHA-256 of the flat solve's frequencies and photon weights at N = 2000,
    # recorded (x86-64, 80-bit long double) before the general solve moved to
    # near and far sums: the closed form and its two outer rows must not
    # move by a bit.
    expected = {
        0.0: ("aa8c16de6485550229107fdf40486e51788d9261592ea2a7ec449ac4ae3da3b5",
              "899e8857157ce1167e237b492e70240c56b2e3d4780a0bb77fa7a55fa14d09b5"),
        40.0: ("fae3dc9e1ed600f41e549cad921f1a856b4bf2650f787b4e7517816982d87362",
               "47d3aa8eafd1a45225fc530a6a1f51dd708afb06748f10a6f59ce9daf1d923fc"),
    }
    for theta_deg, hashes in expected.items():
        result = multimode_diagonalize(SystemParams(num_sites=2000, theta_rad=math.radians(theta_deg)))
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (result.frequencies_hz, result.photon_weights))
        assert got == hashes


def sums_at(blocks, origin, tau):
    """psi, phi, their derivatives and phi - psi of every row, at d_origin + tau."""
    out = np.empty((5, tau.size), tau.dtype)
    for rows, secular in blocks:
        secular.at(origin[rows])
        out[:, rows] = secular(tau[rows])
    return out


@contextmanager
def rows_evaluated():
    """The count of rows that the solve's near sums and the oracle's pole
    sums evaluate, as a one-element list."""
    count = [0]
    near, call = _Sums._near, PoleSums.__call__

    def counting_near(self, a, b, lo, hi, tau):
        count[0] += b - a
        return near(self, a, b, lo, hi, tau)

    def counting_call(self, tau, done=None):
        count[0] += tau.size
        return call(self, tau, done)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Sums, "_near", counting_near)
        patch.setattr(PoleSums, "__call__", counting_call)
        yield count


def envelope_arrowhead(num_sites, waist_m=3e-4, theta_deg=0.0):
    """The deflated envelope problem the general solve sees: sorted bright
    poles, their couplings and the corner, in the solver's units."""
    params = SystemParams(num_sites=num_sites, beam_waist_m=waist_m,
                          theta_rad=math.radians(theta_deg))
    solver = ArrowheadEigen(exciton_shifts(params), envelope_mode_couplings(params),
                            cavity_frequency(params) - params.atom_frequency_hz)
    return solver._kept_poles, solver._kept_couplings, solver._alpha


def reference_weights(poles, couplings, alpha, origin, tau):
    """1 / f' at the exact roots of the given matrix: two Newton steps from
    the computed ones, with every sum in long double."""
    wide = np.longdouble
    poles, couplings, tau = poles.astype(wide), couplings.astype(wide), tau.astype(wide)
    weights = np.empty(tau.size)
    for r0, r1, _ in row_blocks(tau.size, poles.size):
        start = poles[origin[r0:r1]]
        for _ in range(2):
            y = couplings / ((poles - start[:, None]) - tau[r0:r1, None])
            slope = 1.0 + np.sum(y * y, axis=1)
            tau[r0:r1] -= (start - alpha + tau[r0:r1] + y @ couplings) / slope
        weights[r0:r1] = 1.0 / slope
    return weights


def zhat_weights(poles, couplings, origin, tau):
    """The former photon weights: from the recomputed couplings z_hat,
    1 / (1 + sum_j z_hat_j^2 / (lam - d_j)^2)."""
    z_hat = _recomputed_couplings(poles, couplings, origin, tau)
    weights = np.empty(tau.size)
    for r0, r1, _ in row_blocks(tau.size, poles.size):
        y = z_hat / ((poles[origin[r0:r1], None] - poles) + tau[r0:r1, None])
        weights[r0:r1] = 1.0 / (1.0 + np.sum(y * y, axis=1))
    return weights


class TestBlockEvaluator:
    """The general solve sums each block's near poles exactly and takes the
    others from Chebyshev interpolants; the whole-row pole sums are its
    oracle."""

    @pytest.mark.parametrize("theta_deg", [0.0, 40.0])
    @pytest.mark.parametrize("waist_m", [3e-4, 1e-3])
    @pytest.mark.parametrize("num_sites", [300, 2000, 10_000])
    def test_sums_match_the_whole_row(self, num_sites, waist_m, theta_deg):
        # At the roots and at a random point in every gap, band-edge blocks
        # included, measured from the lower pole and again from the nearer
        # one, as the solve measures its roots.  The oracle sums every row in
        # long double: in double the whole-row sums are themselves off by up
        # to 13.5 eps (phi - psi) at N = 10^4, where the block sums are off
        # by 5.3 eps, and 4.8 eps of f' in the derivatives.
        poles, couplings, alpha = envelope_arrowhead(num_sites, waist_m, theta_deg)
        origin, tau, _, _ = _secular_roots(poles, couplings, alpha)
        rng = np.random.default_rng(num_sites)
        inner = np.arange(1, poles.size)
        share = rng.uniform(0.0, 1.0, inner.size)
        gaps_origin, gaps_tau = origin.copy(), tau.copy()
        gaps_origin[inner] = inner - 1
        gaps_tau[inner] = share * np.diff(poles)
        upper = share > 0.5
        near_origin, near_tau = origin.copy(), tau.copy()
        near_origin[inner] = inner - 1 + upper
        near_tau[inner] = (share - upper) * np.diff(poles)
        wide = np.longdouble
        for at, offset in ((origin, tau), (gaps_origin, gaps_tau), (near_origin, near_tau)):
            block = sums_at(_chunks(poles, couplings), at, offset)
            exact = sums_at(whole_row_sums(poles.astype(wide), couplings.astype(wide)), at,
                            offset.astype(wide))
            size, slope = exact[1] - exact[0], exact[2] + exact[3]
            assert np.all(np.abs(block[:2] - exact[:2]) <= 8.0 * EPS * size)
            assert np.all(np.abs(block[2:4] - exact[2:4]) <= 8.0 * EPS * slope)

    def test_every_pole_near_is_the_whole_row(self):
        # In a small problem every block's near set is the whole row, with no
        # far table.  Its sums are those of the same rows summed one row per
        # block, bit for bit, and those of the former whole-row pole sums
        # within the bounds of test_sums_match_the_whole_row.
        poles, couplings, alpha = envelope_arrowhead(100)
        origin, tau, _, _ = _secular_roots(poles, couplings, alpha)
        layout = _layout(poles, couplings)
        first, lo, hi, table = layout[:4]
        assert (lo == 0).all() and (hi == poles.size).all() and (table == -1).all()
        rows = np.arange(poles.size + 1)
        single = (rows, 0 * rows, 0 * rows + poles.size, 0 * rows - 1, *layout[4:])
        got = []
        for blocks in (layout, single):
            secular = _Sums(poles, couplings, slice(0, rows.size), blocks)
            secular.at(origin)
            got.append(secular(tau).copy())
        assert first.size < rows.size
        np.testing.assert_array_equal(*got)
        oracle = sums_at(whole_row_sums(poles, couplings), origin, tau)
        size, slope = oracle[1] - oracle[0], oracle[2] + oracle[3]
        assert np.all(np.abs(got[0][:2] - oracle[:2]) <= 8.0 * EPS * size)
        assert np.all(np.abs(got[0][2:4] - oracle[2:4]) <= 8.0 * EPS * slope)

    def test_far_field_at_its_own_nodes(self):
        # A point on a node gives that node's value, not 0 / 0.
        poles, couplings, _ = envelope_arrowhead(2000)
        ref, top = poles[500], poles[564]
        lo, hi = np.searchsorted(poles, (2.0 * ref - top, 2.0 * top - ref))
        nodes = (top - ref) * _NODES
        tables = _far_tables(poles, couplings, np.array([lo]), np.array([hi]), np.array([ref]),
                             np.array([top - ref]))
        np.testing.assert_array_equal(_far_field(tables, nodes[None, :], np.zeros(nodes.size, int), nodes),
                                      tables[0, :, :4].T)

    @pytest.mark.parametrize("num_sites, theta", CASES)
    def test_no_more_evaluations_per_root(self, num_sites, theta):
        # Rows evaluated over the whole solve, against the whole-row sums.
        poles, couplings, alpha = envelope_arrowhead(num_sites, theta_deg=math.degrees(theta))
        counts = []
        for solve in (lambda: _secular_roots(poles, couplings, alpha),
                      lambda: roots_by_block(poles, couplings, alpha, whole_row_sums(poles, couplings))):
            with rows_evaluated() as rows:
                solve()
            counts.append(rows[0])
        assert counts[0] <= counts[1]

    @pytest.mark.parametrize("theta_deg", [0.0, 40.0])
    @pytest.mark.parametrize("num_sites", [400, 2000, 5000])
    def test_photon_weights_are_one_over_the_slope(self, num_sites, theta_deg):
        # 1 / f' at the roots, where the former weights came from z_hat.  At
        # N = 5000 and 0 degrees the two differ by 1.2e-13: against the
        # exact roots of the matrix, the z_hat weights are off by 1.5e-13
        # there and 1 / f' by 7.5e-14.
        params = SystemParams(num_sites=num_sites, theta_rad=math.radians(theta_deg))
        result = multimode_diagonalize(params, include_envelope=True)
        assert abs(result.photon_weights.sum() - 1.0) <= 1e-13
        poles, couplings, alpha = envelope_arrowhead(num_sites, theta_deg=theta_deg)
        origin, tau, slope, _ = _secular_roots(poles, couplings, alpha)
        bright = np.sort(result.photon_weights[result.photon_weights > 0.0])
        np.testing.assert_array_equal(bright, np.sort(1.0 / slope))
        assert np.abs(1.0 / slope - reference_weights(poles, couplings, alpha, origin, tau)).max() <= 1e-13
        former = roots_by_block(poles, couplings, alpha, whole_row_sums(poles, couplings))
        assert np.abs(1.0 / slope - zhat_weights(poles, couplings, *former[:2])).max() <= 2e-13

    def test_weights_match_mpmath(self):
        # The top three photon weights of an envelope chain of N = 600,
        # against 30-digit roots of the given (double) matrix.
        params = SystemParams(num_sites=600, theta_rad=math.radians(30.0))
        shift = params.atom_frequency_hz
        poles, couplings = exciton_shifts(params), envelope_mode_couplings(params)
        corner = cavity_frequency(params) - shift
        result = ArrowheadEigen(poles, couplings, corner)
        bright = couplings != 0.0
        with mpmath.workdps(30):
            lines = [mpmath.mpf(x) for x in poles[bright]]
            weights = [mpmath.mpf(x) ** 2 for x in couplings[bright]]
            for i in np.argsort(result.photon_weights)[-3:]:
                root = mpmath.findroot(
                    lambda x: x - corner + mpmath.fsum(w / (d - x) for d, w in zip(lines, weights)),
                    mpmath.mpf(result.frequencies_hz[i]))
                photon = 1 / (1 + mpmath.fsum(w / (d - root) ** 2 for d, w in zip(lines, weights)))
                assert abs(result.photon_weights[i] - photon) < 1e-13


def block_by_block(poles, couplings):
    """The solve's own blocks and sums, each block of rows iterated alone,
    as the former driver iterated its blocks."""
    layout = _layout(poles, couplings)
    edges = np.append(layout[0], poles.size + 1)
    for r0, r1 in zip(edges[:-1], edges[1:]):
        yield slice(r0, r1), _Sums(poles, couplings, slice(r0, r1), layout)


def assert_blocks_solved_alone(solution, rows):
    """The general solve of ``solution``, which evaluated ``rows`` rows,
    evaluates each row as often, and finds the same offsets bit for bit, as
    when each of its blocks is iterated alone."""
    poles, couplings, alpha = solution._kept_poles, solution._kept_couplings, solution._alpha
    with rows_evaluated() as alone:
        if poles.size:
            origin, tau, _, _ = roots_by_block(poles, couplings, alpha, block_by_block(poles, couplings))
            np.testing.assert_array_equal(origin, solution._origin)
            np.testing.assert_array_equal(tau, solution._tau)
    assert rows == alone[0]


class TestOneIterationPerChunk:
    """The general solve iterates once per chunk of roots and evaluates only
    the blocks with a root still open; the former driver, one iteration per
    block and per outer root (``oracles.block_sums``), is its oracle."""

    @pytest.mark.parametrize("theta_deg", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize("num_sites", [1500, 2000, 2500])
    def test_against_the_block_driver(self, num_sites, theta_deg):
        # The former driver sums near poles with BLAS matrix-vector products
        # and far tables 512 poles at a time, and it leaves the offset of a
        # root's other neighbouring pole rounded; on these chains no row's
        # iteration count moves with that rounding.  On a few pathological
        # random draws one does (13 of 300 in a sample), so the property
        # tests below check only that each block, iterated alone, takes the
        # solve's own path: a check of the chunks, not of the oracle's counts.
        poles, couplings, alpha = envelope_arrowhead(num_sites, 1e-3, theta_deg)
        solves = []
        for solve in (lambda: _secular_roots(poles, couplings, alpha),
                      lambda: roots_by_block(poles, couplings, alpha, block_sums(poles, couplings))):
            with rows_evaluated() as rows:
                solves.append((solve(), rows[0]))
        ((origin, tau, slope, _), rows), ((origin_b, tau_b, slope_b, _), rows_b) = solves
        # Each row as often as when its block was solved alone.
        assert rows == rows_b
        # The sums differ only in their rounding.
        scale = max(np.abs(poles).max(), np.abs(couplings).max(), abs(alpha))
        assert np.abs((poles[origin] + tau) - (poles[origin_b] + tau_b)).max() <= EPS * scale
        assert np.abs(1.0 / slope - 1.0 / slope_b).max() <= 1e-13

    @pytest.mark.parametrize("include_envelope", [False, True], ids=["flat", "envelope"])
    @pytest.mark.parametrize("theta_deg", [0.0, 40.0])
    def test_chunk_edges_inside_blocks_change_no_bit(self, theta_deg, include_envelope, monkeypatch):
        # Chunks of 300 roots cut 64-root blocks (and the flat chain's one
        # interior block) in two; each row's sums and iteration stay its own.
        params = SystemParams(num_sites=2000, beam_waist_m=1e-3, theta_rad=math.radians(theta_deg))
        results = []
        for rows in (arrowhead.CHUNK_ROWS, 300):
            monkeypatch.setattr(arrowhead, "CHUNK_ROWS", rows)
            result = multimode_diagonalize(params, include_envelope=include_envelope)
            results.append([result.frequencies_hz, result.photon_weights, result._origin, result._tau])
        for whole, cut in zip(*results):
            assert whole.tobytes() == cut.tobytes()

    @pytest.mark.parametrize("num_sites, bytes_per_site", [(10_000, 300), (30_000, 175)])
    def test_scratch_is_shared_by_the_blocks(self, num_sites, bytes_per_site):
        # Every root of a chunk is iterated at once, but the blocks' near sums
        # share one scratch: held per block, it would take about 16 MB at
        # N = 10^4.  A chunk holds CHUNK_ROWS roots' iteration state, some
        # 230 bytes a root: the 15,001 roots of N = 3 x 10^4 in one chunk
        # took 215 bytes per site.  Measured after a first call, whose
        # imports are not the solve's.
        params = SystemParams(num_sites=num_sites, beam_waist_m=1e-3)
        multimode_diagonalize(params, include_envelope=True)
        tracemalloc.start()
        try:
            multimode_diagonalize(params, include_envelope=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_site * num_sites


@st.composite
def flat_chains(draw):
    """A flat chain of 1 to 20,000 sites at, near or beyond the magic angle,
    with its cavity detuned by up to 5 vacuum Rabi splittings."""
    num_sites = draw(st.one_of(st.integers(1, 2000), st.integers(2001, 20_000)))
    theta = draw(st.one_of(
        st.sampled_from([0.0, MAGIC_ANGLE_RAD, math.pi / 2.0]),
        st.floats(-1e-9, 1e-9).map(lambda offset: MAGIC_ANGLE_RAD + offset),
        st.floats(0.0, math.pi / 2.0),
    ))
    params = SystemParams(num_sites=num_sites, theta_rad=theta)
    detuning = draw(st.floats(-5.0, 5.0)) * 2.0 * superradiant_coupling(params)
    return flat_problem(params, detuning)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flat_chains())
@example(flat_problem(SystemParams(num_sites=1)))
@example(flat_problem(SystemParams(num_sites=2, theta_rad=math.pi / 2.0)))
@example(flat_problem(SystemParams(num_sites=20_000)))
@example(flat_problem(SystemParams(num_sites=301, theta_rad=MAGIC_ANGLE_RAD + 1e-9)))
def test_closed_form_solve_matches_the_pole_sums(chain_problem):
    problem, chain = chain_problem
    poles, couplings, corner = problem
    fast, slow = ArrowheadEigen(*problem, chain=chain), ArrowheadEigen(*problem)
    scale = max(np.abs(poles).max(), np.abs(couplings).max(), abs(corner))
    # The closed form solves the chain's exact lines, the pole sums the
    # given ones, which are rounded by up to an ulp of the band; over 150
    # random chains of 500 to 4000 sites the frequencies differed by up to
    # 5.6 ulps of the scale.
    assert np.abs(fast.frequencies_hz - slow.frequencies_hz).max() <= 16.0 * EPS * scale
    # That rounding moves the photon weights too: against 30-digit mpmath,
    # the pole sums' weights are off from the exact chain's by up to 5.4e-13
    # at N = 2055 (test_closed_form_weights_match_mpmath) and 2.0e-12 at
    # N = 20,000, the closed form's by 2.6e-14 and 2.4e-14.  The two solves
    # differ by up to 5.2e-13 at N = 2055, a third of this bound.
    tol = 1e-13 * max(1.0, (poles.size / 500.0) ** 2)
    assert np.abs(fast.photon_weights - slow.photon_weights).max() <= tol
    assert abs(fast.photon_weights.sum() - 1.0) <= 1e-12
    # Dark modes sit exactly on their poles, without photon weight.
    dark = fast.photon_weights == 0.0
    assert np.isin(poles[1::2], fast.frequencies_hz[dark]).all()
    np.testing.assert_array_equal(fast.frequencies_hz[dark], slow.frequencies_hz[dark])


# Random arrowheads: poles in [-1, 1] with clusters, exact repeats and
# near-repeats; couplings with exact zeros and tiny values; the corner
# inside the band or far outside it.
@st.composite
def arrowheads(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    poles = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    for i in range(1, n):
        kind = draw(st.sampled_from(["free", "free", "repeat", "near"]))
        if kind == "repeat":
            poles[i] = poles[draw(st.integers(0, i - 1))]
        elif kind == "near":
            poles[i] = poles[i - 1] + draw(st.sampled_from([1e-15, 1e-13, 1e-10, 1e-7]))
    couplings = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    for i in range(n):
        kind = draw(st.sampled_from(["free", "free", "zero", "tiny"]))
        if kind == "zero":
            couplings[i] = 0.0
        elif kind == "tiny":
            couplings[i] = draw(st.sampled_from([1e-18, 1e-14, 1e-9]))
    corner = draw(st.one_of(unit, st.sampled_from([-1e6, 1e6, 1e3])))
    return poles, couplings, corner


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(arrowheads())
# LAPACK's eigvalsh is off by 3.4e-2 of the scale here, where the solver
# agrees with 50-digit mpmath to 5e-17 of it; it fails for a first coupling
# between about 1e-81 and 1e-78 of the scale.
@example((np.array([1.0, 0, 0, 0.1875, 0.375, 0, 0, 0.5, 0, 0, 0]),
          np.array([2.44e-81, 0, 0, 1e-18, 0, 0.5, 0, 1e-18, 0, 1e-14, 1.0]), 0.0))
# Two poles five ulps apart: the first secular evaluation once rounded its
# point onto the wrong side of the root between them, and the eigenvectors
# missed A v = lam v by 0.05 of the scale.
@example((np.array([1.0, 1.000000000000001]), np.array([0.875, 1.0]), 0.0))
# A pole with coupling 1e-14 where the other pole's photon line crosses it:
# two roots 7e-15 apart, whose offsets are known to about 1e-2 of
# themselves.  1 / f' with the given coupling then missed the eigenvectors'
# photon weights by 1e-3; they come from z_hat, so the weights must too.
@example((np.array([1.0, 0, 1.0, 0, 0, 0]), np.array([0, 0, 1e-14, 0, 0, 1.0]), 0.0))
# One pole on the corner: the outer roots sit on the Weyl bound d - |z|, whose
# rounding once put them just outside their brackets, off by 4e-4 of |z|.
@example((np.array([1.0]), np.array([1e-14]), 1.0))
# A subnormal matrix: the residual is one subnormal step, and 1e-13 of the
# norm rounds to 0 (the floor of assert_eigen_equation).
@example((np.array([5e-320]), np.array([5e-320]), 0.0))
@example((np.array([2.22507386e-313]), np.array([2.22507386e-313]), 0.0))
def test_random_arrowheads(problem):
    poles, couplings, corner = problem
    n = poles.size
    with rows_evaluated() as rows:
        solution = ArrowheadEigen(poles, couplings, corner)
    assert_blocks_solved_alone(solution, rows[0])
    matrix = arrowhead_matrix(poles, couplings, corner)
    scale = np.linalg.norm(matrix, 2)
    values = solution.frequencies_hz
    # LAPACK's symmetric reduction can lose up to 1e-2 of the scale when
    # some entries are tiny next to the others (poles near 1e-158 next to
    # couplings near 1; a coupling near 1e-80).  Flushing entries below
    # 1e-40 of the scale to zero moves no eigenvalue by more than 1e-39 of
    # the scale (Weyl), and keeps the oracle accurate.
    oracle = np.where(np.abs(matrix) < 1e-40 * scale, 0.0, matrix)
    assert np.abs(values - np.linalg.eigvalsh(oracle)).max() <= 1e-13 * scale
    # Cauchy interlacing with the bare poles.
    bare = np.sort(poles)
    slack = 4.0 * np.finfo(float).eps * scale * n
    assert np.all(values[:-1] <= bare + slack) and np.all(bare <= values[1:] + slack)
    vectors = solution.eigenvectors
    # The photon weights are 1 / f' at the roots, not taken from the
    # vectors, so their sum with the exciton weights is a real check.
    weights = np.square(vectors[:-1, :].T)
    assert np.abs(solution.photon_weights + weights.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(vectors.T @ vectors - np.eye(n + 1)).max() < 1e-9
    assert_eigen_equation(matrix, solution)


@st.composite
def clustered_arrowheads(draw):
    """Up to 1500 poles in a few clusters of very different widths (exact
    repeats among them), so that blocks meet far fields on one or both
    sides, near sets of the whole row and merged runs; couplings with exact
    zeros and tiny values; the corner inside the band or far outside it."""
    n = draw(st.one_of(st.integers(1, 200), st.integers(201, 1500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 6))
    widths = np.array(draw(st.lists(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5, 1e-2, 1.0]),
                                    min_size=count, max_size=count)))
    member = rng.integers(0, count, n)
    poles = rng.uniform(-1.0, 1.0, count)[member] + widths[member] * rng.uniform(-1.0, 1.0, n)
    couplings = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1.0, 1e-3]))
    kind = rng.integers(0, 8, n)
    couplings[kind == 0] = 0.0
    couplings[kind == 1] = 1e-14
    corner = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1e3, 1e3])))
    return poles, couplings, corner


def test_recomputed_couplings_of_some_poles_are_those_of_all():
    poles, couplings, alpha = envelope_arrowhead(300)
    origin, tau, _, _ = _secular_roots(poles, couplings, alpha)
    every = _recomputed_couplings(poles, couplings, origin, tau)
    rows = np.array([0, 1, 75, poles.size - 1])
    np.testing.assert_array_equal(_recomputed_couplings(poles, couplings, origin, tau, rows),
                                  every[rows])


def test_chain_of_close_poles_merges_within_tolerance():
    """1000 poles 1e-15 apart step by less than the deflation tolerance
    (about 6e-15 here) but span 1e-12: merged as one run they would move
    the lowest root by several 1e-13."""
    rng = np.random.default_rng(3)
    poles = np.concatenate([-0.8287 + 1e-15 * np.arange(1000), [0.1, 0.5]])
    couplings = 1e-3 * rng.uniform(-1.0, 1.0, poles.size)
    solution = ArrowheadEigen(poles, couplings, 0.0)
    matrix = arrowhead_matrix(poles, couplings, 0.0)
    scale = np.linalg.norm(matrix, 2)
    assert np.abs(solution.frequencies_hz - np.linalg.eigvalsh(matrix)).max() <= 1e-13 * scale
    assert_eigen_equation(matrix, solution)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(clustered_arrowheads())
# 1500 poles spread over the band: far fields on both sides of most blocks.
@example((np.linspace(-1.0, 1.0, 1500), np.full(1500, 0.02), 0.1))
def test_clustered_arrowheads(problem):
    poles, couplings, corner = problem
    with rows_evaluated() as rows:
        solution = ArrowheadEigen(poles, couplings, corner)
    assert_blocks_solved_alone(solution, rows[0])
    matrix = arrowhead_matrix(poles, couplings, corner)
    scale = np.linalg.norm(matrix, 2)
    assert np.abs(solution.frequencies_hz - np.linalg.eigvalsh(matrix)).max() <= 1e-13 * scale
    vectors = solution.eigenvectors
    assert np.abs(vectors.T @ vectors - np.eye(poles.size + 1)).max() < 1e-9
    assert_eigen_equation(matrix, solution)
    weights = np.square(vectors[:-1, :].T)
    assert np.abs(solution.photon_weights + weights.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(arrowheads(), clustered_arrowheads()).map(lambda problem: (problem, None))
       | flat_chains().filter(lambda chain_problem: chain_problem[0][0].size <= 2000))
@example((magic_problem(300), None))
@example((magic_problem(1000), None))
@example((envelope_arrowhead(1619), None))
def test_dense_accessors_are_the_former_builder_bit_for_bit(chain_problem):
    problem, chain = chain_problem
    solution = ArrowheadEigen(*problem, chain=chain)
    # The weights first, so that they are built without the eigenvectors.
    weights = solution.exciton_weights
    assert np.array_equal(weights, oracles.dense_exciton_weights(solution))
    assert np.array_equal(solution.eigenvectors, oracles.dense_eigenvectors(solution))
