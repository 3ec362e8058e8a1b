import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_polariton import (
    DampingSet,
    InvalidParameterError,
    ModelVariant,
    NoOutputChannelError,
    SystemParams,
    cavity_frequency,
    cavity_response,
    default_grid,
    exciton_energies,
    mode_coupling_array,
    multimode_diagonalize,
    peak_find,
    superradiant_coupling,
    sweep,
    variant_center,
)
from lattice_polariton.params import MAGIC_ANGLE_RAD
from lattice_polariton.polariton import variant_modes
from lattice_polariton.spectra import _DOUBLET_REACH, DEFAULT_GRID_POINTS, Peak, _parabolic_vertex

REF = SystemParams()
REF_DAMPING = DampingSet.from_params(REF)


def transfer_function(nu_hz, params, damping, variant):
    """Complex t(nu), r(nu) of a model variant, as ``sweep`` evaluates them,
    from its modes at absolute frequencies."""
    couplings, shifts = variant_modes(params, variant)
    resonances = zip(couplings.tolist(), (params.atom_frequency_hz + shifts).tolist())
    return cavity_response(nu_hz, cavity_frequency(params), damping, list(resonances))


class TestDampingSet:
    def test_cavity_width(self):
        assert REF_DAMPING.cavity_width_hz == 3e7

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DampingSet(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", ["1e7", None])
    def test_non_number_rejected_like_system_params(self, value):
        with pytest.raises(InvalidParameterError, match="gamma_mirror_hz must be >= 0"):
            DampingSet(value, 0.0, 0.0)
        with pytest.raises(InvalidParameterError, match="gamma_mirror_hz must be >= 0"):
            SystemParams(gamma_mirror_hz=value)

    def test_no_output_channel(self):
        dead = DampingSet(0.0, 0.0, 1e7)
        with pytest.raises(NoOutputChannelError):
            cavity_response(4e14, 4e14, dead, [])


class TestCavityResponse:
    def test_bare_cavity_resonant_transmission(self):
        t, r = cavity_response(4e14, 4e14, REF_DAMPING, [])
        # t = gamma / (kappa/2) = 2/3 for gamma = Gamma_c = 1e7
        assert abs(t) ** 2 == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert abs(r) ** 2 == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_far_off_resonance_limits(self):
        nu = np.array([4e14 - 5e12, 4e14 + 5e12])
        t, r = transfer_function(nu, REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT)
        assert np.all(np.abs(t) ** 2 < 1e-8)
        assert np.all(np.abs(np.abs(r) ** 2 - 1.0) < 1e-4)

    def test_weak_coupling_recovers_bare_lorentzian(self):
        fine = 4e14 + np.linspace(-2e8, 2e8, 20001)
        t, _ = cavity_response(fine, 4e14, REF_DAMPING, [(1.0, 4e14)])
        peaks = peak_find(fine, np.abs(t) ** 2)
        assert len(peaks) == 1
        assert peaks[0].fwhm_hz == pytest.approx(REF_DAMPING.cavity_width_hz, rel=1e-3)

    def test_variant_mode_lists(self):
        two = variant_modes(REF, ModelVariant.TWO_MODE_SUPERRADIANT)
        assert [a.size for a in two] == [1, 1]
        multi = variant_modes(REF, ModelVariant.FULL_MULTIMODE)
        assert [a.size for a in multi] == [500, 500]  # odd modes of a 1000-site chain
        assert (multi[0][0], multi[1][0]) == (two[0][0], two[1][0])
        collective = variant_modes(REF, ModelVariant.NONINTERACTING_COLLECTIVE)
        assert collective[1].tolist() == [0.0]  # on the atomic line

    def test_exact_envelope_sees_only_bright_modes(self):
        _, flat = variant_modes(REF, ModelVariant.FULL_MULTIMODE)
        _, exact = variant_modes(REF, ModelVariant.FULL_MULTIMODE, envelope_exact=True)
        assert exact.tolist() == flat.tolist()

    def test_undamped_pole_blocks_transmission(self):
        undamped = DampingSet(1e7, 1e7, 0.0)
        line = 4e14 + 3e7
        nu = np.array([line - 1e6, line, line + 1e6])
        resonances = [(2e7, line), (0.0, line + 1e6)]
        with np.errstate(all="raise"):
            t, r = cavity_response(nu, 4e14, undamped, resonances)
            t_line, r_line = cavity_response(line, 4e14, undamped, resonances)
        assert t[1] == 0.0 and r[1] == 1.0
        assert t_line == 0.0 and r_line == 1.0
        # Off the pole: the damped formula with Gamma_a = 0, a zero coupling
        # contributing nothing.
        for i in (0, 2):
            denom = 1j * (4e14 - nu[i]) + 1.5e7 + 4e14 / (1j * (line - nu[i]))
            assert t[i] == pytest.approx(1e7 / denom, rel=1e-12)


class TestSweep:
    def test_reference_doublet_spectrum(self):
        trace = sweep(REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT)
        assert len(trace.peaks) == 2
        omega0 = 2.0 * superradiant_coupling(REF)
        separation = trace.peaks[1].location_hz - trace.peaks[0].location_hz
        assert math.isclose(separation, omega0, rel_tol=0.05)
        for peak in trace.peaks:
            assert peak.fwhm_hz == pytest.approx(2e7, rel=0.15)
        dips = peak_find(trace.frequencies_hz, -trace.reflection)
        assert len(dips) == 2
        assert dips[1].location_hz - dips[0].location_hz == pytest.approx(omega0, rel=0.05)

    def test_passivity(self):
        for variant in ModelVariant:
            trace = sweep(REF, REF_DAMPING, variant)
            assert np.all(trace.transmission >= 0)
            assert np.all(trace.reflection >= 0)
            assert np.all(trace.transmission + trace.reflection <= 1.0 + 1e-9)

    def test_lossless_passivity_equality(self):
        lossless = DampingSet(1e7, 0.0, 0.0)
        # keep away from the exact exciton line, which is singular at zero
        # atomic linewidth
        nu = 4e14 + np.linspace(-2e8, 2e8, 1001) + 7.3e2
        t, r = cavity_response(nu, 4e14, lossless, [(2.5e7, 4e14)])
        total = np.abs(t) ** 2 + np.abs(r) ** 2
        assert np.abs(total - 1.0).max() < 1e-9

    def test_symmetric_about_center_at_zero_detuning(self):
        trace = sweep(REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT)
        offsets = np.linspace(1e5, 1.4e8, 777)
        t_hi, _ = transfer_function(
            trace.center_hz + offsets, REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT
        )
        t_lo, _ = transfer_function(
            trace.center_hz - offsets, REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT
        )
        upper = np.abs(t_hi) ** 2
        lower = np.abs(t_lo) ** 2
        assert np.abs(upper - lower).max() <= 1e-9 * upper.max()

    def test_multimode_equals_odd_only_exactly(self):
        energies = exciton_energies(REF)
        couplings = mode_coupling_array(REF)
        with_even = list(zip(couplings.tolist(), energies.tolist()))  # even k carry g = 0
        odd_only = with_even[::2]
        grid = default_grid(REF, ModelVariant.FULL_MULTIMODE)
        t_all, r_all = cavity_response(grid, cavity_frequency(REF), REF_DAMPING, with_even)
        t_odd, r_odd = cavity_response(grid, cavity_frequency(REF), REF_DAMPING, odd_only)
        np.testing.assert_array_equal(t_all, t_odd)
        np.testing.assert_array_equal(r_all, r_odd)
        # The closed form for the flat chain agrees with that sum to the
        # 0.0625 Hz quantization of the absolute energies (about 4e-9 of
        # |t|^2 here); in offsets the two agree to 1e-13 (test_spectra_kernel).
        trace = sweep(REF, REF_DAMPING, ModelVariant.FULL_MULTIMODE)
        np.testing.assert_allclose(np.abs(t_all) ** 2, trace.transmission, rtol=1e-8, atol=0)
        np.testing.assert_allclose(np.abs(r_all) ** 2, trace.reflection, rtol=1e-8, atol=0)

    def test_multimode_vs_two_mode_regression(self):
        two = sweep(REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT)
        multi = sweep(REF, REF_DAMPING, ModelVariant.FULL_MULTIMODE)
        assert len(multi.peaks) == 2
        sep_two = two.peaks[1].location_hz - two.peaks[0].location_hz
        sep_multi = multi.peaks[1].location_hz - multi.peaks[0].location_hz
        result = multimode_diagonalize(REF)
        top2 = np.sort(np.argsort(result.photon_weights)[-2:])
        eigen_ratio = (
            result.frequencies_hz[top2[1]] - result.frequencies_hz[top2[0]]
        ) / (2.0 * superradiant_coupling(REF))
        print(
            f"multimode correction: spectrum ratio {sep_multi / sep_two:.4f}, "
            f"eigenvalue ratio {eigen_ratio:.4f}"
        )
        # keeping every bright mode widens the doublet; track that the
        # spectral shift stays consistent with the eigenvalue shift
        assert 1.0 <= sep_multi / sep_two <= 1.25
        assert abs(sep_multi / sep_two - eigen_ratio) < 0.05

    def test_threshold_for_resolvable_peaks(self):
        # 2g above (kappa/2 + Gamma_a/2) guarantees a resolved doublet; far
        # below it the peaks merge into a single line.
        x = np.linspace(-2e8, 2e8, 4001)
        for damping in (REF_DAMPING, DampingSet(1e7, 0.0, 2e7), DampingSet(5e6, 1e7, 3e7)):
            g_star = (damping.cavity_width_hz / 2 + damping.gamma_atom_hz / 2) / 2
            for factor in (1.1, 2.0):
                t, _ = cavity_response(4e14 + x, 4e14, damping, [(factor * g_star, 4e14)])
                assert len(peak_find(4e14 + x, np.abs(t) ** 2)) == 2
        merged = DampingSet(1e7, 0.0, 2e7)  # kappa == Gamma_a: no hole burning
        g_star = (merged.cavity_width_hz / 2 + merged.gamma_atom_hz / 2) / 2
        t, _ = cavity_response(4e14 + x, 4e14, merged, [(0.2 * g_star, 4e14)])
        assert len(peak_find(4e14 + x, np.abs(t) ** 2)) == 1

    def test_grid_must_increase(self):
        """Reversed, a NaN inside, a NaN or an inf last: refused before any
        point is evaluated (a NaN passes a test of its differences <= 0)."""
        grid = default_grid(REF)
        for bad in (grid[::-1], np.insert(grid, 1000, math.nan), np.append(grid, math.nan),
                    np.append(grid, math.inf)):
            with pytest.raises(ValueError):
                sweep(REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT, bad)

    def test_grid_must_cover_doublet(self):
        omega0 = 2.0 * superradiant_coupling(REF)
        trace = sweep(REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT)
        narrow = trace.center_hz + np.linspace(-omega0, omega0, 501)
        with pytest.raises(ValueError):
            sweep(REF, REF_DAMPING, ModelVariant.TWO_MODE_SUPERRADIANT, narrow)

    @pytest.mark.parametrize("span_hz", [0.0, -1.0, 1e308, math.inf, math.nan])
    def test_grid_span_that_overflows_linspace_is_refused(self, span_hz):
        # The suite's filters would raise numpy's overflow warning instead.
        with pytest.raises(ValueError, match="grid span must be positive"):
            default_grid(REF, span_hz=span_hz)
        with pytest.raises(ValueError, match="^grid needs at least 3 points, got 2$"):
            default_grid(REF, points=2, span_hz=span_hz)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_default_grid_widens_with_the_splitting(self, variant):
        # Omega_0 grows as sqrt(N): 2.5 Omega_0 passes the fixed 150 MHz
        # default near N = 1150-1350.
        params = SystemParams(num_sites=5000)
        center, omega0 = variant_center(params, variant)
        grid = default_grid(params, variant)
        assert grid.size == DEFAULT_GRID_POINTS
        assert grid[0] == center - _DOUBLET_REACH * omega0
        assert grid[-1] == center + _DOUBLET_REACH * omega0
        assert len(sweep(params, REF_DAMPING, variant).peaks) == 2
        # Where 150 MHz is wide enough, the grid is unchanged.
        np.testing.assert_array_equal(
            default_grid(REF, variant), default_grid(REF, variant, span_hz=1.5e8)
        )


class TestPeakFind:
    def test_single_lorentzian(self):
        width = 2.5e6
        x = np.linspace(-1e8, 1e8, 50001)
        values = 0.7 / (1.0 + (2.0 * (x - 3e6) / width) ** 2)
        peaks = peak_find(x, values)
        assert len(peaks) == 1
        assert peaks[0].location_hz == pytest.approx(3e6, abs=1e3)
        assert peaks[0].height == pytest.approx(0.7, rel=1e-6)
        assert peaks[0].fwhm_hz == pytest.approx(width, rel=1e-3)

    def test_monotone_trace_has_no_peaks(self):
        x = np.linspace(0.0, 1.0, 101)
        assert peak_find(x, x**2) == []
        assert peak_find(x, -x) == []

    def test_two_peaks_ordered(self):
        x = np.linspace(-1.0, 1.0, 2001)
        values = np.exp(-((x - 0.4) ** 2) / 1e-3) + 0.5 * np.exp(-((x + 0.3) ** 2) / 1e-3)
        peaks = peak_find(x, values)
        assert len(peaks) == 2
        assert peaks[0].location_hz < peaks[1].location_hz
        assert peaks[0].location_hz == pytest.approx(-0.3, abs=1e-3)

    def test_missing_half_crossing_gives_nan(self):
        x = np.linspace(3.0, 7.0, 101)
        values = 1.0 / (1.0 + (x - 5.0) ** 2) + 0.9  # half height crossed off-grid
        peaks = peak_find(x, values)
        assert len(peaks) == 1
        assert math.isnan(peaks[0].fwhm_hz)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            peak_find(np.arange(4.0), np.arange(5.0))

    def test_maximum_next_to_a_one_point_zero_keeps_its_sample(self):
        # The parabola through (0.999, 1.0, 0.0) peaks at 1.125, 1/8 of the
        # drop above the sample.
        x = np.arange(7.0)
        values = np.array([0.5, 0.9, 0.999, 1.0, 0.0, 0.0, 0.0])
        peak, = peak_find(x, values)
        assert (peak.location_hz, peak.height) == (3.0, 1.0)
        dip, = peak_find(x, -np.array([0.5, 0.1, 0.001, 0.0, 1.0, 1.0, 1.0]), ceiling=0.0)
        assert (dip.location_hz, dip.height) == (3.0, 0.0)

    def test_vertex_above_the_ceiling_keeps_its_sample(self):
        x = np.arange(5.0)
        values = np.array([0.0, 0.9, 0.99, 0.98, 0.0])
        assert peak_find(x, values)[0].height > 0.99
        assert peak_find(x, values, ceiling=0.99)[0].height == 0.99
        assert peak_find(x, values, ceiling=0.99)[0].location_hz == 2.0


def assert_peaks_at_or_above_their_samples(freq, values, peaks):
    inner = values[1:-1]
    maxima = np.flatnonzero((inner > values[:-2]) & (inner > values[2:])) + 1
    assert [p.height >= values[i] for p, i in zip(peaks, maxima)] == [True] * maxima.size
    assert len(peaks) == maxima.size


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=8),
       step=st.floats(1e-3, 1e9), start=st.floats(-1e15, 1e15))
def test_refined_peaks_lie_at_or_above_their_samples(values, step, start):
    freq, values = start + step * np.arange(float(len(values))), np.array(values)
    if np.all(np.diff(freq) > 0):
        peaks = peak_find(freq, values, ceiling=1.0)
        assert_peaks_at_or_above_their_samples(freq, values, peaks)
        assert all(p.height <= 1.0 for p in peaks)


@settings(max_examples=60, deadline=None)
@given(
    num_sites=st.integers(1, 3000),
    theta=st.sampled_from([0.0, 0.3, MAGIC_ANGLE_RAD, math.pi / 2]),
    dipole=st.one_of(st.just(5e-29), st.floats(-40.0, -26.0).map(lambda e: 10.0**e)),
    gamma_atom=st.sampled_from([0.0, 1e5, 1e7]),
    gamma_cavity=st.sampled_from([0.0, 1e5, 1e7]),
    variant=st.sampled_from(list(ModelVariant)),
    points=st.sampled_from([7, 31, 301, DEFAULT_GRID_POINTS]),
)
# A multimode transmission zero one grid point from each maximum: the
# parabolas through them peaked at 1.1245.
@example(857, MAGIC_ANGLE_RAD, 1e-40, 0.0, 0.0, ModelVariant.FULL_MULTIMODE, DEFAULT_GRID_POINTS)
# A resolved, undamped doublet whose parabolas peak at 1.000003.
@example(1, 0.0, 5e-29, 0.0, 0.0, ModelVariant.TWO_MODE_SUPERRADIANT, DEFAULT_GRID_POINTS)
# A symmetric maximum whose fitted vertex rounds one ulp below its sample.
@example(1, 0.0, 5e-29, 1e7, 0.0, ModelVariant.TWO_MODE_SUPERRADIANT, DEFAULT_GRID_POINTS)
def test_no_transmission_peak_exceeds_1(
    num_sites, theta, dipole, gamma_atom, gamma_cavity, variant, points
):
    params = SystemParams(num_sites=num_sites, theta_rad=theta, dipole_Cm=dipole,
                          gamma_atom_hz=gamma_atom, gamma_cavity_hz=gamma_cavity)
    trace = sweep(params, DampingSet.from_params(params), variant,
                  default_grid(params, variant, points=points))
    assert_peaks_at_or_above_their_samples(trace.frequencies_hz, trace.transmission, trace.peaks)
    assert all(p.height <= 1.0 for p in trace.peaks)


def walked_half_crossing(freq, values, start, half, step):
    """The point-by-point walk that _half_crossing's windowed search replaced."""
    i = start
    while 0 <= i + step < values.size:
        j = i + step
        if values[j] < half <= values[i]:
            frac = (values[i] - half) / (values[i] - values[j])
            return float(freq[i] + frac * (freq[j] - freq[i]))
        if values[j] > values[i] and values[j] > half:
            break
        i = j
    return math.nan


def per_point_peak_find(frequencies_hz, values):
    """The per-point loop that peak_find's boolean mask replaced."""
    freq = np.asarray(frequencies_hz, dtype=float)
    vals = np.asarray(values, dtype=float)
    if freq.size < 3:
        return []
    peaks = []
    for i in range(1, freq.size - 1):
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]:
            location, height = _parabolic_vertex(freq[i - 1 : i + 2], vals[i - 1 : i + 2], vals.min(), math.inf)
            half = height / 2.0
            left = walked_half_crossing(freq, vals, i, half, -1)
            right = walked_half_crossing(freq, vals, i, half, +1)
            peaks.append(Peak(location_hz=location, height=height, fwhm_hz=right - left))
    peaks.sort(key=lambda p: p.location_hz)
    return peaks


def peak_table(peaks):
    return np.array([[p.location_hz, p.height, p.fwhm_hz] for p in peaks]).reshape(-1, 3)


@st.composite
def traces(draw):
    """Strictly increasing grids with traces that stress the peak walk:
    quantized values (plateaus and ties), many ripples on broad peaks
    (long walks), offsets that keep a side from crossing half height,
    peaks one point from either edge, and stray NaNs."""
    size = draw(st.integers(min_value=0, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    freq = np.cumsum(rng.uniform(0.1, 10.0, size)) + draw(st.floats(-1e3, 1e3))
    x = np.linspace(0.0, 1.0, size)
    shape = draw(st.sampled_from(["quantized", "ripples", "edge"]))
    if shape == "quantized":
        values = rng.integers(0, draw(st.integers(min_value=1, max_value=6)), size, endpoint=True)
    elif shape == "ripples":
        centers = draw(st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=4))
        widths = draw(st.lists(st.floats(1e-3, 0.5), min_size=len(centers), max_size=len(centers)))
        values = sum(np.exp(-(((x - c) / w) ** 2)) for c, w in zip(centers, widths))
        values = values + draw(st.floats(0.0, 0.2)) * np.sin(draw(st.integers(1, 400)) * x)
    else:
        values = np.zeros(size)
        if size >= 3:
            values[draw(st.sampled_from([1, size - 2]))] = 1.0
    quantum = draw(st.sampled_from([0.0, 0.01, 0.25]))
    if quantum:
        values = np.round(values / quantum) * quantum
    values = values + draw(st.sampled_from([0.0, 0.0, 1.0, 5.0]))  # 1, 5: off-grid half height
    if size:
        values[draw(st.lists(st.integers(0, size - 1), max_size=3))] = math.nan
    return freq, values


class TestPeakFindAgainstPerPointLoop:
    @settings(max_examples=400, deadline=None)
    @given(trace=traces())
    def test_equal_to_the_per_point_loop(self, trace):
        freq, values = trace
        fast = peak_table(peak_find(freq, values))
        slow = peak_table(per_point_peak_find(freq, values))
        assert np.array_equal(fast, slow, equal_nan=True)

    def test_long_walks_cross_several_windows(self):
        # One broad peak on 20,001 points: each side walks thousands of points.
        x = np.linspace(-1.0, 1.0, 20_001)
        values = 1.0 / (1.0 + (x / 0.3) ** 2)
        fast = peak_table(peak_find(x, values))
        assert fast.shape == (1, 3) and fast[0, 2] == pytest.approx(0.6, rel=1e-2)
        assert np.array_equal(fast, peak_table(per_point_peak_find(x, values)), equal_nan=True)
