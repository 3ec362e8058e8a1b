import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_polariton import (
    MAGIC_ANGLE_RAD,
    InvalidParameterError,
    ModelVariant,
    SystemParams,
    collective_coupling_noninteracting,
    exciton_energies,
    mode_coupling_array,
    multimode_diagonalize,
    rabi_splitting,
    site_coupling,
    superradiant_coupling,
    superradiant_energy,
)

from oracles import KERNEL_ULPS, one_doublet, own_doublet, ulps

REF = SystemParams()
LIMIT_RATIO = 2.0 * math.sqrt(2.0) / math.pi


class TestCouplings:
    def test_superradiant_reference(self):
        assert superradiant_coupling(REF) == pytest.approx(2.55e7, rel=0.02)

    def test_matches_first_mode_coupling(self):
        assert superradiant_coupling(REF) == mode_coupling_array(REF)[0]

    def test_single_atom_limit(self):
        p = SystemParams(num_sites=1)
        assert superradiant_coupling(p) == pytest.approx(site_coupling(p), rel=1e-12)
        assert collective_coupling_noninteracting(p) == pytest.approx(site_coupling(p), rel=1e-12)

    def test_superradiant_sqrt_n_growth(self):
        p1 = SystemParams(num_sites=1000, cavity_frequency_hz=4e14)
        p4 = SystemParams(num_sites=4001, cavity_frequency_hz=4e14)
        ratio = superradiant_coupling(p4) / superradiant_coupling(p1)
        assert ratio == pytest.approx(2.0, rel=2e-3)

    def test_collective_reference(self):
        p = SystemParams(cavity_frequency_hz=4e14)
        assert collective_coupling_noninteracting(p) == pytest.approx(2.8e7, rel=0.03)

    def test_collective_exact_sqrt_n(self):
        base = SystemParams(num_sites=1, cavity_frequency_hz=4e14)
        for n in (4, 100, 1369):
            p = replace(base, num_sites=n)
            assert collective_coupling_noninteracting(p) == pytest.approx(
                math.sqrt(n) * collective_coupling_noninteracting(base), rel=1e-12
            )

    def test_large_n_coupling_ratio(self):
        p = SystemParams(cavity_frequency_hz=4e14)
        ratio = superradiant_coupling(p) / collective_coupling_noninteracting(p)
        assert ratio == pytest.approx(LIMIT_RATIO, rel=5e-3)


class TestTwoModeDoublet:
    """The doublet kernel at one point: rows detuning, half-splitting, upper
    and lower branch, then the exciton and photon amplitudes of each."""

    def test_resonant_half_half(self):
        _, _, upper, lower, *amps = one_doublet(4e14, 4e14, 2.55e7)
        assert upper - lower == pytest.approx(5.1e7, rel=1e-12)
        for a in amps:
            assert a * a == pytest.approx(0.5, abs=1e-12)

    def test_large_positive_detuning(self):
        _, _, _, _, _, y_up, x_low, _ = one_doublet(4e14 + 2e10, 4e14, 2.55e7)
        assert x_low * x_low > 0.999
        assert y_up * y_up > 0.999

    def test_large_negative_detuning(self):
        _, _, _, _, x_up, _, _, y_low = one_doublet(4e14 - 2e10, 4e14, 2.55e7)
        assert x_up * x_up > 0.999
        assert y_low * y_low > 0.999

    def test_splitting_geometry(self):
        detuning, half, upper, lower, *_ = one_doublet(4.0001e14, 4e14, 1.7e7)
        # branch energies sit on the 4e14 Hz carrier, so their difference is
        # ulp-limited there; compare at 1e-9
        assert upper - lower == pytest.approx(2 * half, rel=1e-9)
        assert half >= abs(detuning)

    def test_normalization_and_completeness(self):
        rng = np.random.default_rng(11)
        cases = [(4e14, 4e14, 0.0), (4e14 + 5e7, 4e14, 0.0), (4e14 - 5e7, 4e14, 0.0)]
        cases += [
            (4e14 + rng.uniform(-2e8, 2e8), 4e14 + rng.uniform(-2e8, 2e8), rng.uniform(0, 5e7))
            for _ in range(500)
        ]
        for cavity, exciton, coupling in cases:
            x_up, y_up, x_low, y_low = (a * a for a in one_doublet(cavity, exciton, coupling)[4:])
            assert x_up + y_up == pytest.approx(1.0, abs=1e-12)
            assert x_low + y_low == pytest.approx(1.0, abs=1e-12)
            assert x_up + x_low == pytest.approx(1.0, abs=1e-12)
            assert y_up + y_low == pytest.approx(1.0, abs=1e-12)

    def test_against_direct_2x2_diagonalization(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            cavity = 4e14 + rng.uniform(-1e8, 1e8)
            exciton = 4e14 + rng.uniform(-1e8, 1e8)
            coupling = rng.uniform(1e5, 5e7)
            _, _, upper, lower, x_up, _, _, y_low = one_doublet(cavity, exciton, coupling)
            vals, vecs = np.linalg.eigh(np.array([[exciton, coupling], [coupling, cavity]]))
            assert lower == pytest.approx(vals[0], rel=1e-12)
            assert upper == pytest.approx(vals[1], rel=1e-12)
            assert vecs[0, 1] ** 2 == pytest.approx(x_up * x_up, abs=1e-12)
            assert vecs[1, 0] ** 2 == pytest.approx(y_low * y_low, abs=1e-12)

    def test_zero_coupling_pure_states(self):
        x_up, y_up, x_low, y_low = (a * a for a in one_doublet(4e14 + 1e8, 4e14, 0.0)[4:])
        assert (x_up, y_up) == (0.0, 1.0)
        assert (x_low, y_low) == (1.0, 0.0)
        x_up, y_up = (a * a for a in one_doublet(4e14 - 1e8, 4e14, 0.0)[4:6])
        assert (x_up, y_up) == (1.0, 0.0)

    def test_fully_degenerate_convention(self):
        _, _, upper, lower, *amps = one_doublet(4e14, 4e14, 0.0)
        assert upper == lower == 4e14
        assert amps == [1.0, 0.0, 0.0, 1.0]


TWO, NON = ModelVariant.TWO_MODE_SUPERRADIANT, ModelVariant.NONINTERACTING_COLLECTIVE


def vacuum_rabi(params, variant, num_sites):
    """rabi_splitting with the cavity on the variant's own line."""
    return rabi_splitting(params, variant, num_sites, params.theta_rad)


def generalized_rabi(params, variant, num_sites, theta_rad):
    """rabi_splitting with the cavity on the bare atomic line."""
    return rabi_splitting(params, variant, num_sites, theta_rad, params.atom_frequency_hz)


class TestVacuumRabiVsN:
    def test_reference_values(self):
        omega_int = vacuum_rabi(REF, TWO, 1000)
        omega_non = vacuum_rabi(REF, NON, 1000)
        assert omega_int == pytest.approx(5.1e7, rel=0.02)
        assert omega_non == pytest.approx(2 * 2.835e7, rel=0.02)
        assert omega_non - omega_int == pytest.approx(5e6, rel=0.25)

    def test_noninteracting_exact_sqrt_n(self):
        results = {n: vacuum_rabi(REF, NON, n) for n in [1, 4, 9, 100]}
        for n, omega in results.items():
            assert omega == pytest.approx(math.sqrt(n) * results[1], rel=1e-12)

    def test_ratio_monotone_to_limit(self):
        counts = [2, 3, 5, 10, 20, 50, 100, 300, 1000, 3000]
        ratios = [vacuum_rabi(REF, TWO, n) / vacuum_rabi(REF, NON, n) for n in counts]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(LIMIT_RATIO, rel=5e-3)

    @pytest.mark.parametrize("variant", [TWO, NON])
    def test_refuses_what_system_params_refuses(self, variant):
        for theta, num_sites, message in [
            (0.0, 0, "num_sites must be an integer in 1..100000000, got 0"),
            (0.0, 10**8 + 1, "num_sites must be an integer in 1..100000000, got 100000001"),
            (math.nan, 10, "theta_rad must be a finite number, got nan"),
        ]:
            for cavity_hz in (None, REF.atom_frequency_hz):
                with pytest.raises(InvalidParameterError) as refused:
                    rabi_splitting(REF, variant, num_sites, theta, cavity_hz)
                assert str(refused.value) == message

    def test_superradiant_line_below_zero_is_refused(self):
        # J is so large that the superradiant line, where the cavity sits,
        # is negative from N = 2 on.
        params = SystemParams(dipole_Cm=3e-24, cavity_frequency_hz=4e14)
        assert vacuum_rabi(params, TWO, 1) > 0.0
        with pytest.raises(InvalidParameterError, match="cavity_frequency_hz must be a positive"):
            vacuum_rabi(params, TWO, 2)
        omega = vacuum_rabi(params, NON, 2)
        assert omega == 2.0 * collective_coupling_noninteracting(replace(params, num_sites=2))

    def test_multimode_not_supported(self):
        for cavity_hz in (None, REF.atom_frequency_hz):
            with pytest.raises(ValueError, match="two-mode or noninteracting"):
                rabi_splitting(REF, ModelVariant.FULL_MULTIMODE, 10, 0.0, cavity_hz)


class TestGeneralizedRabi:
    def test_magic_angle_equals_vacuum_splitting(self):
        resonant = SystemParams(cavity_frequency_hz=REF.atom_frequency_hz)
        expected = 2.0 * superradiant_coupling(resonant)
        omega = generalized_rabi(REF, TWO, 1000, MAGIC_ANGLE_RAD)
        assert omega == pytest.approx(expected, rel=1e-12)
        assert omega < generalized_rabi(REF, NON, 1000, MAGIC_ANGLE_RAD)

    def test_parallel_dipole_value(self):
        # frozen from the rounded transfer and coupling scales
        expected = 2.0 * math.hypot(6.8e7 * math.cos(math.pi / 1001), 2.55e7)
        omega = generalized_rabi(REF, TWO, 1000, 0.0)
        assert omega == pytest.approx(expected, rel=0.01)
        assert omega == pytest.approx(1.45e8, rel=0.01)

    def test_perpendicular_dipole_value(self):
        expected = 2.0 * math.hypot(3.4e7 * math.cos(math.pi / 1001), 2.55e7)
        omega = generalized_rabi(REF, TWO, 1000, math.pi / 2)
        assert omega == pytest.approx(expected, rel=0.01)
        assert omega == pytest.approx(8.5e7, rel=0.01)

    def test_minimum_at_magic_angle(self):
        thetas = np.linspace(0.0, math.pi / 2, 499)
        omegas = np.array([generalized_rabi(REF, TWO, 1000, t) for t in thetas])
        floor = generalized_rabi(REF, TWO, 1000, MAGIC_ANGLE_RAD)
        assert np.all(omegas >= floor)
        step = thetas[1] - thetas[0]
        assert abs(thetas[np.argmin(omegas)] - MAGIC_ANGLE_RAD) < step

    def test_noninteracting_theta_independent(self):
        values = {generalized_rabi(REF, NON, 1000, t) for t in (0.0, 0.4, MAGIC_ANGLE_RAD, 1.2)}
        assert len(values) == 1


def reference_vacuum_rabi(params, num_sites, variant):
    """Per-variant vacuum Rabi formula: the cavity on the superradiant line
    (None) or on the bare atomic line, then twice the coupling."""
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        p = replace(params, num_sites=num_sites, cavity_frequency_hz=None)
        return 2.0 * superradiant_coupling(p)
    p = replace(params, num_sites=num_sites, cavity_frequency_hz=params.atom_frequency_hz)
    return 2.0 * collective_coupling_noninteracting(p)


def reference_generalized_rabi(params, theta_rad, num_sites, variant):
    """Per-variant generalized Rabi formula with the cavity on the atomic line."""
    p = replace(
        params, theta_rad=theta_rad, num_sites=num_sites,
        cavity_frequency_hz=params.atom_frequency_hz,
    )
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return 2.0 * collective_coupling_noninteracting(p)
    detuning = (p.atom_frequency_hz - superradiant_energy(p)) / 2.0
    return 2.0 * math.hypot(detuning, superradiant_coupling(p))


@settings(max_examples=400, deadline=None)
@given(
    num_sites=st.integers(min_value=1, max_value=10**7),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    waist=st.floats(min_value=1e-6, max_value=1e-2),
    atom_hz=st.floats(min_value=1e13, max_value=1e16),
    cavity_hz=st.one_of(st.none(), st.floats(min_value=1e13, max_value=1e16)),
    variant=st.sampled_from([TWO, NON]),
)
def test_rabi_splittings_match_per_variant_formulas_bitwise(
    num_sites, theta, waist, atom_hz, cavity_hz, variant
):
    params = SystemParams(
        beam_waist_m=waist, atom_frequency_hz=atom_hz, cavity_frequency_hz=cavity_hz
    )
    # Within the kernel's bound: the formulas take math.hypot, the kernel
    # np.hypot.
    expected = reference_vacuum_rabi(params, num_sites, variant)
    got = rabi_splitting(params, variant, num_sites, params.theta_rad)
    assert ulps(got, expected) <= KERNEL_ULPS
    expected = reference_generalized_rabi(params, theta, num_sites, variant)
    got = rabi_splitting(params, variant, num_sites, theta, atom_hz)
    assert ulps(got, expected) <= KERNEL_ULPS


class TestMultimode:
    def test_dark_modes_exact_eigenpairs(self):
        p = SystemParams(num_sites=40)
        result = multimode_diagonalize(p)
        energies = exciton_energies(p)
        for k in range(2, 41, 2):
            column = int(np.nonzero(result.eigenvectors[k - 1, :] == 1.0)[0][0])
            assert result.frequencies_hz[column] == energies[k - 1]
            assert result.photon_weights[column] == 0.0

    def test_single_site_matches_doublet(self):
        p = SystemParams(num_sites=1)
        result = multimode_diagonalize(p)
        upper, lower, x_up, _, _, y_low = own_doublet(p)
        assert result.frequencies_hz[0] == pytest.approx(lower, rel=1e-12)
        assert result.frequencies_hz[1] == pytest.approx(upper, rel=1e-12)
        assert result.photon_weights[0] == pytest.approx(y_low, abs=1e-12)
        assert result.exciton_weights[1, 0] == pytest.approx(x_up, abs=1e-12)

    def test_orthonormal_eigenvectors(self):
        result = multimode_diagonalize(SystemParams(num_sites=120))
        gram = result.eigenvectors.T @ result.eigenvectors
        assert np.abs(gram - np.eye(121)).max() < 1e-9

    def test_weights_sum_to_one(self):
        result = multimode_diagonalize(SystemParams(num_sites=33))
        totals = result.photon_weights + result.exciton_weights.sum(axis=1)
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)

    def test_interlacing_sweep(self):
        for n in range(1, 201, 7):
            p = SystemParams(num_sites=n)
            lam = multimode_diagonalize(p).frequencies_hz
            bare = np.sort(exciton_energies(p))
            assert np.all(lam[:-1] <= bare + 1.0)
            assert np.all(bare <= lam[1:] + 1.0)

    def test_brackets_two_mode_doublet(self):
        # The 2x2 problem is a principal submatrix, so its eigenvalues must
        # lie inside the extreme photon-carrying multimode eigenvalues.
        for n in (2, 5, 10, 20, 50):
            p = SystemParams(num_sites=n)
            result = multimode_diagonalize(p)
            upper, lower, *_ = own_doublet(p)
            carried = result.frequencies_hz[result.photon_weights > 0.0]
            assert carried[0] <= lower
            assert carried[-1] >= upper

    def test_truncation_deviation_report(self):
        # How far the photon-dominated doublet moves when every bright mode
        # is kept: not at all at N = 2 and 10, by 13 % at 50 and 11 % at 1000.
        bounds = {2: (0.999, 1.001), 10: (0.999, 1.001), 50: (1.12, 1.14), 1000: (1.10, 1.12)}
        for n, (low, high) in bounds.items():
            p = SystemParams(num_sites=n)
            result = multimode_diagonalize(p)
            upper, lower, *_ = own_doublet(p)
            top2 = np.sort(np.argsort(result.photon_weights)[-2:])
            multi = result.frequencies_hz[top2[1]] - result.frequencies_hz[top2[0]]
            ratio = multi / (upper - lower)
            print(f"N={n}: multimode/two-mode splitting ratio = {ratio:.4f}")
            assert low < ratio < high, (n, ratio)

    def test_envelope_flag(self):
        p = SystemParams(num_sites=30)
        flat = multimode_diagonalize(p, include_envelope=False)
        exact = multimode_diagonalize(p, include_envelope=True)
        # reference chain is far inside the waist: tiny but nonzero difference
        dev = np.abs(flat.frequencies_hz - exact.frequencies_hz).max()
        assert dev < 1e-3 * superradiant_coupling(p)
        long_chain = SystemParams(num_sites=30, beam_waist_m=1.5e-6)
        suppressed = multimode_diagonalize(long_chain, include_envelope=True)
        bare = multimode_diagonalize(long_chain, include_envelope=False)

        def doublet_splitting(result):
            top2 = np.sort(np.argsort(result.photon_weights)[-2:])
            return result.frequencies_hz[top2[1]] - result.frequencies_hz[top2[0]]

        # envelope weakens the coupling, shrinking the polariton splitting
        assert doublet_splitting(suppressed) < doublet_splitting(bare)
