import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattice_polariton
from lattice_polariton import (
    EPSILON_0,
    PLANCK_H,
    SystemParams,
    cavity_frequency,
    coupling_sum,
    envelope_mode_couplings,
    exciton_energies,
    mode_coupling_array,
    mode_volume,
    oscillator_fractions,
    site_coupling,
    site_positions,
    transfer_parameter,
)
from oracles import (
    SiteHamiltonian, coupling_sum_rule, diagonalize_site_hamiltonian, sine_mode_vector,
)

REF = SystemParams()


class TestEnergies:
    def test_single_site_sits_midband(self):
        assert exciton_energies(SystemParams(num_sites=1))[0] == pytest.approx(4e14, rel=1e-12)

    def test_lowest_mode_shift(self):
        shift = exciton_energies(REF)[0] - REF.atom_frequency_hz
        assert shift == pytest.approx(-1.35e8, rel=0.02)
        # recovering the shift from the absolute energy loses the bits below
        # the 4e14 Hz carrier, so compare at 1e-9 rather than machine precision
        assert shift == pytest.approx(
            2.0 * transfer_parameter(REF) * math.cos(math.pi / 1001), rel=1e-9
        )

    def test_band_width(self):
        energies = exciton_energies(REF)
        width = energies.max() - energies.min()
        assert width == pytest.approx(4.0 * abs(transfer_parameter(REF)), rel=1e-4)
        assert width == pytest.approx(2.72e8, rel=0.02)
        # approaches 4|J| from below as N grows
        wide = exciton_energies(SystemParams(num_sites=4000))
        assert (wide.max() - wide.min()) > width

    def test_ordering_follows_transfer_sign(self):
        ascending = exciton_energies(SystemParams(num_sites=9))
        assert np.all(np.diff(ascending) > 0)  # negative transfer
        descending = exciton_energies(SystemParams(num_sites=9, theta_rad=math.pi / 2))
        assert np.all(np.diff(descending) < 0)  # positive transfer


class TestSineModes:
    def test_single_site(self):
        np.testing.assert_allclose(sine_mode_vector(1, 1), [1.0], rtol=1e-15)

    def test_three_site_second_mode(self):
        expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(sine_mode_vector(2, 3), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 17, 64])
    def test_orthonormal_basis(self, n):
        basis = np.column_stack([sine_mode_vector(k, n) for k in range(1, n + 1)])
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)

    def test_node_count_is_k_minus_1(self):
        n = 11
        for k in range(1, n + 1):
            v = sine_mode_vector(k, n)
            signs = np.sign(v[np.abs(v) > 1e-9])
            assert int(np.sum(signs[:-1] != signs[1:])) == k - 1

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_index_range(self, k):
        with pytest.raises(ValueError):
            sine_mode_vector(k, 5)


class TestCouplingSum:
    def test_two_site_value_both_routes(self):
        direct = math.sin(math.pi / 3) + math.sin(2 * math.pi / 3)
        assert direct == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert coupling_sum(1, 2) == pytest.approx(direct, rel=1e-12)

    def test_even_modes_exactly_zero(self):
        for n, k in [(2, 2), (5, 2), (5, 4), (100, 50)]:
            assert coupling_sum(k, n) == 0.0

    def test_single_site(self):
        assert coupling_sum(1, 1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_direct_sine_sum(self, n):
        for k in range(1, n + 1, 2):
            direct = sum(math.sin(math.pi * i * k / (n + 1)) for i in range(1, n + 1))
            assert coupling_sum(k, n) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_index_range(self):
        with pytest.raises(ValueError):
            coupling_sum(3, 2)


class TestModeCouplings:
    def test_reference_values(self):
        g = mode_coupling_array(REF)
        assert g[0] == pytest.approx(2.55e7, rel=0.02)
        assert g[2] == pytest.approx(8.5e6, rel=0.02)

    def test_first_to_third_ratio(self):
        g = mode_coupling_array(REF)
        assert g[0] / g[2] == pytest.approx(3.0, rel=1e-3)

    def test_small_k_ratio_approximation(self):
        # |f_1| / |f_k| ~ k holds to 0.1% for small k at N = 1000
        g = mode_coupling_array(REF)
        for k in (3, 5):
            assert g[0] / g[k - 1] == pytest.approx(k, rel=1e-3)

    def test_darkness_by_parity(self):
        g = mode_coupling_array(SystemParams(num_sites=40))
        k = np.arange(1, 41)
        assert np.all(g[k % 2 == 0] == 0.0)
        assert np.all(g[k % 2 == 1] > 0.0)

    def test_bright_couplings_strictly_decrease(self):
        g = mode_coupling_array(REF)[::2]  # odd k
        assert np.all(np.diff(g) < 0)

    def test_total_weight_equals_n_single_sites(self):
        # sum of coupling^2 over modes = N nu_c mu^2 / (2 eps0 V h)
        g = mode_coupling_array(REF)
        expected = (
            REF.num_sites
            * cavity_frequency(REF)
            * REF.dipole_Cm**2
            / (2.0 * EPSILON_0 * mode_volume(REF) * PLANCK_H)
        )
        assert float((g**2).sum()) == pytest.approx(expected, rel=1e-9)


def per_mode_couplings(params):
    """The per-k loop that mode_coupling_array replaced: the scalar
    coupling_sum of every odd mode times the mode normalisation."""
    n = params.num_sites
    scale = site_coupling(params) * math.sqrt(2.0 / (n + 1))
    couplings = np.zeros(n)
    for k in range(1, n + 1, 2):
        couplings[k - 1] = scale * coupling_sum(k, n)
    return couplings


@pytest.mark.parametrize("num_sites", [1, 2, 7, 1000, 198_238])
@pytest.mark.parametrize("theta_rad", [0.0, 1.2])
def test_mode_couplings_equal_the_per_mode_loop(num_sites, theta_rad):
    params = SystemParams(num_sites=num_sites, theta_rad=theta_rad)
    assert np.array_equal(mode_coupling_array(params), per_mode_couplings(params))


def dense_envelope_couplings(params):
    """The N x N sine-matrix projection that envelope_mode_couplings replaced."""
    n = params.num_sites
    per_site = site_coupling(params) * np.exp(-((site_positions(params) / params.beam_waist_m) ** 2))
    sites = np.arange(1, n + 1)
    transform = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(sites, sites) / (n + 1))
    return transform.T @ per_site


class TestEnvelopeCouplings:
    @pytest.mark.parametrize("num_sites", [1, 2, 7, 400, 2000])
    @pytest.mark.parametrize("waist", [3e-4, 2e-5])
    def test_matches_dense_sine_transform(self, num_sites, waist):
        params = SystemParams(num_sites=num_sites, beam_waist_m=waist)
        fast = envelope_mode_couplings(params)
        dense = dense_envelope_couplings(params)
        odd = slice(0, None, 2)
        assert np.abs(fast[odd] - dense[odd]).max() <= 1e-12 * np.abs(dense).max()
        # The dense transform leaves rounding noise where parity demands 0.
        assert np.abs(dense[1::2]).max(initial=0.0) <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("num_sites", [2, 7, 400, 2001])
    def test_even_modes_exactly_dark(self, num_sites):
        g = envelope_mode_couplings(SystemParams(num_sites=num_sites, beam_waist_m=2e-5))
        assert np.all(g[1::2] == 0.0)
        assert np.all(g[0:20:2] != 0.0)

    @pytest.mark.parametrize("num_sites", [7, 400])
    def test_wide_waist_tends_to_flat_couplings(self, num_sites):
        errors = []
        for waist in (1e-5, 1e-3, 1e-1, 1e3, 1e6):
            params = SystemParams(num_sites=num_sites, beam_waist_m=waist)
            flat = mode_coupling_array(params)
            errors.append(np.abs(envelope_mode_couplings(params) - flat).max() / flat[0])
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-12


def flat_fractions(params):
    return oscillator_fractions(mode_coupling_array(params))


class TestOscillatorFractions:
    def test_reference_fractions(self):
        fractions = flat_fractions(REF)
        assert fractions[0] == pytest.approx(0.81, abs=0.01)
        assert fractions[2] == pytest.approx(0.09, abs=0.005)

    def test_normalised(self):
        assert flat_fractions(REF).sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_site(self):
        np.testing.assert_allclose(flat_fractions(SystemParams(num_sites=1)), [1.0])

    def test_large_n_limits(self):
        fractions = flat_fractions(SystemParams(num_sites=20_000))
        assert fractions[0] == pytest.approx(8.0 / math.pi**2, rel=1e-3)
        assert fractions[2] == pytest.approx(8.0 / (9.0 * math.pi**2), rel=1e-3)

    def test_envelope_couplings(self):
        # A waist much shorter than the chain lights only its middle, which
        # spreads the strength over many bright modes; even modes stay dark.
        params = SystemParams(num_sites=400, beam_waist_m=3e-6)
        fractions = oscillator_fractions(envelope_mode_couplings(params))
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(fractions[1::2] == 0.0)
        assert fractions[0] < flat_fractions(params)[0]


class TestCouplingSumRule:
    def test_small_cases(self):
        assert coupling_sum_rule(1) == pytest.approx(1.0, rel=1e-12)
        # cot^2(pi/8) + cot^2(3 pi/8) = (3 + 2 sqrt2) + (3 - 2 sqrt2) = 6
        assert (3 + 2 * math.sqrt(2)) + (3 - 2 * math.sqrt(2)) == pytest.approx(6.0)
        assert coupling_sum_rule(3) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 10, 100, 1000, 198_238])
    def test_closed_form(self, n):
        assert coupling_sum_rule(n) == pytest.approx(n * (n + 1) / 2.0, rel=1e-9)


class TestSiteHamiltonianOracle:
    def test_package_import_leaves_scipy_unloaded(self, tmp_path):
        # scipy is a test dependency only, and the arrowhead solver is imported
        # only by multimode_diagonalize, which the command line never calls.
        env = dict(os.environ, PYTHONPATH=str(Path(lattice_polariton.__file__).parents[1]))
        out = str(tmp_path / "fig5.csv")
        code = (
            "import contextlib, io, sys, lattice_polariton\n"
            "from lattice_polariton import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['figure', '5', '--out', {out!r}]) == 0\n"
            "print('scipy' in sys.modules, 'lattice_polariton.arrowhead' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False False"

    def test_three_site_spectrum(self):
        vals, _ = diagonalize_site_hamiltonian(SiteHamiltonian(dim=3, diagonal_hz=0.0, offdiag_hz=1.0))
        np.testing.assert_allclose(vals, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_zero_transfer_degenerate(self):
        vals, _ = diagonalize_site_hamiltonian(SiteHamiltonian(dim=6, diagonal_hz=4e14, offdiag_hz=0.0))
        np.testing.assert_array_equal(vals, np.full(6, 4e14))

    def test_matrix_layout(self):
        m = SiteHamiltonian(dim=3, diagonal_hz=5.0, offdiag_hz=-2.0).matrix()
        np.testing.assert_array_equal(m, [[5, -2, 0], [-2, 5, -2], [0, -2, 5]])

    def test_energies_match_analytic_sweep(self):
        for n in range(1, 201):
            p = SystemParams(num_sites=n)
            vals, _ = diagonalize_site_hamiltonian(SiteHamiltonian.from_params(p))
            analytic = np.sort(exciton_energies(p))
            np.testing.assert_allclose(vals, analytic, rtol=1e-9)

    def test_eigenvectors_match_sine_modes(self):
        # Structural check at unit transfer and zero onsite energy, where the
        # eigenvector problem is perfectly conditioned; the vectors themselves
        # do not depend on either scale.
        worst = 0.0
        for n in range(1, 201):
            h = SiteHamiltonian(dim=n, diagonal_hz=0.0, offdiag_hz=1.0)
            vals, vecs = diagonalize_site_hamiltonian(h)
            k = np.arange(1, n + 1)
            order = np.argsort(2.0 * np.cos(np.pi * k / (n + 1)), kind="stable")
            for col, kk in enumerate(order + 1):
                expected = sine_mode_vector(int(kk), n)
                v = vecs[:, col]
                if np.dot(expected, v) < 0:
                    v = -v
                worst = max(worst, float(np.abs(v - expected).max()))
        assert worst <= 1e-9
