import json
import math

import numpy as np
import pytest

from lattice_polariton import (
    EPSILON_0,
    MAGIC_ANGLE_RAD,
    PLANCK_H,
    ConfigError,
    InvalidParameterError,
    SystemParams,
    cavity_frequency,
    chain_length,
    load_params,
    mode_volume,
    params_from_dict,
    site_positions,
    transfer_parameter,
    validate,
)
from lattice_polariton.params import MAX_NUM_SITES


def test_constants_pinned():
    assert PLANCK_H == 6.62607015e-34
    assert EPSILON_0 == 8.8541878128e-12


class TestModeVolume:
    def test_reference_value(self):
        # pi * (3e-4)^2 * 1.5e-3 / 4, evaluated independently
        expected = math.pi * (3e-4) ** 2 * 1.5e-3 / 4.0
        assert expected == pytest.approx(1.0602875205865551e-10, rel=1e-12)
        assert mode_volume(SystemParams()) == pytest.approx(expected, rel=1e-12)

    def test_formula_inversion(self):
        p = SystemParams(beam_waist_m=2.0 / math.sqrt(math.pi), mirror_distance_m=1.0)
        assert mode_volume(p) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_in_waist(self):
        p1 = SystemParams()
        p2 = SystemParams(beam_waist_m=2 * p1.beam_waist_m)
        assert mode_volume(p2) == pytest.approx(4.0 * mode_volume(p1), rel=1e-12)

    def test_override(self):
        p = SystemParams(mode_volume_m3=1e-10)
        assert mode_volume(p) == 1e-10


class TestTransferParameter:
    def test_reference_value(self):
        assert transfer_parameter(SystemParams()) == pytest.approx(-6.8e7, rel=0.02)

    def test_magic_angle_zero(self):
        scale = abs(transfer_parameter(SystemParams()))
        assert abs(transfer_parameter(SystemParams(theta_rad=MAGIC_ANGLE_RAD))) < 1e-6 * scale

    def test_perpendicular_is_minus_half(self):
        parallel = transfer_parameter(SystemParams(theta_rad=0.0))
        perpendicular = transfer_parameter(SystemParams(theta_rad=math.pi / 2))
        assert perpendicular == pytest.approx(-0.5 * parallel, rel=1e-12)
        assert perpendicular == pytest.approx(3.39e7, rel=0.02)

    def test_single_zero_crossing_in_quadrant(self):
        thetas = np.linspace(0.0, math.pi / 2, 2001)
        values = np.array([transfer_parameter(SystemParams(theta_rad=t)) for t in thetas])
        below = thetas < MAGIC_ANGLE_RAD - 1e-4
        above = thetas > MAGIC_ANGLE_RAD + 1e-4
        assert np.all(values[below] < 0)
        assert np.all(values[above] > 0)

    def test_zero_crossing_location(self):
        from scipy.optimize import brentq

        root = brentq(
            lambda t: transfer_parameter(SystemParams(theta_rad=t)), 0.5, 1.2, xtol=1e-12
        )
        assert math.degrees(root) == pytest.approx(54.7356, abs=0.01)


class TestValidation:
    def test_reference_set_is_clean(self):
        p = SystemParams()
        assert validate(p) == []
        assert chain_length(p) == pytest.approx(1.001e-4, rel=1e-12)
        assert chain_length(p) < p.beam_waist_m

    def test_envelope_warning_for_long_chain(self):
        warnings = validate(SystemParams(num_sites=10_000))
        assert len(warnings) == 1
        assert "waist" in warnings[0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lattice_constant_m": 0.0},
            {"lattice_constant_m": -1e-7},
            {"num_sites": 0},
            {"num_sites": MAX_NUM_SITES + 1},
            {"num_sites": 10**21},
            {"beam_waist_m": 0.0},
            {"mirror_distance_m": -1.0},
            {"dipole_Cm": 0.0},
            {"atom_frequency_hz": 0.0},
            {"gamma_mirror_hz": -1.0},
            {"gamma_atom_hz": float("nan")},
            {"cavity_frequency_hz": 0.0},
            {"mode_volume_m3": -1e-10},
        ],
    )
    def test_bad_inputs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SystemParams(**kwargs)

    def test_largest_chain_accepted(self):
        # Validation allocates nothing, so the bound itself is cheap to build.
        assert SystemParams(num_sites=MAX_NUM_SITES).num_sites == MAX_NUM_SITES


class TestDerived:
    def test_site_positions_antisymmetric(self):
        for n in (1, 2, 7, 1000):
            r = site_positions(SystemParams(num_sites=n))
            assert r.shape == (n,)
            np.testing.assert_array_equal(r, -r[::-1])

    def test_site_positions_spacing(self):
        r = site_positions(SystemParams(num_sites=5))
        np.testing.assert_allclose(np.diff(r), 1e-7, rtol=1e-12)

    def test_chain_length_spans_sites_and_boundaries(self):
        # the two empty boundary sites add one spacing at each end
        p = SystemParams()
        r = site_positions(p)
        assert r.shape == (1000,)
        assert chain_length(p) == pytest.approx(r[-1] - r[0] + 2.0 * 1e-7, rel=1e-12)

    def test_cavity_defaults_to_lowest_exciton(self):
        p = SystemParams()
        shift = 2.0 * transfer_parameter(p) * math.cos(math.pi / 1001)
        assert cavity_frequency(p) == pytest.approx(4e14 + shift, rel=1e-15)
        explicit = SystemParams(cavity_frequency_hz=3.9e14)
        assert cavity_frequency(explicit) == 3.9e14


class TestJsonConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(
            json.dumps(
                {
                    "lattice_constant_m": 2e-7,
                    "num_sites": 12,
                    "theta_rad": 0.3,
                    "gamma_atom_hz": 5e6,
                }
            )
        )
        p = load_params(path)
        assert p.lattice_constant_m == 2e-7
        assert p.num_sites == 12
        assert p.theta_rad == 0.3
        assert p.gamma_atom_hz == 5e6
        # untouched fields keep the reference defaults
        assert p.beam_waist_m == 3e-4
        assert p.cavity_frequency_hz is None

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="foo"):
            params_from_dict({"foo": 1.0})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_params(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_params(path)
        with pytest.raises(ConfigError, match="^parameter file must hold a JSON object, got list$"):
            params_from_dict([1, 2])

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="num_sites"):
            params_from_dict({"num_sites": "many"})

    def test_site_count_above_bound(self):
        with pytest.raises(InvalidParameterError, match="num_sites"):
            params_from_dict({"num_sites": 1e30})

    def test_fractional_site_count(self):
        with pytest.raises(ConfigError, match="num_sites"):
            params_from_dict({"num_sites": 10.5})

    def test_non_positive_value(self):
        with pytest.raises(InvalidParameterError, match="lattice_constant_m"):
            params_from_dict({"lattice_constant_m": 0.0})
