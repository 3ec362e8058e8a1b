import csv
import io
import hashlib
import json
import math
import os
import string
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lattice_polariton
from lattice_polariton import (
    DampingSet, InvalidParameterError, ModelVariant, SystemParams, cavity_frequency, cli, exciton,
    load_params, spectra, superradiant_coupling, superradiant_energy, transfer_parameter,
)
from lattice_polariton.cli import _BLOCK_BYTES, FIGURE_IDS, _write_csv, main
from lattice_polariton.params import MAX_NUM_SITES, _superradiant_shift_at
from oracles import own_doublet

COMMANDS = ("dispersion", "couplings", "polariton", "spectrum", "rabi-vs-n", "rabi-vs-theta")


def read_csv(path):
    with open(path) as handle:
        lines = handle.readlines()
    rows = [line for line in lines if not line.startswith("#")]
    comments = [line for line in lines if line.startswith("#")]
    parsed = list(csv.reader(rows))
    return parsed[0], parsed[1:], comments


class TestParseConfig:
    """The CLI's parameter merge, defaults < --config file < flags, which
    load_params performs."""

    def test_empty_input_gives_reference_defaults(self):
        p = load_params()
        assert p.lattice_constant_m == 1e-7
        assert p.num_sites == 1000
        assert p.beam_waist_m == 3e-4
        assert p.mirror_distance_m == 1.5e-3
        assert p.dipole_Cm == 5e-29
        assert p.atom_frequency_hz == 4e14
        assert p.theta_rad == 0.0
        assert p.gamma_mirror_hz == p.gamma_cavity_hz == p.gamma_atom_hz == 1e7
        # cavity defaults to the lowest exciton line
        assert cavity_frequency(p) == pytest.approx(superradiant_energy(p), rel=1e-15)

    def test_magic_angle_config(self, tmp_path):
        path = tmp_path / "magic.json"
        path.write_text(json.dumps({"theta_rad": 0.9553}))
        p = load_params(path)
        assert abs(transfer_parameter(p)) < 1e-4 * abs(transfer_parameter(load_params()))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"num_sites": 7, "theta_rad": 0.2}))
        p = load_params(path, num_sites=11)
        assert p.num_sites == 11
        assert p.theta_rad == 0.2


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"foo": 1}))
        rc = main(["dispersion", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "foo" in capsys.readouterr().err

    def test_invalid_parameter(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_constant_m": 0.0}))
        rc = main(["dispersion", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "lattice_constant_m" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        rc = main(["dispersion", "--num-sites", "3", "--out", str(tmp_path / "no" / "dir" / "o.csv")])
        assert rc == 2

    def test_figure_rejects_explicit_cavity(self, tmp_path, capsys):
        rc = main(["figure", "5", "--nu-c-hz", "4e14", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "resonance" in capsys.readouterr().err

    def test_figure_rejects_cavity_in_config(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"cavity_frequency_hz": 4e14}))
        rc = main(["figure", "3a", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_figure_requires_id(self, tmp_path, capsys):
        rc = main(["figure", "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"num_sites": 1e400}', "num_sites"),
            ('{"num_sites": NaN}', "num_sites"),
            ('{"num_sites": -Infinity}', "num_sites"),
            ('{"theta_rad": 1' + "0" * 400 + "}", "theta_rad"),
            ('{"num_sites": 1' + "0" * 5000 + "}", "JSON"),
            ('{"num_sites": 1e30}', "num_sites"),
        ],
        ids=["overflow", "nan", "-inf", "huge-int-float-key", "over-long-int", "above-bound"],
    )
    def test_unusable_config_number_exits_1_without_traceback(self, text, key, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(text)
        rc = main(["dispersion", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["rabi-vs-n", "spectrum", "dispersion"])
    @pytest.mark.parametrize("num_sites", [str(MAX_NUM_SITES + 1), "1000000000000000000000"])
    def test_site_count_above_bound_exits_1(self, command, num_sites, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([command, "--num-sites", num_sites, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: num_sites") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("polariton --grid-points 100000000",
             "polariton at N = 1000 and 100000000 grid points needs about 8 GB"),
            ("figure 4b --grid-points 100000000",
             "figure 4b at N = 1000 and 100000000 grid points needs about 8 GB"),
            ("dispersion --num-sites 100000000", "dispersion at N = 100000000 needs about 6.4 GB"),
            ("couplings --num-sites 100000000", "couplings at N = 100000000 needs about 6.4 GB"),
            ("spectrum --grid-points 100000000",
             "spectrum at N = 1000 and 100000000 grid points needs about 5.6 GB"),
            ("spectrum --model multimode --envelope exact --num-sites 100000000",
             "spectrum at N = 100000000 and 2001 grid points needs about 6.4 GB"),
        ],
    )
    def test_dataset_over_the_memory_budget_exits_1(self, argv, message, tmp_path, capsys):
        # Sized before anything is allocated: the refusal takes no time.
        out = tmp_path / "o.csv"
        start = time.perf_counter()
        rc = main([*argv.split(), "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}, over the 2 GB limit\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        ["rabi-vs-n --num-sites 100000000", "spectrum --model multimode --num-sites 100000000"],
    )
    def test_runs_that_stay_small_at_the_site_bound_still_run(self, argv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main([*argv.split(), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["dispersion", "spectrum", "rabi-vs-theta", "polariton"])
    @pytest.mark.parametrize(
        "config",
        [
            {"dipole_Cm": 1e200},
            {"lattice_constant_m": 1e-120},
            {"beam_waist_m": 1e-200},
            {"mirror_distance_m": 1e300, "beam_waist_m": 1e300},
        ],
        ids=["dipole-overflow", "lattice-underflow", "waist-underflow", "cavity-overflow"],
    )
    def test_derived_quantity_out_of_range_exits_1(self, command, config, tmp_path, capsys):
        # Each config passes validation, but a derived scalar overflows or
        # divides by an underflowed zero.
        path = tmp_path / "p.json"
        path.write_text(json.dumps(config))
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a derived quantity is out of floating-point range")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["dispersion"], ["couplings"], ["figure", "3a"]])
    def test_mode_table_without_oscillator_strength_exits_1(self, command, tmp_path, capsys):
        # Every coupling underflows to 0, so no mode has a share of nothing.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"dipole_Cm": 1e-200}))
        out = tmp_path / "o.csv"
        rc = main([*command, "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the squared mode couplings sum to 0.0")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, column",
        [(["rabi-vs-theta"], "omega_int_hz"), (["figure", "7b"], "omega_int_theta0_hz")],
    )
    def test_non_finite_column_exits_1_before_writing(self, command, column, tmp_path, capsys):
        # The couplings, and so the splittings, overflow to inf while the
        # transfer rate stays finite (about -2.7e-7 Hz); no CSV may hold them.
        # The first row is named by the axis column.
        axis = {"omega_int_hz": "theta_rad = 0.0", "omega_int_theta0_hz": "N = 1"}[column]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"lattice_constant_m": 1e100, "dipole_Cm": 1e125, "mode_volume_m3": 1e-50}))
        out = tmp_path / "o.csv"
        rc = main([*command, "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: a derived quantity is out of floating-point range ({column} is not "
                       f"finite at {axis})\n")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [*COMMANDS, "figure 3a", "figure 5", "figure 7b"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dipole_Cm": 1e150}, "error: a derived quantity is out of floating-point range "
                                   "(the dipole-dipole transfer rate J is -inf Hz)"),
            ({"dipole_Cm": 1e-20}, "error: the dipole-dipole transfer rate J = -2.712785e+24 Hz "
                                   "puts the superradiant line, the default cavity frequency, "
                                   "at -5.425543e+24 Hz"),
        ],
        ids=["overflow", "negative-line"],
    )
    def test_unusable_transfer_rate_is_named(self, command, config, message, tmp_path, capsys):
        # J overflows, or is so large that the superradiant line (the default
        # cavity) is negative: every command refuses before it computes.
        path = tmp_path / "p.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        rc = main([*command.split(), "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        # The grid's lowest cavity is below 0 Hz: the first point is named.
        (["polariton", "--grid-span-hz", "1e15"], {},
         "cavity_frequency_hz must be a positive number, got -1600000135638581.0"),
        (["rabi-vs-n"], {"dipole_Cm": 3e-24, "cavity_frequency_hz": 4e14},
         "cavity_frequency_hz must be a positive number, got -2.4375064827030416e+17"),
        # The site coupling's denominator underflows to 0 at every point,
        # which leaves inf there; the line at N = 2 is below 0 Hz, a refusal.
        (["rabi-vs-n"], {"dipole_Cm": 3e-24, "cavity_frequency_hz": 4e14, "mode_volume_m3": 1e-300},
         "cavity_frequency_hz must be a positive number, got -2.4375064827030416e+17"),
        # The squared coupling underflows, and the doublet divides by its
        # root: the upper branch's photon weight is inf from 2 MHz on.
        (["figure", "4b"], {"dipole_Cm": 1e-161, "mode_volume_m3": 3e56},
         "a derived quantity is out of floating-point range "
         "(photon_weight_upper is not finite at delta_hz = 2000000.0)"),
        (["polariton"], {"lattice_constant_m": 1e100, "dipole_Cm": 5.6e124},
         "a derived quantity is out of floating-point range "
         "(upper_shift_hz is not finite at delta_hz = -100000000.0)"),
    ], ids=["grid-below-zero", "line-below-zero", "invariant-first", "root-underflow",
            "overflow"])
    def test_sweep_refusals_name_their_first_failure(self, argv, config, message, tmp_path,
                                                     capsys):
        # A refusal of SystemParams's names the first point it refuses; a
        # point the arithmetic cannot make is named by its row.  numpy's
        # warnings would be errors here.
        path = tmp_path / "p.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_any_non_finite_cell_is_refused(self, bad, monkeypatch, tmp_path, capsys):
        # The check runs on every dataset, for a NaN as for an inf, and names
        # the first bad row by the first column.
        columns = {"k": np.array([1, 2, 3, 4]), "x": np.array([1.0, bad, 2.0, bad])}
        table = dict(cli._DATASETS, dispersion=(lambda spec: cli.Dataset(columns), None, {}))
        monkeypatch.setattr(cli, "_DATASETS", table)
        out = tmp_path / "o.csv"
        assert main(["dispersion", "--out", str(out)]) == 1
        assert "(x is not finite at k = 2)\n" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_help_names_every_command_with_its_help_line(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        listing = capsys.readouterr().out.split("\ncommands:\n", 1)[1].splitlines()
        assert set(cli._COMMANDS) == {*COMMANDS, "figure"}
        assert [line.split(None, 1) for line in listing] == [list(c) for c in cli._COMMANDS.items()]

    @pytest.mark.parametrize("argv, stream, sha256", [
        (["--help"], "out", "957f7a8fdaaba5733e44570967a3e06db845cf3bc2959a3bb2e58fb20d6691f1"),
        (["polariton", "5"], "err",
         "d9a1194bed82d545b75b0abe44e139826af4928ac5565c028cf85ecaa6e3b08d"),
        (["bogus"], "err", "e011076841f52f274a6819f453eca7485b58860e112c84c18a1c085b8e064d1e"),
    ], ids=["help", "error-after-parsing", "error-while-parsing"])
    def test_help_and_usage_errors_keep_their_bytes(self, argv, stream, sha256, monkeypatch,
                                                     capsys):
        # The parser is built once and keeps its usage line; these are the
        # bytes of a parser built per call, at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        cli.build_parser.cache_clear()
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            text = getattr(capsys.readouterr(), stream)
            assert hashlib.sha256(text.encode()).hexdigest() == sha256, text
        cli.build_parser.cache_clear()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_figure_id_after_another_command_exits_2(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main([command, "5"])
        assert exited.value.code == 2
        assert f"error: {command} takes no figure id, got 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--num-sites", "7", "--out", "{out}", "figure", "3a"],
        ["figure", "--num-sites", "7", "--out", "{out}", "3a"],
        ["--num-sites", "7", "figure", "--out", "{out}", "3a"],
        ["figure", "3a", "--num-sites", "7", "--out", "{out}"],
    ])
    def test_flags_before_and_between_positionals_are_accepted(self, argv, tmp_path, capsys):
        reference = tmp_path / "reference.csv"
        assert main(["dispersion", "--num-sites", "7", "--out", str(reference)]) == 0
        out = tmp_path / "o.csv"
        assert main([a.format(out=out) for a in argv]) == 0
        assert out.read_bytes() == reference.read_bytes()


class TestGridFlags:
    """A grid flag out of range is refused, never replaced by a default, and
    so is a grid or envelope flag that the command would ignore."""

    @pytest.mark.parametrize("command", [*COMMANDS, "figure 4a", "figure 5", "figure 7a"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--grid-points", "0"),
            ("--grid-points", "-3"),
            ("--grid-span-hz", "0"),
            ("--grid-span-hz", "-2.5"),
        ],
    )
    def test_rejected_with_exit_1(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([*command.split(), f"{flag}={value}", "--num-sites", "50", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert flag in err and value in err
        assert "Number of samples" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["polariton", "spectrum", "rabi-vs-theta", "figure 7a"])
    @pytest.mark.parametrize("value", [str(MAX_NUM_SITES + 1), str(10**15)])
    def test_grid_points_above_site_bound_rejected(self, command, value, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([*command.split(), "--grid-points", value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid-points") and value in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("couplings --envelope exact", "--envelope"),
            ("couplings --grid-points 5 --grid-span-hz 3", "--grid-points"),
            ("dispersion --grid-span-hz 3", "--grid-span-hz"),
            ("rabi-vs-theta --grid-span-hz 1", "--grid-span-hz"),
            ("rabi-vs-n --grid-points 3", "--grid-points"),
            ("spectrum --envelope exact", "--envelope"),
            ("spectrum --model noninteracting --envelope exact", "--envelope"),
            ("figure 3a --grid-points 5", "--grid-points"),
            ("figure 5 --envelope exact", "--envelope"),
            ("figure 6 --grid-points 5", "--grid-points"),
            ("figure 7a --grid-span-hz 1", "--grid-span-hz"),
            ("figure 7b --grid-points 5", "--grid-points"),
            ("polariton --model multimode --envelope exact", "--envelope"),
        ],
    )
    def test_flag_the_command_ignores_is_refused(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([*argv.split(), "--num-sites", "50", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "figure 5 --model multimode --envelope exact",
            "figure 4a --grid-points 5 --grid-span-hz 1e7",
            "figure 7a --grid-points 5",
            "rabi-vs-n --nu-c-hz 4e14 --model noninteracting",
            "couplings --envelope flat --model multimode",
        ],
    )
    def test_flags_the_command_reads_are_accepted(self, argv, tmp_path, capsys):
        assert main([*argv.split(), "--num-sites", "50", "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("command", ["polariton", "spectrum", "figure 4a", "figure 5"])
    @pytest.mark.parametrize("span", ["1e308", "8.99e307", "inf", "nan"])
    def test_span_whose_grid_overflows_is_refused(self, command, span, tmp_path, capsys):
        # The pytest filters turn any numpy overflow warning into an error.
        out = tmp_path / "o.csv"
        assert main([*command.split(), "--grid-span-hz", span, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --grid-span-hz must be a positive number whose double is finite, "
            f"got {float(span)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["polariton", "spectrum"])
    def test_largest_span_with_a_finite_grid_is_refused_further_on(self, command, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main([command, "--grid-span-hz", "8.98e307", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--grid-span-hz" not in err
        assert not out.exists()

    def test_detuning_span_past_zero_hz_is_refused(self, tmp_path, capsys):
        # The cavity sweeps from the superradiant line down to -1.6e15 Hz.
        out = tmp_path / "o.csv"
        assert main(["polariton", "--grid-span-hz", "1e15", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cavity_frequency_hz must be a positive number, got -1600000135638581.0\n")
        assert not out.exists()

    def test_single_point_accepted(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["polariton", "--grid-points", "1", "--out", str(out)]) == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 1


class TestDefaultSpectrumGrid:
    """The default grid widens with Omega_0 ~ sqrt(N), so spectra at
    default settings keep both peaks at any size."""

    @pytest.mark.parametrize(
        "command, num_sites",
        [
            *[(f"spectrum --model {model}", n)
              for n in (1400, 2000, 5000) for model in ("two-mode", "multimode", "noninteracting")],
            *[(f"spectrum --model {model}", n)
              for n in (100_000, 1_000_000) for model in ("two-mode", "noninteracting")],
            ("figure 5", 5000),
        ],
    )
    def test_two_peaks_at_default_settings(self, command, num_sites, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main([*command.split(), "--num-sites", str(num_sites), "--out", str(out)]) == 0
        _, rows, comments = read_csv(out)
        values = np.array(rows, dtype=float)
        assert values.shape == (2001, 4) and np.isfinite(values).all()
        peaks = [c[2:].split(", ") for c in comments if c.startswith("# peak")]
        assert len(peaks) == 2
        for _, location, _, fwhm in peaks:
            assert values[0, 0] < float(location) < values[-1, 0] and float(fwhm) > 0.0

    def test_explicit_narrow_span_still_refused(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["spectrum", "--num-sites", "5000", "--grid-span-hz", "1.5e8", "--out", str(out)])
        assert rc == 1
        assert "does not cover" in capsys.readouterr().err


def dip_traces():
    """Spectra whose reflection has several dips (the multimode chain, with
    Gamma_a = 0 and 1e5 Hz) or two (the two-mode doublet), the first two
    cut so that a dip lies next to each end of the grid, and a dip onto
    R = 0 whose parabola passes 0, where the ceiling keeps its sample."""
    traces = []
    for theta_deg, gamma_atom_hz in ((30.0, 0.0), (0.0, 1e5), (30.0, 1e7)):
        params = SystemParams(num_sites=200, theta_rad=math.radians(theta_deg), gamma_atom_hz=gamma_atom_hz)
        for variant in (ModelVariant.FULL_MULTIMODE, ModelVariant.TWO_MODE_SUPERRADIANT):
            traces.append((params, variant, spectra.sweep(params, DampingSet.from_params(params), variant)))
    for params, variant, trace in traces[:2]:
        dips = [i for i, _, _ in spectra._maxima(trace.frequencies_hz, -trace.reflection, 0.0)]
        cut = slice(min(dips) - 1, max(dips) + 2)
        traces.append((params, variant, replace(
            trace, frequencies_hz=trace.frequencies_hz[cut], transmission=trace.transmission[cut],
            reflection=trace.reflection[cut])))
    params, variant, trace = traces[-1]
    reflection = np.array([0.5, 0.1, 0.001, 0.0, 0.002, 0.3, 1.0])
    traces.append((params, variant, replace(
        trace, frequencies_hz=4e14 + np.arange(7.0), transmission=1.0 - reflection, reflection=reflection)))
    return traces


@pytest.mark.parametrize("params, variant, trace", dip_traces())
def test_summary_dips_are_peak_finds_bit_for_bit(params, variant, trace):
    # The summary takes its dips from the maxima of -R without their
    # half-height searches; each location and depth must be peak_find's.
    found = spectra.peak_find(trace.frequencies_hz, -trace.reflection, ceiling=0.0)
    dips = spectra._maxima(trace.frequencies_hz, -trace.reflection, 0.0)
    assert [(p.location_hz.hex(), p.height.hex()) for p in found] == [
        (location.hex(), height.hex()) for _, location, height in dips]
    lines = cli._summary(params, variant, trace)
    printed = lines[lines.index("reflection dips (location_hz, depth):") + 1:]
    assert printed == [f"  {p.location_hz:.6e}  {-p.height:.4e}" for p in found]


class TestCommands:
    def test_dispersion_single_site(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        rc = main(["dispersion", "--num-sites", "1", "--out", str(out)])
        assert rc == 0
        header, rows, _ = read_csv(out)
        assert header[0] == "k"
        assert len(rows) == 1
        assert abs(float(rows[0][1])) < 1.0  # midband: shift below 1 Hz

    def test_class_column_follows_parity(self, tmp_path, capsys):
        out = tmp_path / "modes.csv"
        assert main(["couplings", "--num-sites", "40", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header[4] == "class"
        for row in rows:
            k, coupling = int(row[0]), float(row[2])
            if k % 2 == 0:
                assert row[4] == "dark" and coupling == 0.0
            else:
                assert row[4] == "bright" and coupling > 0.0

    def test_couplings_fig3b_ratios(self, tmp_path, capsys):
        out = tmp_path / "fig3b.csv"
        assert main(["figure", "3b", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        sq = {int(r[0]): float(r[3]) for r in rows}
        kinds = {int(r[0]): r[4] for r in rows}
        assert sq[1] / sq[3] == pytest.approx(9.0, rel=1e-3)
        assert sq[2] == 0.0 and kinds[2] == "dark"
        assert kinds[1] == "bright"

    def test_spectrum_fig5(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        assert main(["figure", "5", "--out", str(out)]) == 0
        header, rows, comments = read_csv(out)
        assert header == ["nu_hz", "nu_shift_hz", "transmission", "reflection"]
        assert len(rows) == 2001
        assert sum(1 for c in comments if c.startswith("# peak")) == 2
        stdout = capsys.readouterr().out
        assert "transmission peaks" in stdout
        assert "vacuum Rabi splitting" in stdout

    def test_spectrum_with_undamped_atoms(self, tmp_path, capsys):
        # The default grid's middle point is the float nearest the exciton
        # line, a pole when gamma_atom_hz = 0.  The line itself, an offset
        # 2 J cos(pi / (N+1)) from the atomic line, is not a float near
        # 4e14 Hz, so the point misses it by delta < 1/32 Hz, where
        # |t|^2 = (gamma delta / g^2)^2: almost no transmission, full
        # reflection, and no numpy warning or NaN anywhere.
        config = tmp_path / "undamped.json"
        config.write_text(json.dumps({"gamma_atom_hz": 0}))
        out = tmp_path / "undamped.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
        header, rows, comments = read_csv(out)
        values = np.array(rows, dtype=float)
        assert np.isfinite(values).all()
        middle = values[len(values) // 2]
        assert middle[1] == 0.0 and middle[3] == 1.0
        params = load_params()
        line = float(_superradiant_shift_at(transfer_parameter(params), params.num_sites))
        delta = (superradiant_energy(params) - params.atom_frequency_hz) - line
        assert 0.0 < abs(delta) <= 1.0 / 32.0
        expected = (params.gamma_mirror_hz * delta / superradiant_coupling(params) ** 2) ** 2
        assert middle[2] == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert sum(1 for c in comments if c.startswith("# peak")) == 2

    def test_spectrum_on_an_undamped_pole(self, tmp_path, capsys):
        # With the cavity on the atomic line the noninteracting grid's middle
        # point is that line exactly, a pole: t = 0 and r = 1 to the bit.
        config = tmp_path / "undamped.json"
        config.write_text(json.dumps({"gamma_atom_hz": 0}))
        out = tmp_path / "undamped.csv"
        argv = ["spectrum", "--model", "noninteracting", "--nu-c-hz", "4e14"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        values = np.array(read_csv(out)[1], dtype=float)
        assert np.isfinite(values).all()
        assert values[len(values) // 2].tolist() == [4e14, 0.0, 0.0, 1.0]

    def test_peaks_and_dips_next_to_a_transmission_zero(self, tmp_path, capsys):
        # Each doublet maximum has a one-point transmission zero beside it;
        # the parabolas through them once gave heights of 1.1245 and dips
        # of depth -0.1245.
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({
            "dipole_Cm": 1e-40, "gamma_atom_hz": 0, "gamma_cavity_hz": 0,
            "theta_rad": 0.9553166181245092, "num_sites": 857,
        }))
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--model", "multimode", "--config", str(config),
                     "--out", str(out)]) == 0
        _, rows, comments = read_csv(out)
        heights = [float(c.split(",")[2]) for c in comments if c.startswith("# peak")]
        assert heights == [max(float(r[2]) for r in rows)] * 2 == [9.99775050614e-01] * 2
        stdout = capsys.readouterr().out
        depths = [float(line.split()[1]) for line in stdout.split("depth):\n")[1].splitlines()[:-1]]
        assert depths == [2.2495e-04] * 2

    def test_polariton_resonant_weights(self, tmp_path, capsys):
        out = tmp_path / "pol.csv"
        assert main(["polariton", "--grid-points", "11", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        mid = rows[len(rows) // 2]  # delta = 0
        assert float(mid[0]) == 0.0
        for cell in mid[3:7]:
            assert float(cell) == pytest.approx(0.5, abs=1e-12)

    def test_figure_4a_branches(self, tmp_path, capsys):
        out = tmp_path / "fig4a.csv"
        assert main(["figure", "4a", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["delta_hz", "upper_shift_hz", "lower_shift_hz"]
        for row in rows:
            assert float(row[1]) > float(row[2])

    def test_rabi_vs_n_difference(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        assert main(["figure", "6", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["N", "omega0_int_hz", "omega0_nonint_hz"]
        assert int(rows[0][0]) == 1
        last = rows[-1]
        assert int(last[0]) == 1000
        assert float(last[2]) - float(last[1]) == pytest.approx(5e6, rel=0.25)

    def test_rabi_vs_theta_minimum(self, tmp_path, capsys):
        out = tmp_path / "fig7a.csv"
        assert main(["figure", "7a", "--out", str(out)]) == 0
        _, rows, _ = read_csv(out)
        thetas = [float(r[0]) for r in rows]
        omegas = [float(r[1]) for r in rows]
        nonint = {float(r[2]) for r in rows}
        assert len(nonint) == 1  # angle-independent
        magic = math.acos(1 / math.sqrt(3))
        best = thetas[omegas.index(min(omegas))]
        assert abs(best - magic) < thetas[1] - thetas[0]
        assert min(omegas) < next(iter(nonint))

    def test_figure_7b_columns(self, tmp_path, capsys):
        out = tmp_path / "fig7b.csv"
        assert main(["figure", "7b", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header[0] == "N" and len(header) == 5
        last = rows[-1]
        # at the magic angle the interacting splitting drops to the bare
        # doublet, below the noninteracting curve
        assert float(last[2]) < float(last[4])

    def test_all_presets_run(self, tmp_path, capsys):
        for fig in FIGURE_IDS:
            assert main(["figure", fig, "--out", str(tmp_path / f"f{fig}.csv")]) == 0

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "5", "--out", str(a)]) == 0
        assert main(["figure", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_half_height_crossing_writes_no_nan(self, tmp_path, capsys):
        # On a +-150 MHz grid the lower peak's outer half-height crossing lies
        # off the grid, so it has no FWHM: an empty field and "n/a", never "nan".
        out = tmp_path / "o.csv"
        argv = ["spectrum", "--nu-c-hz", "4.000001e14", "--grid-span-hz", "1.5e8"]
        assert main([*argv, "--out", str(out)]) == 0
        assert "nan" not in out.read_text().lower()
        stdout = capsys.readouterr().out
        assert "nan" not in stdout.lower() and "n/a" in stdout
        _, _, comments = read_csv(out)
        fields = [c[2:].rstrip("\n").split(", ") for c in comments if c.startswith("# peak")]
        assert [len(f) for f in fields] == [4, 4]
        assert fields[0][3] == "" and float(fields[1][3]) > 0.0

    def test_default_grid_follows_the_detuning(self, tmp_path, capsys):
        # The default half-span grows by half the cavity's detuning from the
        # superradiant line, so both peaks of the run above keep their FWHM.
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--nu-c-hz", "4.000001e14", "--out", str(out)]) == 0
        assert "n/a" not in capsys.readouterr().out
        _, rows, comments = read_csv(out)
        fields = [c[2:].rstrip("\n").split(", ") for c in comments if c.startswith("# peak")]
        assert len(fields) == 2
        assert all(0.0 < float(f[3]) < math.inf for f in fields)
        params = load_params(cavity_frequency_hz=4.000001e14)
        half_span = 1.5e8 + (cavity_frequency(params) - superradiant_energy(params)) / 2.0
        assert float(rows[-1][1]) == pytest.approx(half_span, rel=1e-15)

    def test_mode_table_takes_one_cotangent_pass(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = exciton.half_tangents
        monkeypatch.setattr(exciton, "half_tangents", lambda k, n: calls.append(n) or original(k, n))
        assert main(["couplings", "--num-sites", "40", "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == [40]

    def test_model_flag_spectrum(self, tmp_path, capsys):
        out = tmp_path / "nonint.csv"
        rc = main(["spectrum", "--model", "noninteracting", "--out", str(out)])
        assert rc == 0
        _, _, comments = read_csv(out)
        assert sum(1 for c in comments if c.startswith("# peak")) == 2


def post_init_calls(argv, tmp_path, monkeypatch):
    """SystemParams built (and validated) during one run of ``argv``."""
    calls = []
    original = SystemParams.__post_init__
    monkeypatch.setattr(SystemParams, "__post_init__", lambda self: calls.append(1) or original(self))
    assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 0
    monkeypatch.setattr(SystemParams, "__post_init__", original)
    return len(calls)


@pytest.mark.parametrize("command", ["polariton", "rabi-vs-n", "rabi-vs-theta", "figure 7b"])
def test_sweeps_build_no_system_params_per_point(command, tmp_path, monkeypatch, capsys):
    pairs = [("--num-sites", "50", "3000")]
    if command in ("polariton", "rabi-vs-theta"):
        pairs.append(("--grid-points", "11", "401"))
    for flag, small, large in pairs:
        counts = [post_init_calls([*command.split(), flag, size], tmp_path, monkeypatch)
                  for size in (small, large)]
        assert counts[0] == counts[1], (flag, counts)


# What the CSV writer's blocks add to a run's traced peak beyond the per-row
# budgets: the README's "about 1 MB whatever the rows", measured at 1.1-1.2 MB,
# with a margin.  rabi-vs-theta's own 37.6 bytes per point at 1e5 points,
# above its budgeted 32, falls inside it.
WRITER_ALLOWANCE_BYTES = 1.5e6


@pytest.mark.parametrize("argv", [
    "dispersion --num-sites 100000",
    "polariton --grid-points 100000",
    "spectrum --grid-points 100000",
    "spectrum --model multimode --grid-points 100000",
    "spectrum --model multimode --envelope exact --num-sites 100000",
    "rabi-vs-n --num-sites 100000",
    "rabi-vs-theta --grid-points 100000",
    "figure 7b --num-sites 100000",
])
def test_memory_budget_bounds_the_traced_peak(argv, tmp_path, capsys):
    """The per-site and per-point bytes that `run` refuses a dataset by are an
    upper bound: each builder, the check of its columns and the writer,
    traced at 1e5 rows, stay within them and the writer's allowance."""
    spec = cli._build_spec(cli.build_parser().parse_args([*argv.split(), "--out",
                                                          str(tmp_path / "o.csv")]))
    site_bytes, point_bytes = cli._ROW_BYTES.get(cli._DATASETS[spec.dataset][0], (0.0, 0.0))
    budget = ((site_bytes + cli._ENVELOPE_SITE_BYTES * spec.envelope_exact) * spec.params.num_sites
              + point_bytes * (spec.grid_points or 0))
    tracemalloc.start()
    try:
        assert cli.run(spec) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + WRITER_ALLOWANCE_BYTES, (peak, budget)


@settings(max_examples=150, deadline=None)
@given(
    num_sites=st.integers(1, 10**7),
    theta=st.floats(0.0, math.pi),
    dipole=st.floats(-31.0, -27.0).map(lambda e: 10.0**e),
    waist=st.floats(-6.0, -2.0).map(lambda e: 10.0**e),
    span=st.floats(0.0, 15.5).map(lambda e: 10.0**e),
    points=st.integers(1, 41),
)
def test_polariton_rows_match_per_point_doublets_bitwise(num_sites, theta, dipole, waist, span,
                                                         points):
    """Each `polariton` row against a doublet made alone on a SystemParams
    with that row's cavity, as the command made them before its kernel; a
    cavity at or below 0 Hz is refused by both with the same message."""
    params = SystemParams(num_sites=num_sites, theta_rad=theta, dipole_Cm=dipole,
                          beam_waist_m=waist)
    spec = cli.RunSpec("polariton", params, ModelVariant.TWO_MODE_SUPERRADIANT, Path("o.csv"),
                       grid_points=points, grid_span_hz=span)
    exciton_hz = superradiant_energy(params)
    cavities = (exciton_hz + 2.0 * np.linspace(-span, span, points)).tolist()
    try:
        doublets = [own_doublet(replace(params, cavity_frequency_hz=c)) for c in cavities]
    except InvalidParameterError as refused:
        with pytest.raises(InvalidParameterError) as also_refused:
            cli._polariton(spec)
        assert str(also_refused.value) == str(refused)
        return
    columns = cli._polariton(spec).columns
    assert columns["upper_shift_hz"].tolist() == [d[0] - exciton_hz for d in doublets]
    assert columns["lower_shift_hz"].tolist() == [d[1] - exciton_hz for d in doublets]
    for i, name in enumerate(cli._WEIGHTS, 2):
        assert columns[name].tolist() == [d[i] for d in doublets]


def readme_library_example():
    """The python block under the README's "## Library" heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with it blocked from import, every
    command, every preset, both multimode envelopes, the multimode
    eigenvectors and the README's library example still run."""
    runs = [[command] for command in COMMANDS]
    runs += [["figure", figure_id] for figure_id in FIGURE_IDS]
    runs += [["spectrum", "--model", "multimode", "--envelope", e] for e in ("flat", "exact")]
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from lattice_polariton import SystemParams, multimode_diagonalize\n"
        "from lattice_polariton.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {runs!r}:\n"
        "        assert main([*argv, '--out', 'out.csv']) == 0, argv\n"
        "    assert multimode_diagonalize(SystemParams(num_sites=50)).eigenvectors.shape == (51, 51)\n"
        f"    exec({readme_library_example()!r}, {{}})\n"
        "print(sys.modules['scipy'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lattice_polariton.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "None\n"


def test_module_entry_point_runs_main(tmp_path, monkeypatch, capsys):
    """``python -m lattice_polariton`` writes the bytes and the summary that
    ``cli.main`` writes in process."""
    argv = ["dispersion", "--num-sites", "7"]
    (tmp_path / "module").mkdir()
    (tmp_path / "main").mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(lattice_polariton.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "lattice_polariton", *argv],
                            cwd=tmp_path / "module", env=env, capture_output=True, text=True)
    monkeypatch.chdir(tmp_path / "main")
    assert main(argv) == 0
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out
    written = [(tmp_path / where / "dispersion.csv").read_bytes() for where in ("module", "main")]
    assert written[0] == written[1]


def reference_csv(header, rows, comments=()):
    """The per-cell writer that produced the reference datasets: csv.writer
    rows, floats as f"{v:.11e}", ints and strings as they are, and byte
    strings decoded."""
    handle = io.StringIO(newline="")
    for line in comments:
        handle.write(f"# {line}\n")
    writer = csv.writer(handle)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell.decode() if isinstance(cell, bytes) else
                         cell if isinstance(cell, (str, int)) else f"{cell:.11e}" for cell in row])
    return handle.getvalue().encode()


# Floats with the edge cases pinned in: signed zero, subnormals, +-1e300,
# infinities and NaN.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
)
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Strings the CSV quoting rules leave alone, as the dataset labels are.
STRS = st.text(alphabet=string.ascii_letters + string.digits + " _-.:", min_size=1, max_size=12)
# Doubles drawn as raw bit patterns, so that every binade turns up as often
# as any other, with subnormals, +-0, +-inf and NaN payloads among them.
BITS = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=20))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=6))
    strategy = {"float": FLOATS, "int": INTS, "str": STRS}
    dtype = {"float": np.float64, "int": np.int64, "str": np.bytes_}
    values = [draw(st.lists(strategy[kind], min_size=rows, max_size=rows)) for kind in kinds]
    names = [f"c{i}_{kind}" for i, kind in enumerate(kinds)]
    columns = {n: np.array(v, dtype=dtype[kind]) for n, v, kind in zip(names, values, kinds)}
    comments = draw(st.lists(STRS, max_size=3))
    return names, values, columns, tuple(comments)


@st.composite
def bit_tables(draw):
    """Float columns of raw bit patterns among int64 and label columns, in
    drawn order."""
    rows = draw(st.integers(min_value=1, max_value=40))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=6))
    columns = {}
    for i, kind in enumerate(kinds):
        cells = draw(st.lists({"float": BITS, "int": INTS, "str": STRS}[kind], min_size=rows, max_size=rows))
        column = np.array(cells, {"float": np.uint64, "int": np.int64, "str": np.bytes_}[kind])
        columns[f"c{i}_{kind}"] = column.view(np.float64) if kind == "float" else column
    return columns


class TestWriteCsv:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(table=tables())
    def test_bytes_match_per_cell_writer(self, table, tmp_path):
        names, values, columns, comments = table
        path = tmp_path / "t.csv"
        _write_csv(path, columns, comments)
        assert path.read_bytes() == reference_csv(names, list(zip(*values)), comments)

    # Rows per block of the table below: a 22-byte int field, a 20-byte float
    # field, a 17-byte field for labels padded with NULs to "S16", and the
    # line end.
    CHUNK_ROWS = _BLOCK_BYTES // (22 + 20 + 17 + 2)

    @pytest.mark.parametrize(
        "rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 4096, 8193]
    )
    def test_chunk_boundaries(self, rows, tmp_path):
        k = np.arange(rows)
        x = np.linspace(-1.0, 1.0, rows)
        label = np.where(k % 3 == 0, b"100%", b"%s%d").astype("S16")
        path = tmp_path / "t.csv"
        _write_csv(path, {"k": k, "x": x, "label": label}, ("50% done",))
        expected = reference_csv(["k", "x", "label"], zip(k.tolist(), x.tolist(), label.tolist()),
                                 ("50% done",))
        assert path.read_bytes() == expected

    def test_rows_span_several_chunks(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 10_001)
        k = np.arange(x.size)
        path = tmp_path / "t.csv"
        _write_csv(path, {"k": k, "x": x})
        assert path.read_bytes() == reference_csv(["k", "x"], zip(k.tolist(), x.tolist()))

    @pytest.mark.parametrize("block_bytes", [1, 61, 200, 1000])
    @pytest.mark.parametrize("rows", [1, 2, 3, 16, 17, 50])
    def test_small_blocks(self, block_bytes, rows, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        x = np.geomspace(1e-300, 1e300, rows) * np.where(np.arange(rows) % 2, -1, 1)
        label = np.where(np.arange(rows) % 3 == 0, b"bright", b"dark")
        k = np.array([2**63 - 1 - i if i % 4 == 1 else i * 7919 * (-1) ** i for i in range(rows)])
        self.assert_matches_oracle({"x": x, "label": label, "k": k, "y": -x}, tmp_path)

    @staticmethod
    def assert_matches_oracle(columns, tmp_path, comments=()):
        path = tmp_path / "t.csv"
        _write_csv(path, columns, comments)
        rows = zip(*[c.tolist() for c in columns.values()])
        assert path.read_bytes() == reference_csv(list(columns), rows, comments)

    def test_decimal_ties_at_the_13th_digit(self, tmp_path):
        # Half a unit of the 12th digit, exactly in binary or not: '%' rounds
        # an exact tie to even and any other value to its nearer side.
        ties = [1234567890125.0, 1234567890135.0, 0.5, 2.5, 1.25, 9.5, 1.0000000000050000e2,
                1.000000000015e6, 123456789012.5, 4.5e-7, 2.0**-20, 2.0**60, 3.0 * 2.0**-40]
        x = np.array(ties + [np.nextafter(t, np.inf) for t in ties] + [np.nextafter(t, 0) for t in ties])
        self.assert_matches_oracle({"x": x, "neg": -x}, tmp_path)

    def test_doubles_nearest_decimal_ties(self, tmp_path):
        # 13 significant digits ending in 5: the double is just above or below
        # the tie, and the scaled product can round onto it.
        rng = np.random.default_rng(12)
        mantissas = rng.integers(10**11, 10**12, 3000)
        x = np.array([float(f"{m}5e{p}") for m, p in zip(mantissas, rng.integers(-40, 30, 3000))])
        self.assert_matches_oracle({"x": x, "neg": -x}, tmp_path)

    def test_fractions_at_the_edge_of_the_near_tie_window(self, tmp_path):
        # Doubles whose scaled product s = a * 10**(11 - e) has a fraction of
        # 1/2 +- {2.4e-4, 2.5e-4, 3e-4, 1e-3}, inside, at and outside the
        # window of 3e-4 beyond which rint(s) is trusted, and their
        # neighbours.  With s below 1.3e11 the nearest double moves the
        # fraction by at most 1.5e-5.
        rng = np.random.default_rng(14)
        digits = rng.integers(10**11, 13 * 10**10, 400)
        exponents = rng.integers(-40, 30, digits.size)
        x = np.array([float(f"{m}.{fraction}e{p - 11}") for m, p in zip(digits, exponents)
                      for fraction in ("499", "4997", "49975", "49976", "50024", "50025", "5003", "501")])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0)])
        self.assert_matches_oracle({"x": x, "neg": -x}, tmp_path)

    def test_round_up_across_a_power_of_ten(self, tmp_path):
        k = np.arange(-300, 301)
        x = np.array([float(f"9.999999999995e{e}") for e in k] + [float(f"9.9999999999949e{e}") for e in k])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0)])
        self.assert_matches_oracle({"x": x, "neg": -x}, tmp_path)

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        x = np.array([float(f"1e{e}") for e in range(-300, 301)])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0), 5 * x, 0.5 * x])
        self.assert_matches_oracle({"x": x, "neg": -x}, tmp_path)

    def test_special_floats_and_int64_extremes(self, tmp_path):
        info, tiny = np.iinfo(np.int64), np.finfo(float).tiny
        x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, tiny,
                      np.nextafter(tiny, 0), np.finfo(float).max, -np.finfo(float).max, 1e-297, 1e-298])
        k = np.array([info.min, info.max, info.min + 1, -(10**18), 10**18 - 1, 10**18, 0, -1, 1,
                      -(10**18) + 1, 999_999_999_999_999_999, 10, -10, 99, 100], np.int64)
        self.assert_matches_oracle({"x": x, "k": k, "small": k.astype(np.int8)}, tmp_path)

    @pytest.mark.parametrize("column", [
        np.array(["dark"]), np.array([7], np.uint64), np.array([True]), np.array([1j]),
    ], ids=["U", "u", "b", "c"])
    def test_refuses_columns_that_are_not_floats_ints_or_bytes(self, column, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"column c has dtype kind '{column.dtype.kind}'"):
            _write_csv(path, {"x": np.zeros(1), "c": column})
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["dispersion", "--num-sites", "200000", "--theta-deg", "30"],
        ["spectrum", "--grid-points", "125000"],
    ])
    def test_large_tables_match_the_per_cell_writer(self, argv, tmp_path):
        path = tmp_path / "t.csv"
        assert main([*argv, "--out", str(path)]) == 0
        spec = cli._build_spec(cli.build_parser().parse_args([*argv, "--out", str(path)]))
        dataset = cli._DATASETS[spec.dataset][0](spec)
        rows = zip(*[c.tolist() for c in dataset.columns.values()])
        assert path.read_bytes() == reference_csv(list(dataset.columns), rows, dataset.comments)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(columns=bit_tables(), block_bytes=st.integers(min_value=1, max_value=400))
    def test_raw_bit_patterns_in_small_blocks(self, columns, block_bytes, tmp_path, monkeypatch):
        # Blocks of one to a few rows, so that most tables span several.
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        self.assert_matches_oracle(columns, tmp_path)

    def test_every_power_of_two_and_its_neighbours(self, tmp_path):
        # 2**e for every e a double has, subnormals included: the decimal
        # exponent is estimated per binade, so each binade's least double,
        # the greatest of the binade below and the next are pinned.
        x = np.ldexp(1.0, np.arange(-1074, 1024))
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0)])
        self.assert_matches_oracle({"x": x, "k": np.arange(x.size), "neg": -x}, tmp_path)

    def test_the_kernel_proves_every_binade(self):
        # Fallback to '%' hides a wrong decimal exponent from the bytes, so
        # the float kernel itself must prove each power of two and its
        # neighbours from 1e-297 up, unless the exact scaled value
        # t = x * 10**(11 - e) lies near a tie or at either end of [1e11, 1e12).
        x = np.ldexp(1.0, np.arange(-986, 1024))
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0)])
        x = x[x >= 1e-297]
        unproven = cli._float_fields(x[:, None], [(0, 1, np.zeros((x.size, 1, 19), np.uint8))])
        for value, failed in zip(x.tolist(), unproven[:, 0].tolist()):
            t = Fraction(value) * Fraction(10) ** (11 - Decimal(value).adjusted())
            clear = abs(t - math.floor(t) - Fraction(1, 2)) > Fraction(4, 10**4)
            if clear and 10**11 + 1 <= t <= 10**12 - 1:
                assert not failed, value

    def test_memory_stays_flat_whatever_the_rows(self, tmp_path):
        """The writer's traced peak beyond its input columns, on mode tables
        of 10**4 and 10**5 rows: a whole-table mask or a list of fallback
        cells would grow with the rows."""
        peaks = []
        for num_sites in (10**4, 10**5):
            argv = ["dispersion", "--num-sites", str(num_sites), "--out", str(tmp_path / "t.csv")]
            spec = cli._build_spec(cli.build_parser().parse_args(argv))
            columns = cli._DATASETS[spec.dataset][0](spec).columns
            tracemalloc.start()
            try:
                _write_csv(spec.out_path, columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2e6, peaks  # the README's "about 1 MB whatever the rows"
        assert peaks[1] - peaks[0] < 45_000, peaks  # half a byte per added row
