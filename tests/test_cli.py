import csv
import io
import json
import math
import os
import string
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lattice_polariton
from lattice_polariton import (
    cavity_frequency, exciton, load_params, superradiant_energy, transfer_parameter,
)
from lattice_polariton.cli import _CHUNK_CELLS, FIGURE_IDS, _write_csv, main
from lattice_polariton.params import MAX_NUM_SITES

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
        # The default grid's middle point lies exactly on the exciton line,
        # a pole when gamma_atom_hz = 0: no transmission, full reflection,
        # and no numpy warning or NaN anywhere.
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
        assert middle[1] == 0.0
        assert middle[2] == 0.0 and middle[3] == 1.0
        assert sum(1 for c in comments if c.startswith("# peak")) == 2

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
        # The lower peak's outer half-height crossing lies off the default
        # grid, so it has no FWHM: an empty field and "n/a", never "nan".
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--nu-c-hz", "4.000001e14", "--out", str(out)]) == 0
        assert "nan" not in out.read_text().lower()
        stdout = capsys.readouterr().out
        assert "nan" not in stdout.lower() and "n/a" in stdout
        _, _, comments = read_csv(out)
        fields = [c[2:].rstrip("\n").split(", ") for c in comments if c.startswith("# peak")]
        assert [len(f) for f in fields] == [4, 4]
        assert fields[0][3] == "" and float(fields[1][3]) > 0.0

    def test_mode_table_takes_one_cotangent_pass(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = exciton._odd_cotangents
        monkeypatch.setattr(exciton, "_odd_cotangents", lambda n: calls.append(n) or original(n))
        assert main(["couplings", "--num-sites", "40", "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == [40]

    def test_model_flag_spectrum(self, tmp_path, capsys):
        out = tmp_path / "nonint.csv"
        rc = main(["spectrum", "--model", "noninteracting", "--out", str(out)])
        assert rc == 0
        _, _, comments = read_csv(out)
        assert sum(1 for c in comments if c.startswith("# peak")) == 2


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


def reference_csv(header, rows, comments=()):
    """The per-cell writer that produced the reference datasets: csv.writer
    rows, floats as f"{v:.11e}", ints and strings as they are."""
    handle = io.StringIO(newline="")
    for line in comments:
        handle.write(f"# {line}\n")
    writer = csv.writer(handle)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, (str, int)) else f"{cell:.11e}" for cell in row])
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


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=20))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=6))
    strategy = {"float": FLOATS, "int": INTS, "str": STRS}
    dtype = {"float": np.float64, "int": np.int64, "str": str}
    values = [draw(st.lists(strategy[kind], min_size=rows, max_size=rows)) for kind in kinds]
    names = [f"c{i}_{kind}" for i, kind in enumerate(kinds)]
    columns = {n: np.array(v, dtype=dtype[kind]) for n, v, kind in zip(names, values, kinds)}
    comments = draw(st.lists(STRS, max_size=3))
    return names, values, columns, tuple(comments)


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

    CHUNK_ROWS = _CHUNK_CELLS // 3  # rows per chunk of the three-column table below

    @pytest.mark.parametrize(
        "rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 4096, 8193]
    )
    def test_chunk_boundaries(self, rows, tmp_path):
        k = np.arange(rows)
        x = np.linspace(-1.0, 1.0, rows)
        label = np.where(k % 3 == 0, "100%", "%s%d")
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
