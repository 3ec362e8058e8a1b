"""Every command and preset, over parameter sets that SystemParams accepts,
ends one of two ways: exit 0 with a finite, physically sensible CSV (a
spectrum on a grid above 0 Hz), or exit 1 with a single ``error:`` line, no
traceback and no file."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lattice_polariton
from lattice_polariton import (
    DampingSet, ModelVariant, SystemParams, cavity_frequency, default_grid, load_params, sweep,
    transfer_parameter,
)
from lattice_polariton.cli import _DATASETS, FIGURE_IDS, main
from lattice_polariton.exciton import site_coupling
from lattice_polariton.params import MAGIC_ANGLE_RAD, _superradiant_shift_at, _transfer_at
from lattice_polariton.polariton import variant_modes
from oracles import mp_vertex

# Every command and figure preset, and the spectrum's other models.
RUNS = (
    [["figure", name] if name in FIGURE_IDS else [name] for name in _DATASETS]
    + [["spectrum", "--model", model] for model in ("multimode", "noninteracting")]
    + [["spectrum", "--model", "multimode", "--envelope", "exact"]]
)
ATOM_HZ = SystemParams().atom_frequency_hz


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


ANGLES = st.one_of(
    st.sampled_from([0.0, MAGIC_ANGLE_RAD, math.pi / 2]),
    st.floats(-1e-6, 1e-6).map(lambda d: MAGIC_ANGLE_RAD + d),
)


@st.composite
def configs(draw):
    """Parameter files: the reference values or any in the stated ranges,
    undamped atoms, no side loss and a cavity detuned by up to 50 %."""
    config = {
        "num_sites": draw(st.integers(1, 3000)),
        "theta_rad": draw(ANGLES),
        "dipole_Cm": draw(st.one_of(st.just(5e-29), log_uniform(-40, -20))),
        "beam_waist_m": draw(st.one_of(st.just(3e-4), log_uniform(-9, 0))),
    }
    if draw(st.booleans()):
        config["gamma_atom_hz"] = 0.0
    if draw(st.booleans()):
        config["gamma_cavity_hz"] = 0.0
    detuning = draw(st.one_of(st.none(), st.floats(-0.5, 0.5)))
    if detuning is not None:
        config["cavity_frequency_hz"] = ATOM_HZ * (1.0 + detuning)
    return config


def read_dataset(path):
    """The ``#`` comment lines and the numeric columns of a CSV dataset."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    columns = {
        name: np.array([row[i] for row in rows], dtype=float)
        for i, name in enumerate(header) if name != "class"
    }
    return comments, columns


def check_run(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp) / "params.json", Path(tmp) / "out.csv"
        config_path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(config_path), "--out", str(out)])
        if code == 1:
            assert stderr.getvalue().startswith("error: "), stderr.getvalue()
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert not out.exists()
            return
        assert (code, stderr.getvalue()) == (0, "")
        assert stdout.getvalue().endswith(f"wrote: {out}\n")
        comments, columns = read_dataset(out)
    assert all(np.isfinite(column).all() for column in columns.values())
    if "transmission" in columns:
        t, r, grid = columns["transmission"], columns["reflection"], columns["nu_hz"]
        assert grid[0] > 0.0
        assert t.min() >= 0.0 and r.min() >= 0.0
        assert (t + r).max() <= 1.0 + 1e-9
        for line in comments:
            location = float(line.split(",")[1])
            assert grid[0] <= location <= grid[-1], line


REFERENCE = {"num_sites": 100_000, "theta_rad": 0.0, "dipole_Cm": 5e-29, "beam_waist_m": 3e-4}
# Two peaks of height 5.2e-216 near 6.7e130 Hz: the run exits 0, and the
# np.polyfit refinement that peak_find had overflowed and warned on it.
OVERFLOWING_FIGURE_5 = {"num_sites": 95, "theta_rad": math.pi / 2, "dipole_Cm": 1.57e33,
                        "beam_waist_m": 1.03e-3, "gamma_atom_hz": 0}


@settings(max_examples=100, deadline=None)
@given(argv=st.sampled_from(RUNS), config=configs())
@example(argv=["dispersion"], config=REFERENCE)
@example(argv=["spectrum", "--model", "multimode", "--envelope", "exact"],
         config=dict(REFERENCE, theta_rad=MAGIC_ANGLE_RAD, gamma_atom_hz=0.0))
@example(argv=["spectrum", "--model", "multimode"],
         config=dict(REFERENCE, theta_rad=math.pi / 2, gamma_cavity_hz=0.0))
@example(argv=["figure", "7b"], config=dict(REFERENCE, beam_waist_m=1e-9))
@example(argv=["rabi-vs-theta"], config=dict(REFERENCE, dipole_Cm=1e-40))
# A coupling of 5.1e14 Hz puts the default grid's lower end at -2.15e15 Hz.
@example(argv=["spectrum"], config={"dipole_Cm": 1e-21, "theta_rad": MAGIC_ANGLE_RAD})
@example(argv=["figure", "5"], config=OVERFLOWING_FIGURE_5)
def test_every_run_writes_sensible_output_or_exits_1(argv, config):
    check_run(argv, config)


def test_warnings_as_errors_leave_a_run_quiet(tmp_path):
    """The overflowing figure 5 run under ``python -W error``: exit 0 with an
    empty stderr, as in process."""
    config = tmp_path / "params.json"
    config.write_text(json.dumps(OVERFLOWING_FIGURE_5))
    env = dict(os.environ, PYTHONPATH=str(Path(lattice_polariton.__file__).parents[1]))
    argv = ["figure", "5", "--config", str(config), "--out", str(tmp_path / "figure5.csv")]
    result = subprocess.run([sys.executable, "-W", "error", "-m", "lattice_polariton", *argv],
                            env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")


def half_unit(cell):
    """Half a unit of the 12th significant digit of a '%.11e' cell."""
    return mpmath.mpf(10) ** (int(cell.split("e")[1]) - 11) / 2


def assert_written(cell, exact, ulps=8):
    """A '%.11e' cell is the 12-digit rounding of a double within ``ulps``
    of the exact value: at most half a unit of its 12th significant digit
    and ``ulps`` ulp from it.  The doubles behind the mode tables take five
    to seven roundings (measured: at most 3.2 ulp off), so a fixed slack of
    0.0001 unit, 0.45 to 4.5 ulp by the leading digit, would fail by chance."""
    if exact == 0:
        assert cell == "0.00000000000e+00", cell
        return
    assert abs(mpmath.mpf(cell) - exact) <= half_unit(cell) + ulps * math.ulp(float(cell)), (cell, exact)


ANY_ANGLE_DEG = st.one_of(st.sampled_from([0.0, math.degrees(MAGIC_ANGLE_RAD), 90.0]),
                          st.floats(-720.0, 720.0))


@settings(max_examples=25, deadline=None)
@given(num_sites=st.integers(1, 3000), theta_deg=ANY_ANGLE_DEG)
@example(num_sites=3000, theta_deg=0.0)
@example(num_sites=2999, theta_deg=90.0)
@example(num_sites=1726, theta_deg=5.794387063247598)
def test_mode_table_cells_against_mpmath(num_sites, theta_deg):
    """Every energy shift and coupling a dispersion run writes, against
    40-digit mpmath from the package's own J and site coupling g: 2 J
    sin(pi (N+1-2k) / (2(N+1))) and, for odd k, g sqrt(2/(N+1)) cot(x_k),
    0 for even k.  x_k is the double that pi k / (2(N+1)) rounds to: near k
    = N the cotangent magnifies that rounding, by up to 2000 ulp at N =
    3000, which the 12 digits show (a known loss, not the writer's)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "modes.csv"
        argv = ["dispersion", "--num-sites", str(num_sites), f"--theta-deg={theta_deg!r}"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[:3] == ["k", "energy_shift_hz", "coupling_hz"]
    params = load_params(num_sites=num_sites, theta_rad=math.radians(theta_deg))
    with mpmath.workdps(40):
        two_j = 2 * mpmath.mpf(transfer_parameter(params))
        scale = mpmath.mpf(site_coupling(params)) * mpmath.sqrt(mpmath.mpf(2) / (num_sites + 1))
        for k, (cell_k, shift, coupling, *_) in enumerate(rows, start=1):
            assert int(cell_k) == k
            assert_written(shift, two_j * mpmath.sinpi(mpmath.mpf(num_sites + 1 - 2 * k) / (2 * (num_sites + 1))))
            angle = mpmath.mpf(math.pi * k / (2.0 * (num_sites + 1)))
            assert_written(coupling, scale * mpmath.cot(angle) if k % 2 else 0)


def assert_peak_lines(comments, rows, center_hz, maxima):
    """Each '# peak' line of a spectrum CSV, one per index in ``maxima``,
    against the 40-digit vertex of its three written samples
    (oracles.mp_vertex): x from the centre and the written shifts, y from
    the written transmission.  Writing moves a
    sample by up to e, half a unit of its 12th digit, plus |p'(x)| times a
    shift's own error; the Lebesgue sums carry the largest such error into
    the vertex, taken twice for the second order and the arithmetic.  The
    peak is the vertex if the parabola opens downward, both neighbours lie
    at or above half its height over the lowest sample, and the vertex is
    at most 1, and its sample otherwise; within the error of a rule, either."""
    assert len(comments) == maxima.size, comments
    floor = min(mpmath.mpf(row[2]) for row in rows)
    for line, i in zip(comments, maxima.tolist()):
        _, location, height, _ = line.split(", ")
        shifts, cells = [row[1] for row in rows[i - 1 : i + 2]], [row[2] for row in rows[i - 1 : i + 2]]
        x = [mpmath.mpf(center_hz) + mpmath.mpf(shift) for shift in shifts]
        a, vertex, top, basis, slopes = mp_vertex(x, cells)
        error = 2 * max(half_unit(cell) + 2 * abs(a * (xj - vertex)) * (half_unit(shift) + math.ulp(float(shift)))
                        for cell, shift, xj in zip(cells, shifts, x))
        y0, y1, y2 = (mpmath.mpf(cell) for cell in cells)
        margins = [(2 * min(y0, y2) - y1 - floor, 4 * error), (1 - top, basis * error)]
        refined = (abs(mpmath.mpf(location) - vertex) <= half_unit(location) + error * slopes / (2 * abs(a))
                   and abs(mpmath.mpf(height) - top) <= half_unit(height) + error * basis)
        kept = (location, height) == (rows[i][0], cells[1])
        if a < 0 and all(margin > slack for margin, slack in margins):
            assert refined, (line, rows[i - 1 : i + 2], vertex, top)
        elif a >= 0 or any(margin < -slack for margin, slack in margins):
            assert kept, (line, rows[i])
        else:
            assert refined or kept, (line, rows[i - 1 : i + 2], vertex, top)


def assert_spectrum_cells(argv, params, variant, envelope, modes):
    """Run a spectrum through cli.main and check a sample of its rows,
    every peak's among them, against 40-digit mpmath |t|^2 and |1 - t|^2
    with t = gamma_m / (i (nu_c - nu) + kappa/2 + sum_k g_k^2 / (i (nu_k -
    nu) + Gamma_a/2)) over ``modes``, mpmath pairs (g_k^2, nu_k - nu_a);
    the grid and the cavity are the package's own doubles, as offsets from
    nu_a.  Then its '# peak' lines, by assert_peak_lines."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "spectrum.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
    comments = [line.removeprefix("# ") for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert header == ["nu_hz", "nu_shift_hz", "transmission", "reflection"]
    grid = default_grid(params, variant)
    trace = sweep(params, DampingSet.from_params(params), variant, grid, envelope)
    transmission = trace.transmission
    peaks = np.flatnonzero((transmission[1:-1] > transmission[:-2])
                           & (transmission[1:-1] > transmission[2:])) + 1
    cavity = mpmath.mpf(cavity_frequency(params) - params.atom_frequency_hz)
    half_kappa = (2 * mpmath.mpf(params.gamma_mirror_hz) + mpmath.mpf(params.gamma_cavity_hz)) / 2
    half_atom = mpmath.mpf(params.gamma_atom_hz) / 2
    for i in sorted({*range(0, len(rows), 50), *peaks.tolist()}):
        nu, _, cell_t, cell_r = rows[i]
        assert_written(nu, mpmath.mpf(grid[i]))
        x = mpmath.mpf(grid[i] - params.atom_frequency_hz)
        self_energy = mpmath.fsum(weight / mpmath.mpc(half_atom, line - x) for weight, line in modes)
        t = params.gamma_mirror_hz / (mpmath.mpc(half_kappa, cavity - x) + self_energy)
        assert_written(cell_t, abs(t) ** 2, ulps=16)
        assert_written(cell_r, abs(1 - t) ** 2, ulps=16)
    assert_peak_lines(comments, rows, trace.center_hz, peaks)


@settings(max_examples=25, deadline=None)
@given(num_sites=st.integers(1, 3000), theta_deg=ANY_ANGLE_DEG,
       cavity_hz=st.one_of(st.none(), st.floats(-0.5, 0.5).map(lambda d: ATOM_HZ * (1.0 + d)),
                           st.floats(-1e9, 1e9).map(lambda d: ATOM_HZ + d)))
@example(num_sites=1000, theta_deg=0.0, cavity_hz=None)
@example(num_sites=2549, theta_deg=90.0, cavity_hz=399999427374438.9)
def test_spectrum_cells_against_mpmath(num_sites, theta_deg, cavity_hz):
    """assert_spectrum_cells on a two-mode spectrum: its one mode is the
    k = 1 line nu_1 - nu_a and coupling g of variant_modes.  From the raw
    parameters nu_c - nu_1 would cancel at 4e14 Hz.  Each value takes about
    a dozen roundings: at most 9.8 ulp off, measured over 180 random runs
    with each peak's rows."""
    argv = ["spectrum", "--num-sites", str(num_sites), f"--theta-deg={theta_deg!r}"]
    if cavity_hz is not None:
        argv.append(f"--nu-c-hz={cavity_hz!r}")
    params = load_params(num_sites=num_sites, theta_rad=math.radians(theta_deg),
                         cavity_frequency_hz=cavity_hz)
    variant = ModelVariant.TWO_MODE_SUPERRADIANT
    (coupling,), (line,) = variant_modes(params, variant)
    with mpmath.workdps(40):
        assert_spectrum_cells(argv, params, variant, False, [(mpmath.mpf(coupling) ** 2, mpmath.mpf(line))])


@settings(max_examples=20, deadline=None)
@given(num_sites=st.integers(1, 300), theta_deg=ANY_ANGLE_DEG, envelope=st.booleans(),
       cavity_hz=st.one_of(st.none(), st.floats(-1e9, 1e9).map(lambda d: ATOM_HZ + d)))
@example(num_sites=300, theta_deg=0.0, envelope=False, cavity_hz=None)
@example(num_sites=299, theta_deg=40.0, envelope=True, cavity_hz=None)
def test_multimode_spectrum_cells_against_mpmath(num_sites, theta_deg, envelope, cavity_hz):
    """assert_spectrum_cells on a multimode spectrum, every coupled mode
    summed.  The flat envelope takes the chain's closed form
    (resolvent.chain_sum) from J and the site coupling g, so its reference
    has the odd modes g^2 (2/(N+1)) cot^2(pi k / (2(N+1))) at
    2 J cos(pi k / (N+1)); the exact envelope sums variant_modes' couplings
    and lines (spectra._resonance_sum), and so does its reference.  At the
    default damping the denominator's real part is at least kappa/2.
    Measured over 200 random runs, 8,660 cells with each peak's rows: at
    most 8.5 ulp off."""
    argv = ["spectrum", "--model", "multimode", "--num-sites", str(num_sites),
            f"--theta-deg={theta_deg!r}", "--envelope", "exact" if envelope else "flat"]
    if cavity_hz is not None:
        argv.append(f"--nu-c-hz={cavity_hz!r}")
    params = load_params(num_sites=num_sites, theta_rad=math.radians(theta_deg),
                         cavity_frequency_hz=cavity_hz)
    variant = ModelVariant.FULL_MULTIMODE
    with mpmath.workdps(40):
        if envelope:
            couplings, lines = variant_modes(params, variant, True)
            modes = [(mpmath.mpf(g) ** 2, mpmath.mpf(line)) for g, line in zip(couplings.tolist(), lines.tolist())]
        else:
            g_sq, two_j = mpmath.mpf(site_coupling(params)) ** 2, 2 * mpmath.mpf(transfer_parameter(params))
            modes = [(g_sq * 2 / (num_sites + 1) * mpmath.cot(mpmath.pi * k / (2 * (num_sites + 1))) ** 2,
                      two_j * mpmath.cospi(mpmath.mpf(k) / (num_sites + 1)))
                     for k in range(1, num_sites + 1, 2)]
        assert_spectrum_cells(argv, params, variant, envelope, modes)


@settings(max_examples=25, deadline=None)
@given(command=st.sampled_from(["rabi-vs-n", "rabi-vs-theta"]), num_sites=st.integers(1, 3000),
       theta_deg=ANY_ANGLE_DEG, dipole_cm=st.one_of(st.just(5e-29), log_uniform(-30, -28)))
@example(command="rabi-vs-theta", num_sites=1000, theta_deg=0.0, dipole_cm=5e-29)
@example(command="rabi-vs-n", num_sites=3000, theta_deg=90.0, dipole_cm=1e-28)
def test_rabi_cells_against_mpmath(command, num_sites, theta_deg, dipole_cm):
    """Every splitting a Rabi sweep writes, against 40-digit mpmath
    2 sqrt(((nu_c - nu_1) / 2)^2 + G^2), from the package's own doubles:
    J, the site coupling g and the k = 1 line nu_1 = nu_a + 2 J cos(pi / (N+1)).
    G is g sqrt(2/(N+1)) cot(pi / (2(N+1))) for the two-mode exciton, and
    g sqrt(N) for the noninteracting one on the atomic line.  rabi-vs-n puts
    the cavity on each N's own line (detuning 0), rabi-vs-theta on the
    atomic line, where nu_c - nu_1 cancels at 4e14 Hz.  There the double
    line, within half an ulp of nu_a (0.031 Hz) and 8 ulp of 2J of the
    exact one, moves a splitting by up to 0.031 Hz, thousands of units of
    its 12th digit at small N or a weak dipole; so the reference takes the
    double line, and the line is held to that bound alone.  The splittings
    take five to seven roundings: at most 3.3 ulp off, measured."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "params.json", Path(tmp) / "rabi.csv"
        config.write_text(json.dumps({"dipole_Cm": dipole_cm}))
        argv = [command, "--num-sites", str(num_sites), f"--theta-deg={theta_deg!r}"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    params = load_params(dipole_Cm=dipole_cm, num_sites=num_sites, theta_rad=math.radians(theta_deg))
    atom_hz = params.atom_frequency_hz
    site_at_atom = site_coupling(replace(params, cavity_frequency_hz=atom_hz))
    if command == "rabi-vs-n":
        assert header == ["N", "omega0_int_hz", "omega0_nonint_hz"]
        counts = [int(row[0]) for row in rows]
        assert counts[0] == 1 and counts[-1] == num_sites
        transfers = [transfer_parameter(params)] * len(rows)
        # Each N's cavity is its own line, the default cavity of N sites.
        lines = [cavity_frequency(replace(params, num_sites=n)) for n in counts]
        cavities, sites = lines, [site_coupling(replace(params, num_sites=n)) for n in counts]
    else:
        assert header == ["theta_rad", "omega_int_hz", "omega_nonint_hz"]
        thetas = np.linspace(0.0, math.pi / 2.0, len(rows))
        counts = [num_sites] * len(rows)
        transfers = _transfer_at(params, thetas)
        lines = (atom_hz + _superradiant_shift_at(transfers, num_sites)).tolist()
        cavities, sites = [atom_hz] * len(rows), [site_at_atom] * len(rows)
    with mpmath.workdps(40):
        for i, (axis, cell_int, cell_nonint) in enumerate(rows):
            n, line, cavity = counts[i], mpmath.mpf(lines[i]), mpmath.mpf(cavities[i])
            if command == "rabi-vs-theta":
                assert_written(axis, mpmath.mpf(thetas[i]))
            exact_line = atom_hz + 2 * mpmath.mpf(transfers[i]) * mpmath.cospi(mpmath.mpf(1) / (n + 1))
            bound = math.ulp(lines[i]) / 2 + 8 * math.ulp(2.0 * transfers[i])
            assert abs(line - exact_line) <= bound, (i, lines[i], exact_line)
            two_mode = (mpmath.mpf(sites[i]) * mpmath.sqrt(mpmath.mpf(2) / (n + 1))
                        * mpmath.cot(mpmath.pi / (2 * (n + 1))))
            assert_written(cell_int, 2 * mpmath.sqrt(((cavity - line) / 2) ** 2 + two_mode**2))
            assert_written(cell_nonint, 2 * mpmath.mpf(site_at_atom) * mpmath.sqrt(n))
