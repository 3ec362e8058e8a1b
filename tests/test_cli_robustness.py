"""Every command and preset, over parameter sets that SystemParams accepts,
ends one of two ways: exit 0 with a finite, physically sensible CSV (a
spectrum on a grid above 0 Hz), or exit 1 with a single ``error:`` line, no
traceback and no file."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_polariton import (
    ModelVariant, SystemParams, cavity_frequency, default_grid, load_params, transfer_parameter,
)
from lattice_polariton.cli import _DATASETS, FIGURE_IDS, main
from lattice_polariton.exciton import site_coupling
from lattice_polariton.params import MAGIC_ANGLE_RAD
from lattice_polariton.polariton import variant_modes

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
def test_every_run_writes_sensible_output_or_exits_1(argv, config):
    check_run(argv, config)


def assert_written(cell, exact, ulps=8):
    """A '%.11e' cell is the 12-digit rounding of a double within ``ulps``
    of the exact value: at most half a unit of its 12th significant digit
    and ``ulps`` ulp from it.  The doubles behind the mode tables take five
    to seven roundings (measured: at most 3.2 ulp off), so a fixed slack of
    0.0001 unit, 0.45 to 4.5 ulp by the leading digit, would fail by chance."""
    if exact == 0:
        assert cell == "0.00000000000e+00", cell
        return
    unit = mpmath.mpf(10) ** (int(cell.split("e")[1]) - 11)
    assert abs(mpmath.mpf(cell) - exact) <= unit / 2 + ulps * math.ulp(float(cell)), (cell, exact)


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


@settings(max_examples=25, deadline=None)
@given(num_sites=st.integers(1, 3000), theta_deg=ANY_ANGLE_DEG,
       cavity_hz=st.one_of(st.none(), st.floats(-0.5, 0.5).map(lambda d: ATOM_HZ * (1.0 + d)),
                           st.floats(-1e9, 1e9).map(lambda d: ATOM_HZ + d)))
@example(num_sites=1000, theta_deg=0.0, cavity_hz=None)
@example(num_sites=2549, theta_deg=90.0, cavity_hz=399999427374438.9)
def test_spectrum_cells_against_mpmath(num_sites, theta_deg, cavity_hz):
    """A sample of a two-mode spectrum's rows, both transmission peaks
    among them, against 40-digit mpmath |t|^2 and |1 - t|^2 with
    t = gamma_m / (i (nu_c - nu) + kappa/2 + g^2 / (i (nu_1 - nu) + Gamma_a/2)),
    from the package's own doubles: the grid and the cavity as offsets from
    nu_a, and the k = 1 line nu_1 - nu_a and coupling g of variant_modes.
    From the raw parameters nu_c - nu_1 would cancel at 4e14 Hz.  Each
    value takes about a dozen roundings: at most 9.8 ulp off, measured over
    180 random runs with each peak's rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "spectrum.csv"
        argv = ["spectrum", "--num-sites", str(num_sites), f"--theta-deg={theta_deg!r}"]
        if cavity_hz is not None:
            argv.append(f"--nu-c-hz={cavity_hz!r}")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()
                         if not line.startswith("#")]
    assert header == ["nu_hz", "nu_shift_hz", "transmission", "reflection"]
    params = load_params(num_sites=num_sites, theta_rad=math.radians(theta_deg),
                         cavity_frequency_hz=cavity_hz)
    variant = ModelVariant.TWO_MODE_SUPERRADIANT
    grid = default_grid(params, variant)
    (coupling,), (line,) = variant_modes(params, variant)
    transmission = np.array([row[2] for row in rows], dtype=float)
    peaks = np.flatnonzero((transmission[1:-1] > transmission[:-2])
                           & (transmission[1:-1] > transmission[2:])) + 1
    sample = sorted({*range(0, len(rows), 50), *peaks.tolist()})
    with mpmath.workdps(40):
        cavity = mpmath.mpf(cavity_frequency(params) - params.atom_frequency_hz)
        half_kappa = (2 * mpmath.mpf(params.gamma_mirror_hz) + mpmath.mpf(params.gamma_cavity_hz)) / 2
        half_atom = mpmath.mpf(params.gamma_atom_hz) / 2
        for i in sample:
            nu, _, cell_t, cell_r = rows[i]
            assert_written(nu, mpmath.mpf(grid[i]))
            x = mpmath.mpf(grid[i] - params.atom_frequency_hz)
            self_energy = mpmath.mpf(coupling) ** 2 / mpmath.mpc(half_atom, line - x)
            t = params.gamma_mirror_hz / (mpmath.mpc(half_kappa, cavity - x) + self_energy)
            assert_written(cell_t, abs(t) ** 2, ulps=16)
            assert_written(cell_r, abs(1 - t) ** 2, ulps=16)
