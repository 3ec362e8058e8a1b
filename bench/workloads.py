"""Seeded job lists for the three benchmark workloads, and how one job runs.

Each workload is a closed loop: one client runs one job at a time.  A run
draws one list of jobs from the seed and runs it in passes, the same jobs
each pass.  Every size-like input is drawn by stratified sampling with a
narrow jitter: the input's range is cut into K strata, and stratum j gets
lo + (j + 1/2 + JITTER (u - 1/2)) h with u drawn from the seed.  A list
therefore covers each range the same way whatever the seed, so throughput
and the latency quantiles move little from seed to seed, while the seed
still picks every value, angle, detuning and the job order.  The package
only ever sees the resulting arguments and parameters.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

WORKLOADS = ("cli_small", "cli_large", "multimode")

# Reference atomic line of the package's default parameters; the cavity
# detuning of cli_small is drawn around it.
ATOM_FREQUENCY_HZ = 4e14

# Default grid sizes of the CLI datasets, which fix the expected row counts.
POLARITON_POINTS = 401
SPECTRUM_POINTS = 2001
THETA_POINTS = 181
LOG_COUNTS = 61

FIGURE_DATASET = {
    "3a": "modes", "3b": "modes", "4a": "doublet", "4b": "doublet",
    "5": "spectrum", "6": "log_counts", "7a": "theta", "7b": "log_counts",
}
COMMAND_DATASET = {
    "dispersion": "modes", "couplings": "modes", "polariton": "doublet",
    "spectrum": "spectrum", "rabi-vs-n": "log_counts", "rabi-vs-theta": "theta",
}
# The spectrum models, in the order the cli_small blocks rotate through them.
SPECTRUM_MODELS = (
    ("two-mode",),
    ("multimode", "--envelope", "flat"),
    ("multimode", "--envelope", "exact"),
    ("noninteracting",),
)

# Strata per kind and per block, and blocks per job list.
SMALL_STRATA = 4
SMALL_BLOCKS = 4
LARGE_STRATA = 1
MULTIMODE_STRATA = 4
# Share of a stratum's width that the seeded jitter may cover.
JITTER = 0.05

SMALL_SITES = (200, 2000)
# The default grid of `spectrum` and `figure 5` spans a fixed +-150 MHz;
# above about 1150 sites the doublet outgrows it and the CLI refuses the run
# (see "Known baseline failures" in README.md).  Those two kinds draw N
# from this smaller range so that every job of the workload succeeds.
SMALL_DEFAULT_GRID_SITES = (200, 1100)
LARGE_SITES = (100_000, 300_000)
LARGE_SPECTRUM_POINTS = (50_000, 200_000)
LARGE_THETA_POINTS = (2_000, 8_000)
MULTIMODE_SITES = (1500, 2500)
# Below the magic angle (54.7 deg) the exciton band keeps a finite width;
# near it the band collapses and the dense eigensolver's cost changes
# character, which would make job cost depend on the angle drawn.
MULTIMODE_THETA_DEG = (0.0, 40.0)
# The multimode sweeps use an explicit grid of this many points spanning
# +-3 vacuum Rabi splittings (sweep requires +-2.5); cavity_response runs
# over a small grid against about N/2 resonances.
MULTIMODE_SWEEP_POINTS = 2001
MULTIMODE_RESPONSE_POINTS = 64


@dataclass(frozen=True)
class Job:
    """One unit of work.  CLI jobs carry their argv (without --out);
    multimode jobs carry the chain they study."""

    name: str
    argv: tuple[str, ...] = ()
    num_sites: int = 0
    theta_deg: float = 0.0
    rows: int = 0  # expected CSV data rows; 0 for library jobs

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


@dataclass
class JobRecord:
    """Outcome of one job.  ``status`` is ok, refused (nonzero exit with a
    one-line error), crashed (an exception escaped) or wrong (an output
    check failed)."""

    name: str
    seconds: float
    status: str
    detail: str = ""
    csv_rows: int = 0
    csv_bytes: int = 0


def stratified(rng: random.Random, lo: float, hi: float, strata: int) -> list[float]:
    """``strata`` values covering [lo, hi], one near the middle of each stratum."""
    width = (hi - lo) / strata
    return [lo + (j + 0.5 + JITTER * (rng.random() - 0.5)) * width for j in range(strata)]


def expected_rows(dataset: str, num_sites: int, points: int | None) -> int:
    if dataset == "modes":
        return num_sites
    if dataset == "doublet":
        return points or POLARITON_POINTS
    if dataset == "spectrum":
        return points or SPECTRUM_POINTS
    if dataset == "theta":
        return points or THETA_POINTS
    # rabi-vs-n, figures 6 and 7b: log-spaced atom numbers 1..N, deduplicated.
    return np.unique(np.rint(np.geomspace(1, num_sites, LOG_COUNTS))).size


def cli_job(command: tuple[str, ...], dataset: str, num_sites: int | None, theta_deg: float,
            points: int | None = None, extra: tuple[str, ...] = ()) -> Job:
    argv = list(command)
    if num_sites is not None:
        argv += ["--num-sites", str(num_sites)]
    argv += ["--theta-deg", repr(theta_deg)]
    if points is not None:
        argv += ["--grid-points", str(points)]
    argv += extra
    sites = 1000 if num_sites is None else num_sites
    return Job(name=" ".join(command), argv=tuple(argv), num_sites=sites, theta_deg=theta_deg,
               rows=expected_rows(dataset, sites, points))


def cli_small_jobs(rng: random.Random, sites=SMALL_SITES, default_grid_sites=SMALL_DEFAULT_GRID_SITES,
                   strata=SMALL_STRATA, blocks=SMALL_BLOCKS) -> list[Job]:
    """Every figure preset and every command, ``strata`` sizes each, in
    ``blocks`` blocks.  Block b gives stratum k of `spectrum` the model
    (k + b) mod 4, so that over four blocks every model meets every size."""
    jobs = []
    kinds = [(("figure", f), d) for f, d in FIGURE_DATASET.items()]
    kinds += [((c,), d) for c, d in COMMAND_DATASET.items()]
    for b in range(blocks):
        for command, dataset in kinds:
            default_grid = dataset == "spectrum"
            for k, n in enumerate(stratified(rng, *(default_grid_sites if default_grid else sites), strata)):
                theta = round(rng.uniform(0.0, 90.0), 3)
                extra: tuple[str, ...] = ()
                if command[0] != "figure":
                    detuning = rng.uniform(-1.5e8, 1.5e8)
                    extra += ("--nu-c-hz", repr(ATOM_FREQUENCY_HZ + round(detuning)))
                if command == ("spectrum",):
                    extra += ("--model",) + SPECTRUM_MODELS[(k + b) % len(SPECTRUM_MODELS)]
                jobs.append(cli_job(command, dataset, round(n), theta, extra=extra))
    rng.shuffle(jobs)
    return jobs


def cli_large_jobs(rng: random.Random, sites=LARGE_SITES, spectrum_points=LARGE_SPECTRUM_POINTS,
                   theta_points=LARGE_THETA_POINTS, strata=LARGE_STRATA) -> list[Job]:
    """Few jobs with large outputs: mode tables, a dense two-mode spectrum,
    and a long angle sweep."""
    jobs = []
    for command in ("dispersion", "couplings"):
        for n in stratified(rng, *sites, strata):
            jobs.append(cli_job((command,), "modes", round(n), round(rng.uniform(0.0, 90.0), 3)))
    for points in stratified(rng, *spectrum_points, strata):
        jobs.append(cli_job(("spectrum",), "spectrum", None, round(rng.uniform(0.0, 90.0), 3),
                            points=round(points)))
    for points in stratified(rng, *theta_points, strata):
        jobs.append(cli_job(("rabi-vs-theta",), "theta", None, 0.0, points=round(points)))
    rng.shuffle(jobs)
    return jobs


def multimode_jobs(rng: random.Random, sites=MULTIMODE_SITES, strata=MULTIMODE_STRATA) -> list[Job]:
    """Chains of N sites, each studied with the five library calls."""
    jobs = [
        Job(name="multimode", num_sites=round(n), theta_deg=round(rng.uniform(*MULTIMODE_THETA_DEG), 3))
        for n in stratified(rng, *sites, strata)
    ]
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {"cli_small": cli_small_jobs, "cli_large": cli_large_jobs, "multimode": multimode_jobs}

def second_slowest(times) -> float:
    """The second-largest of ``times``; the only one if there is one."""
    ordered = sorted(times)
    return ordered[-2] if len(ordered) > 1 else ordered[0]


# Which of its passes gives a job's latency.  The host alternates between a
# fast and a slow state (about 1.8x apart for the CLI code), each lasting
# from moments to minutes, so a run's share of each varies.  The
# single-threaded CLI jobs meet the slow state in every run and never get
# much slower than it, so a pass near their slowest is the steady figure;
# the second-slowest ignores a single stall.  The multimode chains run on
# two BLAS threads, which stall together whenever the host takes one of the
# two CPUs away, so their slow passes vary; they meet the fast state in
# nearly every run, and their fastest pass is steady.
LATENCY_PASS = {"cli_small": second_slowest, "cli_large": second_slowest, "multimode": min}


def _timed(call, *args, **kwargs):
    t0 = perf_counter()
    result = call(*args, **kwargs)
    return result, perf_counter() - t0


class Runner:
    """Runs jobs against the package.  ``api`` is the imported
    ``lattice_polariton`` package; ``main`` the CLI entry point to call."""

    def __init__(self, api, main, work_dir: Path):
        self.api = api
        self.main = main
        self.out_path = work_dir / "job.csv"
        # A job runs once per pass; its oracle is built on the first.
        self._oracles: dict[Job, checks.Oracle] = {}

    def run(self, job: Job) -> JobRecord:
        return self._run_cli(job) if job.is_cli else self._run_multimode(job)

    def _run_cli(self, job: Job) -> JobRecord:
        argv = [*job.argv, "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        err = io.StringIO()
        crash = None
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a crash of the benchmark
            crash = exc
        seconds = perf_counter() - t0
        if crash is not None:
            return JobRecord(job.name, seconds, "crashed", f"{type(crash).__name__}: {crash}")
        message = err.getvalue().strip()
        if code != 0:
            status = "refused" if message and "Traceback" not in message else "crashed"
            return JobRecord(job.name, seconds, status, f"exit {code}: {message[:300]}")
        try:
            rows, size = checks.check_csv(self.out_path, job.rows)
        except checks.CheckError as exc:
            return JobRecord(job.name, seconds, "wrong", str(exc))
        return JobRecord(job.name, seconds, "ok", csv_rows=rows, csv_bytes=size)

    def _run_multimode(self, job: Job) -> JobRecord:
        """Five library calls on one chain.  Only the calls are timed; the
        oracle, the grids and the checks between calls are not."""
        api = self.api
        params = api.SystemParams(num_sites=job.num_sites, theta_rad=math.radians(job.theta_deg))
        if job not in self._oracles:
            self._oracles[job] = checks.Oracle(params)
        oracle = self._oracles[job]
        grid = oracle.grid(MULTIMODE_SWEEP_POINTS)
        small_grid = oracle.grid(MULTIMODE_RESPONSE_POINTS)
        seconds = 0.0
        try:
            damping, dt = _timed(api.DampingSet.from_params, params)
            seconds += dt
            for envelope in (False, True):
                result, dt = _timed(api.multimode_diagonalize, params, include_envelope=envelope)
                seconds += dt
                checks.check_multimode(result, oracle, envelope)
                del result
            for envelope in (False, True):
                trace, dt = _timed(api.sweep, params, damping, api.ModelVariant.FULL_MULTIMODE,
                                   grid, envelope)
                seconds += dt
                checks.check_trace(trace.frequencies_hz, trace.transmission, trace.reflection,
                                   [p.location_hz for p in trace.peaks])
            (t, r), dt = _timed(api.cavity_response, small_grid, oracle.cavity_hz, damping,
                                oracle.resonances())
            seconds += dt
            checks.check_amplitudes(t, r)
        except checks.CheckError as exc:
            return JobRecord(job.name, seconds, "wrong", str(exc))
        except Exception as exc:  # a traceback is a failed job
            return JobRecord(job.name, seconds, "crashed", f"{type(exc).__name__}: {exc}")
        return JobRecord(job.name, seconds, "ok")
