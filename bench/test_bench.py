"""Tests of the benchmark itself: tiny seeded runs of every workload, the
metric names and units promised in BENCHMARK.json, and failure accounting."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import lattice_polariton  # noqa: E402
from lattice_polariton import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each workload's job list with its sizes shrunk so that a pass runs in well
# under a second.
TINY = {
    "cli_small": lambda rng: workloads.cli_small_jobs(
        rng, sites=(20, 60), default_grid_sites=(20, 60), strata=2, blocks=1),
    "cli_large": lambda rng: workloads.cli_large_jobs(
        rng, sites=(2000, 4000), spectrum_points=(3001, 5001), theta_points=(200, 400)),
    "multimode": lambda rng: workloads.multimode_jobs(rng, sites=(40, 80), strata=2),
}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_seed_runs_every_workload(workload, tmp_path):
    jobs = TINY[workload](random.Random(7))
    assert jobs == TINY[workload](random.Random(7)), "same seed, same jobs"
    runner = workloads.Runner(lattice_polariton, cli.main, tmp_path)
    passes = [[runner.run(job) for job in jobs] for _ in range(2)]
    assert [r.status for r in passes[1]] == ["ok"] * len(jobs), [r.detail for r in passes[1]]

    metrics = run.end_to_end([[vars(r) for r in records] for records in passes], [0.4, 0.5], 100_000)
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())

    tracer = Tracer()
    tracer.install()
    runner.main = tracer.wrap_entry(cli.main, "cli")
    try:
        traced = [runner.run(job) for job in jobs]
    finally:
        tracer.remove()
    assert [r.status for r in traced] == ["ok"] * len(jobs)
    layers = tracer.metrics()
    expected = {m for m in run.LAYER_METRICS if not m.startswith(("setup.", "trace."))}
    assert set(layers) == expected
    if workload == "multimode":
        assert layers["polariton.multimode_s"] > 0 and layers["exciton.envelope_s"] > 0
        # two diagonalizations per chain; the flat one splits off the dark modes
        assert layers["polariton.block_dim"] > 0 and layers["spectra.response_evals"] > 0
    else:
        assert layers["cli.self_s"] > 0 and layers["params.calls"] > 0
    # the tracer leaves the package as it found it
    assert lattice_polariton.multimode_diagonalize is lattice_polariton.polariton.multimode_diagonalize


def _contract_line(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_small", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    line = _contract_line(trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def _corrupting_main(argv):
    """The CLI, then one value of its CSV replaced by NaN."""
    code = cli.main(argv)
    path = Path(argv[argv.index("--out") + 1])
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "nan"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return code


def test_nan_in_csv_counts_as_failed(tmp_path):
    job = workloads.cli_job(("figure", "4b"), "doublet", 50, 0.0)
    good = workloads.Runner(lattice_polariton, cli.main, tmp_path).run(job)
    bad = workloads.Runner(lattice_polariton, _corrupting_main, tmp_path).run(job)
    assert good.status == "ok"
    assert bad.status == "wrong" and "non-finite" in bad.detail
    metrics = run.end_to_end([[vars(good), vars(bad)]], [0.5], 100_000)
    assert metrics["success_ratio"] == 0.5
    assert metrics["jobs_per_s"] == 1 / (good.seconds + bad.seconds)


def test_job_latency_is_picked_from_its_passes_and_a_failure_in_any_pass_fails_the_job():
    passes = [
        [{"name": "a", "seconds": 0.3, "status": "ok"}, {"name": "b", "seconds": 0.1, "status": "ok"}],
        [{"name": "a", "seconds": 0.2, "status": "ok"}, {"name": "b", "seconds": 0.4, "status": "wrong"}],
    ]
    assert run.job_latencies(passes) == [{"name": "a", "seconds": 0.2, "ok": True},
                                         {"name": "b", "seconds": 0.1, "ok": False}]
    assert [j["seconds"] for j in run.job_latencies(passes, max)] == [0.3, 0.4]
    assert workloads.second_slowest([0.3, 0.9, 0.2, 0.5]) == 0.5
    assert workloads.second_slowest([0.3]) == 0.3
    metrics = run.end_to_end(passes, [0.5], 100_000)
    assert metrics["jobs_per_s"] == pytest.approx(1 / 0.3)
    assert metrics["success_ratio"] == 0.75


def test_stratified_sizes_stay_near_the_middle_of_each_stratum():
    values = workloads.stratified(random.Random(1), 100.0, 500.0, 4)
    for j, value in enumerate(values):
        middle = 100.0 + (j + 0.5) * 100.0
        assert abs(value - middle) <= workloads.JITTER * 100.0 / 2


def test_every_default_grid_job_of_cli_small_stays_below_the_refusal_size():
    jobs = workloads.cli_small_jobs(random.Random(11))
    sizes = [job.num_sites for job in jobs if job.name in ("spectrum", "figure 5")]
    assert sizes and max(sizes) <= workloads.SMALL_DEFAULT_GRID_SITES[1]


def test_refusal_is_a_failure_but_not_a_wrong_output(tmp_path):
    def refusing_main(argv):
        print("error: grid does not cover the resonance", file=sys.stderr)
        return 1

    job = workloads.cli_job(("spectrum",), "spectrum", 50, 0.0)
    record = workloads.Runner(lattice_polariton, refusing_main, tmp_path).run(job)
    assert record.status == "refused"
    assert "refused" not in run.INCORRECT


def test_multimode_oracle_catches_a_shifted_frequency():
    params = lattice_polariton.SystemParams(num_sites=41, theta_rad=0.3)
    oracle = checks.Oracle(params)
    for envelope in (False, True):
        result = lattice_polariton.multimode_diagonalize(params, include_envelope=envelope)
        checks.check_multimode(result, oracle, envelope)
    result.frequencies_hz[-1] += 1e3
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.check_multimode(result, oracle, True)


def test_parse_importtime_counts_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        350 |   scipy.linalg",
        "import time:        20 |         20 |   numpy",
        "import time:        30 |        700 | lattice_polariton",
    ])
    assert run.parse_importtime(stderr) == (700e-6, 650e-6)
