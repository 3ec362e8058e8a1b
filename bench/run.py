"""Benchmark of lattice-polariton.  Run from the repository root:

    python3 bench/run.py --workload cli_small --seed 1 --seconds 35 --trace 0

Each run starts fresh child processes (``worker.py``) that import the package
from ``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs the same passes untraced, then one pass traced, and
reports the per-layer metrics.  Every metric is printed by name with its
unit, the full record is written to ``bench/out/``, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import LATENCY_PASS, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
# Set-up is timed this many times per run and reported as the median: the
# workload's own child, and children that stop at ``ready``, half of them
# started before it and half after, so that the samples span the run.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# Whole run, all children included, must end well inside 180 s.
DEADLINE_S = 170.0
# Statuses that make a run incorrect; a refusal only counts as failed.
INCORRECT = ("crashed", "wrong")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run a child to completion.  Returns the seconds from spawning it to
    its first line of output, and everything it printed after that line."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out: {' '.join(argv)}")
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"child failed ({proc.returncode}): {' '.join(argv)}\n{err[-2000:]}")
    return ready, out


def worker_argv(args, work_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--work-dir", str(work_dir), *extra]


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds to import lattice_polariton, and the part of it spent
    importing scipy, from ``python -X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    package = scipy = 0
    ancestors: list[str] = []
    # Children are printed before their parent; walk backwards so that each
    # entry's ancestors are known when it is reached.
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        if name == "lattice_polariton":
            package = cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return package / 1e6, scipy / 1e6


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: every order statistic
    weighted by a Beta((n+1)q, (n+1)(1-q)) share.  It varies less from run
    to run than a single order statistic when a run has few jobs, and equals
    the plain quantile for many."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], ordered)))


def job_latencies(passes: list[list[dict]], pick=min) -> list[dict]:
    """One entry per job of the list: its latency, which ``pick`` chooses
    from its passes, and ``ok`` when every pass of it succeeded."""
    return [{"name": runs[0]["name"], "seconds": pick(r["seconds"] for r in runs),
             "ok": all(r["status"] == "ok" for r in runs)} for runs in zip(*passes)]


def end_to_end(passes: list[list[dict]], setup: list[float], peak_rss_kb: int,
               pick=min) -> dict[str, float]:
    jobs = job_latencies(passes, pick)
    busy = sum(j["seconds"] for j in jobs)
    ok = sum(j["ok"] for j in jobs)
    # A failed job misses every latency limit: it counts as a whole pass.
    latencies = [j["seconds"] if j["ok"] else busy for j in jobs]
    runs = [r for records in passes for r in records]
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": ok / busy,
        "job_p50_ms": 1e3 * quantile(latencies, 0.5),
        "job_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "success_ratio": sum(r["status"] == "ok" for r in runs) / len(runs),
    }


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def summarize(records: list[dict]) -> dict:
    by_status: dict[str, int] = {}
    for r in records:
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
    failures = [f"{r['name']}: {r['status']}: {r['detail']}" for r in records if r["status"] != "ok"]
    return {"by_status": by_status, "failures": failures[:20],
            "failed_ratio": len(failures) / len(records)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lattice-polariton benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lattice_polariton" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lattice_polariton'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{stem}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args, work_dir, deadline, stem)
        else:
            result = untraced_run(args, work_dir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, report, extra = result
    untraced = [r for records in report["passes"] for r in records]
    records = report["traced_records"] if args.trace else untraced
    units = LAYER_METRICS if args.trace else END_TO_END
    every = untraced + report.get("traced_records", [])
    line = {
        "correct": not any(r["status"] in INCORRECT for r in every),
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    summary = summarize(records)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **line, **summary, **extra,
        "passes": len(report["passes"]),
        "jobs": [[runs[0]["name"], [round(r["seconds"], 6) for r in runs], [r["status"] for r in runs]]
                 for runs in zip(*report["passes"])],
        "provenance": {**report["provenance"], "commit": commit(), "seed": args.seed,
                       "src_lines": source_lines()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in line["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} attempted={line['attempted']} failed={line['failed']} "
          f"correct={line['correct']} ({summary['by_status']})")
    print(json.dumps(line))
    return 0


def untraced_run(args, work_dir: Path, deadline: float):
    def setup_only(count: int) -> list[float]:
        return [spawn(worker_argv(args, work_dir, "--setup-only"), deadline)[0] for _ in range(count)]

    setup = setup_only((SETUP_SAMPLES - 1) // 2)
    ready, out = spawn(worker_argv(args, work_dir), deadline)
    setup += [ready] + setup_only(SETUP_SAMPLES // 2)
    report = json.loads(out.splitlines()[-1])
    metrics = end_to_end(report["passes"], setup, report["peak_rss_kb"], LATENCY_PASS[args.workload])
    pass_s = [sum(r["seconds"] for r in records) for records in report["passes"]]
    return metrics, report, {"setup_samples": setup, "pass_s": pass_s}


def traced_run(args, work_dir: Path, deadline: float, stem: str):
    imports = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lattice_polariton"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        imports.append(parse_importtime(proc.stderr))
    spans = OUT / f"{stem}-spans.npz"
    _, out = spawn(worker_argv(args, work_dir, "--trace", str(spans)), deadline)
    report = json.loads(out.splitlines()[-1])
    metrics = dict(report["layers"])
    metrics["setup.import_s"] = statistics.median(i[0] for i in imports)
    metrics["setup.scipy_import_s"] = statistics.median(i[1] for i in imports)
    untraced = [sum(r["seconds"] for r in records) for records in report["passes"]]
    traced = sum(r["seconds"] for r in report["traced_records"])
    shares = {
        "multimode_share": (metrics["polariton.multimode_s"] + metrics["exciton.envelope_s"]) / traced,
        "cli_large_share": (metrics["cli.self_s"] + metrics["exciton.busy_s"]
                            + metrics["spectra.peak_find_s"]) / traced,
    }
    return metrics, report, {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": spans.name,
                             "layer_shares_of_traced_job_time": shares, "probe": report["probe"],
                             "known_failures": report["known_failures"]}


if __name__ == "__main__":
    sys.exit(main())
