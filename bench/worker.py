"""Child process of the benchmark: one fresh interpreter per workload run.

It imports the package, draws the run's job list from the seed and prints
``ready``; the parent times set-up up to that line.  With ``--setup-only``
it stops there.  Otherwise it runs the job list in passes for about
``--seconds`` (at least one pass) and prints a JSON report as its last
line.  With ``--trace`` it then runs one more pass with the tracer
installed, the scaling probe and the known-failure probe.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import probe
from tracer import Tracer
from workloads import JOB_LISTS, WORKLOADS, Runner


def run_passes(runner: Runner, jobs: list, seconds: float) -> list[list]:
    """Closed loop over the whole job list, pass after pass.  Stops at the
    pass boundary nearest to ``seconds``; runs at least one pass."""
    passes, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        passes.append([runner.run(job) for job in jobs])
        pass_s = perf_counter() - t0
        if perf_counter() - start + pass_s / 2 >= seconds:
            return passes


def run_traced(runner: Runner, jobs: list, tracer: Tracer) -> list:
    records = []
    for i, job in enumerate(jobs):
        tracer.current_job = i
        records.append(runner.run(job))
    return records


def provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", type=Path, metavar="SPANS_PATH",
                        help="also run the jobs traced and write the spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import lattice_polariton
    from lattice_polariton import cli

    jobs = JOB_LISTS[args.workload](random.Random(args.seed))
    args.work_dir.mkdir(parents=True, exist_ok=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(lattice_polariton, cli.main, args.work_dir)
    passes = run_passes(runner, jobs, args.seconds)
    report = {"passes": [[asdict(r) for r in records] for records in passes]}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        runner.main = tracer.wrap_entry(cli.main, "cli")
        try:
            traced = run_traced(runner, jobs, tracer)
        finally:
            tracer.remove()
            runner.main = cli.main
        tracer.counts["cli.csv_rows"] = sum(r.csv_rows for r in traced)
        tracer.counts["cli.csv_bytes"] = sum(r.csv_bytes for r in traced)
        layers = tracer.metrics()
        untraced_pass_s = statistics.median(sum(r.seconds for r in records) for records in passes)
        layers["trace.overhead_s"] = sum(r.seconds for r in traced) - untraced_pass_s
        tracer.write(args.trace)
        report["traced_records"] = [asdict(r) for r in traced]
        report["layers"] = layers
        report["probe"] = probe.run(lattice_polariton)
        report["known_failures"] = probe.known_failures(runner)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["provenance"] = provenance()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
