"""Probes of the traced run, neither of them gated.

``run`` is the scaling probe: each hot layer function timed at N = 1e3, 1e4
and 1e5, with the tracer removed.  Before each call a guard adds up the dense
arrays the current implementation allocates at that N; above
``BUDGET_BYTES`` the call is recorded as skipped instead of run.

``known_failures`` runs the CLI jobs that the baseline is known to refuse,
and records how each one ends.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from workloads import cli_job

SIZES = (1_000, 10_000, 100_000)
# Largest computed allocation the probe will make: small next to the memory
# of an 8 GB machine that other processes share.
BUDGET_BYTES = 1e9
RESPONSE_POINTS = 256
REPEATS = 3
# A call slower than this is timed once rather than REPEATS times.
REPEAT_BELOW_S = 0.5


def dense_bytes(function: str, n: int) -> float:
    """Bytes of the arrays ``function`` allocates at N = n, from their sizes."""
    vector = 8.0 * n
    square = 8.0 * n * n
    if function == "envelope_mode_couplings":
        return 2 * square  # the N x N sine transform and its argument
    if function == "multimode_diagonalize":
        block = 8.0 * (n // 2 + 1) ** 2
        # the bright block and its eigenvectors, then four (N+1)^2 arrays:
        # the scattered eigenvectors, their reordering, weights, exciton weights
        return 2 * block + 4 * 8.0 * (n + 1) ** 2
    if function == "cavity_response":
        return 8 * 16.0 * RESPONSE_POINTS + 100.0 * n  # complex grid temporaries, resonance list
    return 4 * vector


def _time(call) -> float:
    t0 = perf_counter()
    call()
    first = perf_counter() - t0
    if first >= REPEAT_BELOW_S:
        return first
    times = [first]
    for _ in range(REPEATS - 1):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _doublet_trace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """An n-point transmission-like trace with two Lorentzian peaks."""
    x = np.linspace(-1.0, 1.0, n)
    return x, 1.0 / (1.0 + ((x - 0.4) / 0.05) ** 2) + 1.0 / (1.0 + ((x + 0.4) / 0.05) ** 2)


def run(api) -> list[dict]:
    results = []
    for n in SIZES:
        params = api.SystemParams(num_sites=n)
        damping = api.DampingSet.from_params(params)
        cavity = api.cavity_frequency(params)
        grid = cavity + np.linspace(-5e8, 5e8, RESPONSE_POINTS)
        energies = api.exciton_energies(params)
        couplings = api.mode_coupling_array(params)
        bright = couplings != 0.0
        resonances = list(zip(couplings[bright].tolist(), energies[bright].tolist()))
        x, y = _doublet_trace(n)
        calls = {
            "exciton_energies": lambda: api.exciton_energies(params),
            "mode_coupling_array": lambda: api.mode_coupling_array(params),
            "envelope_mode_couplings": lambda: api.envelope_mode_couplings(params),
            "multimode_diagonalize": lambda: api.multimode_diagonalize(params),
            "cavity_response": lambda: api.cavity_response(grid, cavity, damping, resonances),
            "peak_find": lambda: api.peak_find(x, y),
        }
        for function, call in calls.items():
            need = dense_bytes(function, n)
            entry = {"function": function, "n": n, "bytes": need}
            if need > BUDGET_BYTES:
                entry["skipped"] = f"would allocate {need / 1e9:.3g} GB"
            else:
                entry["seconds"] = _time(call)
            results.append(entry)
    return results


# `spectrum` and `figure 5` on the default grid, above the sizes at which
# the grid stops covering the doublet.  The workloads stay below them.
KNOWN_FAILURES = (
    (("spectrum",), 1400, ("--model", "two-mode")),
    (("spectrum",), 2000, ("--model", "two-mode")),
    (("spectrum",), 1200, ("--model", "noninteracting")),
    (("figure", "5"), 2000, ()),
)


def known_failures(runner) -> list[dict]:
    """Each known-failure job's argv, status and message."""
    results = []
    for command, num_sites, extra in KNOWN_FAILURES:
        job = cli_job(command, "spectrum", num_sites, 0.0, extra=extra)
        record = runner.run(job)
        results.append({"argv": " ".join(job.argv), "status": record.status, "detail": record.detail})
    return results
