"""Spans around the calls into each layer of the package, recorded from the
benchmark's own files; nothing inside the package changes.

``install`` replaces every public function of a layer module wherever
another module binds it (the package namespace and the other layer
modules), so calls across a layer boundary each record one span.  Calls
within a module are not spans, with two exceptions: ``sweep`` calls
``cavity_response`` and ``peak_find`` inside ``spectra``, and those two are
wrapped there too so that their per-layer numbers include those calls.
Constructing a layer's dataclass runs its ``__post_init__`` validation,
which is wrapped on the class.

A span stores its id, its parent's id, the job it belongs to, the function
and its start and end.  Self time is a span's duration minus its children's.
Counts are computed from each call's inputs and outputs at the same
boundary.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("params", "exciton", "polariton", "spectra", "cli")
PACKAGE = "lattice_polariton"
INNER_STAGES = {"spectra": ("cavity_response", "peak_find")}


def _modes(args, kwargs, result):
    """Exciton modes returned: the length of a per-mode array or list."""
    if isinstance(result, (list, np.ndarray)):
        return {"modes": len(result)}
    return {}


def _envelope(args, kwargs, result):
    return {"modes": len(result), "envelope_bytes": len(result) ** 2 * 8}


def _multimode(args, kwargs, result):
    # Eigenvectors that carry photon weight: the bright block the solver
    # could not split off, i.e. nonzero couplings + 1.
    dim = int(np.count_nonzero(result.photon_weights))
    arrays = (result.frequencies_hz, result.eigenvectors, result.photon_weights, result.exciton_weights)
    return {"block_dim": dim, "block_bytes": dim * dim * 8,
            "result_bytes": sum(np.asarray(a).nbytes for a in arrays)}


def _response(args, kwargs, result):
    nu = args[0] if args else kwargs["nu_hz"]
    resonances = args[3] if len(args) > 3 else kwargs["resonances"]
    return {"response_evals": np.size(nu) * len(resonances)}


def _peaks(args, kwargs, result):
    freq = args[0] if args else kwargs["frequencies_hz"]
    return {"peak_find_points": np.size(freq)}


COUNTERS = {
    "exciton": {
        "exciton_energies": _modes,
        "mode_coupling_array": _modes,
        "mode_couplings": _modes,
        "oscillator_fractions": _modes,
        "envelope_mode_couplings": _envelope,
    },
    "polariton": {"multimode_diagonalize": _multimode},
    "spectra": {"cavity_response": _response, "peak_find": _peaks},
}

# Per-layer metrics: name -> unit.  They are summed over the traced pass.
LAYER_METRICS = {
    "setup.import_s": "s",
    "setup.scipy_import_s": "s",
    "params.calls": "count",
    "params.busy_s": "s",
    "exciton.calls": "count",
    "exciton.busy_s": "s",
    "exciton.modes": "count",
    "exciton.envelope_s": "s",
    "exciton.envelope_bytes": "bytes",
    "polariton.calls": "count",
    "polariton.busy_s": "s",
    "polariton.multimode_s": "s",
    "polariton.block_dim": "count",
    "polariton.block_bytes": "bytes",
    "polariton.result_bytes": "bytes",
    "spectra.response_s": "s",
    "spectra.response_evals": "count",
    "spectra.peak_find_s": "s",
    "spectra.peak_find_points": "count",
    "cli.self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []  # (layer, name) per function index
        self._index: dict[tuple[str, str], int] = {}
        self.parent: list[int] = []
        self.job: list[int] = []
        self.func: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.current_job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        key = (layer, name)
        if key not in self._index:
            self._index[key] = len(self.functions)
            self.functions.append(key)
        index = self._index[key]
        counter = COUNTERS.get(layer, {}).get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.current_job)
            self.func.append(index)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for metric, value in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{metric}"] += value
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        layer_of = {module.__name__: layer for layer, module in modules.items()}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        wrapped: dict[object, object] = {}
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                layer = layer_of.get(getattr(obj, "__module__", None))
                if attr.startswith("_") or layer is None or not inspect.isfunction(obj):
                    continue
                if namespace is modules[layer] and attr not in INNER_STAGES.get(layer, ()):
                    continue  # a call inside its own module is not a boundary
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj, layer, obj.__name__)
                self._patch(namespace, attr, wrapped[obj])
        for layer, module in modules.items():
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and "__post_init__" in vars(cls)):
                    name = f"{cls.__name__}.__post_init__"
                    self._patch(cls, "__post_init__", self._wrap(cls.__post_init__, layer, name))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_entry(self, fn, layer: str):
        """A wrapped entry point for the benchmark's own call site."""
        return self._wrap(fn, layer, fn.__name__)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.asarray(self.parent, dtype=np.int64),
            "job": np.asarray(self.job, dtype=np.int64),
            "func": np.asarray(self.func, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (setup.* and
        trace.overhead_s are measured elsewhere)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = spans["parent"] >= 0
        own = duration - np.bincount(spans["parent"][child], weights=duration[child],
                                     minlength=duration.size)
        layer = np.array([l for l, _ in self.functions] or [""])[spans["func"]]
        name = np.array([n for _, n in self.functions] or [""])[spans["func"]]
        out = {}
        for what in ("params", "exciton", "polariton"):
            out[f"{what}.calls"] = int((layer == what).sum())
            out[f"{what}.busy_s"] = float(own[layer == what].sum())
        out["cli.self_s"] = float(own[layer == "cli"].sum())
        out["exciton.envelope_s"] = float(duration[name == "envelope_mode_couplings"].sum())
        out["polariton.multimode_s"] = float(own[name == "multimode_diagonalize"].sum())
        out["spectra.response_s"] = float(duration[name == "cavity_response"].sum())
        out["spectra.peak_find_s"] = float(duration[name == "peak_find"].sum())
        for metric in LAYER_METRICS:
            if metric not in out and not metric.startswith(("setup.", "trace.")):
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path: Path) -> None:
        names = np.array([f"{layer}.{name}" for layer, name in self.functions])
        np.savez_compressed(path, names=names, **self.arrays())
