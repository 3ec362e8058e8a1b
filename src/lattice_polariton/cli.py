"""Command-line front end: parameter parsing, figure presets, CSV output.

Every command writes one CSV dataset and prints a short summary of the key
scalars (transfer rate, couplings, Rabi splitting, spectral peaks).  The
``figure`` presets pin the per-figure resonance conventions, so they reject
an explicit cavity frequency.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .exciton import (
    exciton_energies, mode_coupling_array, oscillator_fractions, superradiant_coupling,
)
from .params import (
    MAGIC_ANGLE_RAD, MAX_NUM_SITES, ConfigError, DampingSet, InvalidParameterError, SystemParams,
    load_params, superradiant_energy, transfer_parameter, validate,
)
from .polariton import (
    ModelVariant, collective_coupling_noninteracting, generalized_rabi, superradiant_doublet,
    vacuum_rabi_vs_N,
)
from .spectra import (
    DEFAULT_GRID_POINTS, SpectrumTrace, default_grid, peak_find, sweep, variant_center,
)

FIGURE_IDS = ("3a", "3b", "4a", "4b", "5", "6", "7a", "7b")

_TWO_MODE = ModelVariant.TWO_MODE_SUPERRADIANT
_NONINTERACTING = ModelVariant.NONINTERACTING_COLLECTIVE


@dataclass(frozen=True)
class RunSpec:
    """One resolved CLI invocation."""

    command: str                 # dispersion | couplings | polariton | spectrum |
                                 # rabi-vs-n | rabi-vs-theta | figure
    params: SystemParams
    variant: ModelVariant
    out_path: Path
    figure_id: str | None = None
    grid_points: int | None = None
    grid_span_hz: float | None = None
    envelope_exact: bool = False


class Dataset(NamedTuple):
    """Named CSV columns, the comment lines above the header, and the
    spectrum trace the summary reports on (None for other datasets)."""

    columns: dict[str, np.ndarray]
    comments: tuple[str, ...] = ()
    trace: SpectrumTrace | None = None


# printf conversion per numpy dtype kind: floats carry 12 significant
# digits, integers and strings are written as they are.
_CELL_FORMATS = {"f": "%.11e", "i": "%d", "u": "%d", "U": "%s"}
# Rows are formatted a chunk at a time, with one % per chunk of at most this
# many cells.  The chunk's text (under 100 kB) stays below glibc's 128 kB mmap
# threshold: larger chunks make glibc raise it and serve them from the heap,
# which then fragments; a run of several large tables peaked 10 MB higher.
_CHUNK_CELLS = 4096


def _write_csv(
    path: Path, columns: dict[str, np.ndarray], comments: tuple[str, ...] = ()
) -> None:
    """Write equal-length named columns as one CSV dataset.

    Comment lines end in "\\n"; the header and data rows end in "\\r\\n", as
    csv.writer's do.  Strings are written unquoted, so they must not hold a
    comma, a double quote or a line break.
    """
    row_format = ",".join(_CELL_FORMATS[c.dtype.kind] for c in columns.values()) + "\r\n"
    rows = len(next(iter(columns.values())))
    with open(path, "w", newline="") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(",".join(columns) + "\r\n")
        chunk_rows = max(1, _CHUNK_CELLS // len(columns))
        for start in range(0, rows, chunk_rows):
            chunk = [c[start : start + chunk_rows].tolist() for c in columns.values()]
            cells = tuple(chain.from_iterable(zip(*chunk)))
            handle.write(row_format * len(chunk[0]) % cells)


def _flag(value, default):
    """A grid flag's value, or the dataset's default when it was not given."""
    return default if value is None else value


def _width(fwhm_hz: float, spec: str, missing: str) -> str:
    """A peak's FWHM in the given format, or ``missing`` when it is NaN."""
    return missing if math.isnan(fwhm_hz) else format(fwhm_hz, spec)


def _log_site_counts(max_sites: int) -> np.ndarray:
    """Logarithmically spaced site counts from 1 to max_sites."""
    return np.unique(np.rint(np.geomspace(1, max_sites, 61)).astype(int))


def _exciton_modes(spec: RunSpec) -> Dataset:
    params = spec.params
    k = np.arange(1, params.num_sites + 1)
    couplings = mode_coupling_array(params)
    columns = {
        "k": k,
        "energy_shift_hz": exciton_energies(params) - params.atom_frequency_hz,
        "coupling_hz": couplings,
        "coupling_sq_hz2": couplings**2,
        # Even-k modes have no net dipole, so parity alone decides darkness.
        "class": np.where(k % 2 == 0, "dark", "bright"),
        "oscillator_fraction": oscillator_fractions(couplings),
    }
    return Dataset(columns)


_WEIGHTS = (
    "exciton_weight_upper", "photon_weight_upper", "exciton_weight_lower", "photon_weight_lower",
)


def _polariton(spec: RunSpec) -> Dataset:
    """Doublets over a symmetric detuning sweep of the cavity frequency."""
    params = spec.params
    span = _flag(spec.grid_span_hz, 1.0e8)
    deltas = np.linspace(-span, span, _flag(spec.grid_points, 401))
    exciton_hz = superradiant_energy(params)
    # Python floats: a numpy scalar divided by zero warns instead of raising.
    doublets = [
        superradiant_doublet(replace(params, cavity_frequency_hz=cavity_hz))
        for cavity_hz in (exciton_hz + 2.0 * deltas).tolist()
    ]
    columns = {
        "delta_hz": deltas,
        "upper_shift_hz": np.array([d.upper_hz for d in doublets]) - exciton_hz,
        "lower_shift_hz": np.array([d.lower_hz for d in doublets]) - exciton_hz,
    }
    columns.update((name, np.array([getattr(d, name) for d in doublets])) for name in _WEIGHTS)
    return Dataset(columns)


def _spectrum(spec: RunSpec) -> Dataset:
    params = spec.params
    grid = default_grid(
        params,
        spec.variant,
        points=_flag(spec.grid_points, DEFAULT_GRID_POINTS),
        span_hz=spec.grid_span_hz,
    )
    trace = sweep(params, DampingSet.from_params(params), spec.variant, grid, spec.envelope_exact)
    comments = tuple(
        f"peak, {p.location_hz:.11e}, {p.height:.11e}, {_width(p.fwhm_hz, '.11e', '')}"
        for p in trace.peaks
    )
    columns = {
        "nu_hz": trace.frequencies_hz,
        "nu_shift_hz": trace.frequencies_hz - trace.center_hz,
        "transmission": trace.transmission,
        "reflection": trace.reflection,
    }
    return Dataset(columns, comments, trace)


def _rabi_vs_n(spec: RunSpec) -> Dataset:
    counts = _log_site_counts(spec.params.num_sites)
    interacting = vacuum_rabi_vs_N(spec.params, counts, _TWO_MODE)
    collective = vacuum_rabi_vs_N(spec.params, counts, _NONINTERACTING)
    columns = {
        "N": counts,
        "omega0_int_hz": np.array([omega for _, omega in interacting]),
        "omega0_nonint_hz": np.array([omega for _, omega in collective]),
    }
    return Dataset(columns)


def _rabi_vs_theta(spec: RunSpec) -> Dataset:
    params = spec.params
    thetas = np.linspace(0.0, math.pi / 2.0, _flag(spec.grid_points, 181))

    def curve(variant: ModelVariant) -> np.ndarray:
        return np.array([generalized_rabi(params, t, params.num_sites, variant) for t in thetas])

    columns = {
        "theta_rad": thetas,
        "omega_int_hz": curve(_TWO_MODE),
        "omega_nonint_hz": curve(_NONINTERACTING),
    }
    return Dataset(columns)


def _rabi_vs_n_at_angles(spec: RunSpec) -> Dataset:
    counts = _log_site_counts(spec.params.num_sites)

    def curve(theta: float, variant: ModelVariant) -> np.ndarray:
        return np.array([generalized_rabi(spec.params, theta, n, variant) for n in counts])

    columns = {
        "N": counts,
        "omega_int_theta0_hz": curve(0.0, _TWO_MODE),
        "omega_int_magic_hz": curve(MAGIC_ANGLE_RAD, _TWO_MODE),
        "omega_int_theta90_hz": curve(math.pi / 2.0, _TWO_MODE),
        "omega_nonint_hz": curve(0.0, _NONINTERACTING),
    }
    return Dataset(columns)


_GRID_FLAGS = ("grid_points", "grid_span_hz")
_Names = tuple[str, ...]

# Command or figure id -> (dataset builder, columns written or None for all,
# the grid flags the builder reads).
_DATASETS: dict[str, tuple[Callable[[RunSpec], Dataset], _Names | None, _Names]] = {
    "dispersion": (_exciton_modes, None, ()),
    "couplings": (_exciton_modes, None, ()),
    "polariton": (_polariton, None, _GRID_FLAGS),
    "spectrum": (_spectrum, None, _GRID_FLAGS),
    "rabi-vs-n": (_rabi_vs_n, None, ()),
    "rabi-vs-theta": (_rabi_vs_theta, None, ("grid_points",)),
    "3a": (_exciton_modes, None, ()),
    "3b": (_exciton_modes, None, ()),
    "4a": (_polariton, ("delta_hz", "upper_shift_hz", "lower_shift_hz"), _GRID_FLAGS),
    "4b": (_polariton, ("delta_hz", *_WEIGHTS), _GRID_FLAGS),
    "5": (_spectrum, None, _GRID_FLAGS),
    "6": (_rabi_vs_n, None, ()),
    "7a": (_rabi_vs_theta, None, ("grid_points",)),
    "7b": (_rabi_vs_n_at_angles, None, ()),
}


def _summary(params: SystemParams, variant: ModelVariant, trace: SpectrumTrace | None) -> list[str]:
    _, omega0 = variant_center(params, variant)
    lines = [
        f"dipole-dipole transfer rate: {transfer_parameter(params):.6e} Hz",
        f"superradiant cavity coupling: {superradiant_coupling(params):.6e} Hz",
        f"collective coupling (noninteracting): {collective_coupling_noninteracting(params):.6e} Hz",
        f"vacuum Rabi splitting ({variant.value}): {omega0:.6e} Hz",
    ]
    lines += [f"warning: {warning}" for warning in validate(params)]
    if trace is not None:
        lines.append("transmission peaks (location_hz, height, fwhm_hz):")
        for p in trace.peaks:
            lines.append(f"  {p.location_hz:.6e}  {p.height:.4e}  {_width(p.fwhm_hz, '.4e', 'n/a')}")
        lines.append("reflection dips (location_hz, depth):")
        dips = peak_find(trace.frequencies_hz, -trace.reflection)
        lines += [f"  {dip.location_hz:.6e}  {-dip.height:.4e}" for dip in dips]
    return lines


def run(spec: RunSpec) -> int:
    """Execute a resolved RunSpec: write its CSV dataset, print a summary."""
    build, names, _ = _DATASETS[spec.figure_id or spec.command]
    dataset = build(spec)
    columns = dataset.columns if names is None else {n: dataset.columns[n] for n in names}
    _write_csv(spec.out_path, columns, dataset.comments)
    for line in _summary(spec.params, spec.variant, dataset.trace):
        print(line)
    print(f"wrote: {spec.out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON parameter file")
    common.add_argument("--out", metavar="PATH", help="output CSV path")
    common.add_argument("--model", choices=[v.value for v in ModelVariant], default="two-mode",
                        help="model variant (default: two-mode)")
    common.add_argument("--num-sites", type=int, help="number of lattice sites")
    common.add_argument("--theta-deg", type=float, help="dipole angle in degrees")
    common.add_argument("--nu-c-hz", type=float, help="explicit cavity frequency in Hz")
    common.add_argument("--grid-points", type=int, help="sweep grid size")
    common.add_argument("--grid-span-hz", type=float, help="sweep half-span in Hz")
    common.add_argument("--envelope", choices=("exact", "flat"), default="flat",
                        help="beam envelope for the multimode model (default: flat)")

    parser = argparse.ArgumentParser(
        prog="lattice-polariton",
        description="Collective excitons of a finite atomic chain in a cavity: "
        "dispersion, couplings, polariton doublets, Rabi splittings, and spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dispersion", parents=[common], help="exciton mode energies")
    sub.add_parser("couplings", parents=[common], help="exciton-photon couplings")
    sub.add_parser("polariton", parents=[common], help="polariton doublet vs detuning")
    sub.add_parser("spectrum", parents=[common], help="transmission/reflection spectrum")
    sub.add_parser("rabi-vs-n", parents=[common], help="vacuum Rabi splitting vs atom number")
    sub.add_parser("rabi-vs-theta", parents=[common], help="generalized Rabi splitting vs angle")
    fig = sub.add_parser("figure", parents=[common], help="named figure presets")
    fig.add_argument("id", nargs="?", choices=FIGURE_IDS, help="figure preset id")
    return parser


def _build_spec(args: argparse.Namespace) -> RunSpec:
    figure_id = None
    if args.command == "figure":
        figure_id = args.id
        if figure_id is None:
            raise ConfigError("figure preset requires an id (e.g. `figure 5`)")

    if args.grid_points is not None and not 1 <= args.grid_points <= MAX_NUM_SITES:
        raise ConfigError(f"--grid-points must be in 1..{MAX_NUM_SITES}, got {args.grid_points}")
    if args.grid_span_hz is not None and not (0 < args.grid_span_hz < math.inf):
        raise ConfigError(
            f"--grid-span-hz must be a positive finite number, got {args.grid_span_hz}"
        )
    name = f"figure {figure_id}" if figure_id else args.command
    build, _, grid_flags = _DATASETS[figure_id or args.command]
    for flag in _GRID_FLAGS:
        if getattr(args, flag) is not None and flag not in grid_flags:
            raise ConfigError(f"{name} does not use --{flag.replace('_', '-')}")
    if args.envelope == "exact" and not (build is _spectrum and args.model == "multimode"):
        raise ConfigError("--envelope exact needs spectrum or figure 5 with --model multimode")

    overrides = {
        "num_sites": args.num_sites,
        "cavity_frequency_hz": args.nu_c_hz,
    }
    if args.theta_deg is not None:
        overrides["theta_rad"] = math.radians(args.theta_deg)
    params = load_params(args.config, **overrides)

    if figure_id is not None and params.cavity_frequency_hz is not None:
        raise ConfigError(
            "figure presets own the resonance convention; give neither --nu-c-hz "
            "nor cavity_frequency_hz in the parameter file"
        )

    if args.out:
        out_path = Path(args.out)
    elif figure_id is not None:
        out_path = Path(f"fig{figure_id}.csv")
    else:
        out_path = Path(f"{args.command}.csv")

    return RunSpec(
        command=args.command,
        params=params,
        variant=ModelVariant(args.model),
        out_path=out_path,
        figure_id=figure_id,
        grid_points=args.grid_points,
        grid_span_hz=args.grid_span_hz,
        envelope_exact=(args.envelope == "exact"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _build_spec(args)
    except (ConfigError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(spec)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: a derived quantity is out of floating-point range ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
