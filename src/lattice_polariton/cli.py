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
from dataclasses import dataclass
from pathlib import Path
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .blocks import DENSE_BUDGET_BYTES
from .exciton import exciton_shifts, mode_coupling_array, oscillator_fractions
from .params import (
    MAGIC_ANGLE_RAD, MAX_NUM_SITES, ConfigError, DampingSet, SystemParams, cavity_frequency,
    load_params, superradiant_energy, transfer_parameter, validate,
)
from .polariton import (
    ModelVariant, collective_coupling_noninteracting, rabi_splitting, superradiant_coupling,
    superradiant_doublets, variant_center,
)
from .spectra import DEFAULT_GRID_POINTS, SpectrumTrace, _maxima, default_grid, sweep

FIGURE_IDS = ("3a", "3b", "4a", "4b", "5", "6", "7a", "7b")

_TWO_MODE = ModelVariant.TWO_MODE_SUPERRADIANT
_NONINTERACTING = ModelVariant.NONINTERACTING_COLLECTIVE


@dataclass(frozen=True)
class RunSpec:
    """One resolved CLI invocation."""

    dataset: str                 # the command, or the figure id of `figure`
    params: SystemParams
    variant: ModelVariant
    out_path: Path
    grid_points: int | None = None
    grid_span_hz: float | None = None
    envelope_exact: bool = False


class Dataset(NamedTuple):
    """Named CSV columns, the comment lines above the header, and the
    spectrum trace the summary reports on (None for other datasets)."""

    columns: dict[str, np.ndarray]
    comments: tuple[str, ...] = ()
    trace: SpectrumTrace | None = None


# Bytes of row text laid out at a time, in one buffer reused from block to block.
_BLOCK_BYTES = 1 << 18
# Four digits "0000" to "9999" read as uint32, and a float's first four as
# "d.ddd" and three NULs read as uint64, where 10**4 reads "1.000".
_DIGITS = (48 + np.indices((10,) * 4).reshape(4, -1).T).astype(np.uint8, order="C")
_GROUPS = _DIGITS.view(np.uint32).ravel()
_LEADS = np.zeros((10**4 + 1, 8), np.uint8)
_LEADS[:-1, [0, 2, 3, 4]], _LEADS[:, 1] = _DIGITS, ord(".")
_LEADS[-1] = _LEADS[1000]
_LEADS = _LEADS.view(np.uint64).ravel()
# 10**k correctly rounded for k in [-297, 308], then 0; and three NULs, e
# and the exponent 308 - k (a hundreds of 0 as NUL) read as uint64.
_POW10 = np.array([float(f"1e{k}") for k in range(-297, 309)] + [0.0])
_EXPONENTS = np.frombuffer("".join(f"\0\0\0e{e:+04d}".replace("+0", "+\0").replace("-0", "-\0")
                                   for e in range(308, -299, -1)).encode(), np.uint64)
# Per binade (a double's 11 exponent bits): the k of its least double's
# decimal exponent e, and 10**(e + 1), from which its doubles have exponent
# e + 1 (inf below 1e-297).  Zero, subnormals, inf and NaN take e = 0.
_BINADE_E = np.floor((np.arange(2048) - 1023) * math.log10(2.0)).astype(np.intp)
_BINADE_E[[0, -1]] = 0
_BINADE_K = np.minimum(308 - _BINADE_E, _POW10.size - 1)
_BINADE_TENS = np.where(_BINADE_E >= -298, _POW10[np.maximum(_BINADE_E + 298, 0)], math.inf)
# The value from which each of an integer field's 20 digit slots shows: the
# first two never do, the ones always.
_PLACES = np.array([2**63 - 1] * 2 + [10**p for p in range(17, 0, -1)] + [0])


def _float_fields(x, runs):
    """Lay out '%.11e' of the floats x (rows x columns) in the fields of
    ``runs``, and return where their digits are not proven: the 13th digit
    near a tie, or a value not finite, subnormal or below 1e-297.  A run is
    (first column, end column, its fields: rows x columns x 19 bytes of
    sign, d.ddddddddddd, e and a signed three-digit exponent)."""
    with np.errstate(all="ignore"):  # non-finite cells
        a = np.abs(x)
        binade = a.view(np.int64) >> 52
        k = _BINADE_K.take(binade) - (a >= _BINADE_TENS.take(binade))  # _POW10[k] = 10**(11 - e)
        s = a * _POW10.take(k)  # the 12 digits before the point; a zero takes this path too
        digits = np.rint(s)
        fits = (s >= 1e11) & (s < 1e12)
        # The power and the product each round by at most 2**-53 relative, so
        # s errs by under 2 ulp of s, at most 2.45e-4 as s < 1e12 < 2**40, and
        # rint(s) - s is exact.  A fraction more than 3e-4 from 1/2 leaves the
        # exact product on the same side of the tie, so rint(s) rounds as '%'.
        near = np.abs(digits - s) >= 0.5 - 3e-4
    proven = fits & ~near | (a == 0)
    # rint breaks a tie to even, as '%' does, so a near-tie is proven when s
    # is exact: 10**j is (0 <= j <= 22), and a's odd mantissa times 5**j fits
    # in 53 bits.
    ties = np.flatnonzero(fits & near)
    ties = ties[(k.flat[ties] >= 297) & (k.flat[ties] <= 319)]
    mantissa = (np.frexp(a.flat[ties])[0] * 2.0**53).astype(np.int64)
    proven.flat[ties] = mantissa // (mantissa & -mantissa) <= (2**53 - 1) // 5 ** (k.flat[ties] - 297)
    low = np.where(proven, digits, 0.0).astype(np.int64)
    k -= low == 10**12  # rounded up to 10**12: "1.000..." with the next exponent
    lead, mid = low // 10**8, low // 10**4
    low -= mid * 10**4
    mid -= lead * 10**4
    sign = np.signbit(x) * np.uint8(ord("-"))
    for c0, c1, field in runs:  # each write after the one it overlaps
        field[..., 0] = sign[:, c0:c1]
        field[..., 1:9].view(np.uint64)[..., 0] = _LEADS.take(lead[:, c0:c1])
        field[..., 11:19].view(np.uint64)[..., 0] = _EXPONENTS.take(k[:, c0:c1])
        field[..., 6:10].view(np.uint32)[..., 0] = _GROUPS.take(mid[:, c0:c1])
        field[..., 10:14].view(np.uint32)[..., 0] = _GROUPS.take(low[:, c0:c1])
    return ~proven


def _int_fields(v, runs):
    """Lay out '%d' of the int64 cells v (rows x columns) in the fields of ``runs``
    (each a sign and 20 digit slots), and return where |v| reaches 10**18."""
    a = np.abs(v)
    unproven = a.view(np.uint64) >= 10**18  # -2**63 stays negative: 2**63 unsigned
    a[unproven] = 0
    groups = (len(str(a.max())) + 3) // 4  # of four digits, from the ones up
    shown = a[..., None] >= _PLACES[20 - 4 * groups :]
    quads = [a // 10**p - a // 10 ** min(p + 4, 18) * 10**4 for p in range(0, 4 * groups, 4)]  # a < 10**18
    sign = (v < 0) * np.uint8(ord("-"))
    for c0, c1, field in runs:
        field[..., 0] = sign[:, c0:c1]
        field[..., 1 : 21 - 4 * groups] = 0
        for end, quad in zip(range(21, 0, -4), quads):
            field[..., end - 4 : end].view(np.uint32)[..., 0] = _GROUPS.take(quad[:, c0:c1])
        field[..., 21 - 4 * groups :] *= shown[:, c0:c1]
    return unproven


# Per numpy dtype kind of a number: its kernel, the bytes of its field after
# the separator, the dtype the kernel reads, and the printf conversion of the
# cells it cannot prove (floats carry 12 significant digits).
_KERNELS = {"f": (_float_fields, 19, float, "%.11e"), "i": (_int_fields, 21, np.int64, "%d")}


def _write_csv(path: Path, columns: dict[str, np.ndarray], comments: tuple[str, ...] = ()) -> None:
    """Write equal-length named columns as one CSV dataset.

    Comment lines end in "\\n"; the header and data rows end in "\\r\\n", as
    csv.writer's do.  A column holds floats, signed integers or labels as
    byte strings, written as their bytes, unquoted: a label must not hold a
    comma, a double quote, a line break or a NUL.  A block of rows is laid
    out in one reused buffer of fixed-width fields, each a separator (laid
    once per call) and bytes whose NULs one ``translate`` per block drops.
    One kernel call fills every float column's fields, one every integer
    column's, a label's bytes are copied, and the cells the kernels cannot
    prove are formatted with '%' and placed in one scatter per kernel.
    """
    cells = list(columns.values())
    kinds = [c.dtype.kind for c in cells]
    for name, kind in zip(columns, kinds):
        if kind not in "fiS":
            raise ValueError(f"column {name} has dtype kind {kind!r}: write floats, ints or bytes")
    widths = [_KERNELS[k][1] if k in _KERNELS else c.itemsize for k, c in zip(kinds, cells)]
    starts = np.cumsum([0] + [w + 1 for w in widths])
    # A row's fixed bytes: the first field has no separator.
    static = b"\0" + b"".join(b"," + bytes(w) for w in widths)[1:] + b"\r\n"
    rows = len(cells[0])
    buffer = bytearray(static * max(1, min(rows, _BLOCK_BYTES // len(static))))
    row = np.frombuffer(buffer, np.uint8).reshape(-1, len(static))
    kernels = []
    for kind, (kernel, width, dtype, fmt) in _KERNELS.items():
        cols = np.array([j for j, k in enumerate(kinds) if k == kind], int)
        if cols.size:
            # Runs of adjacent columns, whose fields are one (rows x columns x width) view.
            cuts = [0, *(c for c in range(1, cols.size) if cols[c] > cols[c - 1] + 1), cols.size]
            runs = [(c0, c1, starts[cols[c0]], starts[cols[c1 - 1] + 1]) for c0, c1 in zip(cuts, cuts[1:])]
            kernels.append((kernel, cols, runs, np.empty((len(row), cols.size), dtype), width, fmt))
    labels = [j for j, k in enumerate(kinds) if k == "S"]
    with open(path, "wb") as handle:
        handle.write(("".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\r\n").encode())
        for r0 in range(0, rows, len(row)):
            block = row[: rows - r0]  # a kernel rewrites each byte of its fields but the separator
            n = len(block)
            for kernel, cols, runs, values, width, fmt in kernels:
                for c, j in enumerate(cols):
                    values[:n, c] = cells[j][r0 : r0 + n]
                fields = [(c0, c1, block[:, b0:b1].reshape(n, c1 - c0, -1)[..., 1:]) for c0, c1, b0, b1 in runs]
                unproven = kernel(values[:n], fields)
                if unproven.any():
                    i, c = np.divmod(np.flatnonzero(unproven), cols.size)
                    text = b"".join((fmt % v).encode().ljust(width, b"\0") for v in values[i, c].tolist())
                    spans = starts[cols[c], None] + np.arange(1, width + 1)
                    block[i[:, None], spans] = np.frombuffer(text, np.uint8).reshape(-1, width)
            for j in labels:
                text = np.ascontiguousarray(cells[j][r0 : r0 + n]).view(np.uint8).reshape(n, -1)
                block[:, starts[j] + 1 : starts[j + 1]] = text
            handle.write(buffer[: block.nbytes].translate(None, b"\0"))


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
        "energy_shift_hz": exciton_shifts(params),
        "coupling_hz": couplings,
        "coupling_sq_hz2": couplings**2,
        # Even-k modes have no net dipole, so parity alone decides darkness.
        "class": np.where(k % 2 == 0, b"dark", b"bright"),
        "oscillator_fraction": oscillator_fractions(couplings),
    }
    return Dataset(columns)


_WEIGHTS = (
    "exciton_weight_upper", "photon_weight_upper", "exciton_weight_lower", "photon_weight_lower",
)


def _polariton(spec: RunSpec) -> Dataset:
    """Doublets over a symmetric detuning sweep of the cavity frequency."""
    params = spec.params
    deltas = np.linspace(-spec.grid_span_hz, spec.grid_span_hz, spec.grid_points)
    exciton_hz = superradiant_energy(params)
    values = superradiant_doublets(params, exciton_hz + 2.0 * deltas)
    values[:2] -= exciton_hz
    names = ("upper_shift_hz", "lower_shift_hz", *_WEIGHTS)
    return Dataset({"delta_hz": deltas, **dict(zip(names, values))})


def _spectrum(spec: RunSpec) -> Dataset:
    params = spec.params
    grid = default_grid(params, spec.variant, points=spec.grid_points, span_hz=spec.grid_span_hz)
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


def _rabi_curves(spec: RunSpec, axis: dict[str, np.ndarray], cavity_hz: float | None,
                 curves: dict[str, tuple[ModelVariant, np.ndarray | int, np.ndarray | float]]
                 ) -> Dataset:
    """Rabi splittings along the axis column: each curve is a variant with
    its site counts and angles, one of them the axis's values."""
    columns = dict(axis)
    for name, (variant, sites, thetas) in curves.items():
        columns[name] = rabi_splitting(spec.params, variant, sites, thetas, cavity_hz)
    return Dataset(columns)


def _rabi_vs_n(spec: RunSpec) -> Dataset:
    counts, theta = _log_site_counts(spec.params.num_sites), spec.params.theta_rad
    return _rabi_curves(spec, {"N": counts}, None, {
        "omega0_int_hz": (_TWO_MODE, counts, theta),
        "omega0_nonint_hz": (_NONINTERACTING, counts, theta),
    })


def _rabi_vs_theta(spec: RunSpec) -> Dataset:
    thetas, num_sites = np.linspace(0.0, math.pi / 2.0, spec.grid_points), spec.params.num_sites
    return _rabi_curves(spec, {"theta_rad": thetas}, spec.params.atom_frequency_hz, {
        "omega_int_hz": (_TWO_MODE, num_sites, thetas),
        "omega_nonint_hz": (_NONINTERACTING, num_sites, thetas),
    })


def _rabi_vs_n_at_angles(spec: RunSpec) -> Dataset:
    counts = _log_site_counts(spec.params.num_sites)
    return _rabi_curves(spec, {"N": counts}, spec.params.atom_frequency_hz, {
        "omega_int_theta0_hz": (_TWO_MODE, counts, 0.0),
        "omega_int_magic_hz": (_TWO_MODE, counts, MAGIC_ANGLE_RAD),
        "omega_int_theta90_hz": (_TWO_MODE, counts, math.pi / 2.0),
        "omega_nonint_hz": (_NONINTERACTING, counts, 0.0),
    })


# A span of None lets default_grid size the spectrum's grid.
_DETUNING_GRID = {"grid_points": 401, "grid_span_hz": 1.0e8}
_SPECTRUM_GRID = {"grid_points": DEFAULT_GRID_POINTS, "grid_span_hz": None}
_ANGLE_GRID = {"grid_points": 181}

# Command or figure id -> (dataset builder, columns written or None for all,
# each grid flag the builder reads, mapped to its default).
_DATASETS: dict[str, tuple[Callable[[RunSpec], Dataset], tuple[str, ...] | None, dict]] = {
    "dispersion": (_exciton_modes, None, {}),
    "couplings": (_exciton_modes, None, {}),
    "polariton": (_polariton, None, _DETUNING_GRID),
    "spectrum": (_spectrum, None, _SPECTRUM_GRID),
    "rabi-vs-n": (_rabi_vs_n, None, {}),
    "rabi-vs-theta": (_rabi_vs_theta, None, _ANGLE_GRID),
    "3a": (_exciton_modes, None, {}),
    "3b": (_exciton_modes, None, {}),
    "4a": (_polariton, ("delta_hz", "upper_shift_hz", "lower_shift_hz"), _DETUNING_GRID),
    "4b": (_polariton, ("delta_hz", *_WEIGHTS), _DETUNING_GRID),
    "5": (_spectrum, None, _SPECTRUM_GRID),
    "6": (_rabi_vs_n, None, {}),
    "7a": (_rabi_vs_theta, None, _ANGLE_GRID),
    "7b": (_rabi_vs_n_at_angles, None, {}),
}


# Peak bytes a builder and the writer take per site and per grid point: the
# tracemalloc peaks at 1e5-1e6 rows, rounded up, apart from the writer's
# blocks, about 1 MB whatever the rows.  A builder not listed takes 61 atom
# numbers at most.  The exact envelope adds its own per-site bytes.
_ROW_BYTES = {_exciton_modes: (64.0, 0.0), _polariton: (0.0, 80.0), _spectrum: (0.0, 56.0),
              _rabi_vs_theta: (0.0, 32.0)}
_ENVELOPE_SITE_BYTES = 64.0


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
        dips = _maxima(trace.frequencies_hz, -trace.reflection, ceiling=0.0)  # no widths printed
        lines += [f"  {location:.6e}  {-height:.4e}" for _, location, height in dips]
    return lines


def run(spec: RunSpec) -> int:
    """Execute a resolved RunSpec: write its CSV dataset, print a summary."""
    build, names, _ = _DATASETS[spec.dataset]
    site_bytes, point_bytes = _ROW_BYTES.get(build, (0.0, 0.0))
    need = ((site_bytes + _ENVELOPE_SITE_BYTES * spec.envelope_exact) * spec.params.num_sites
            + point_bytes * (spec.grid_points or 0))
    if need > DENSE_BUDGET_BYTES:
        name = f"figure {spec.dataset}" if spec.dataset in FIGURE_IDS else spec.dataset
        points = "" if spec.grid_points is None else f" and {spec.grid_points} grid points"
        raise ValueError(
            f"{name} at N = {spec.params.num_sites}{points} needs about {need / 1e9:.3g} GB, "
            f"over the {DENSE_BUDGET_BYTES / 1e9:.3g} GB limit")
    dataset = build(spec)
    columns = dataset.columns if names is None else {n: dataset.columns[n] for n in names}
    for name, column in columns.items():
        # min and max carry any NaN or inf, with no N-element temporary; the
        # first bad row is sought only once one is known to exist.
        if column.dtype.kind == "f" and not np.isfinite([column.min(), column.max()]).all():
            axis, values = next(iter(columns.items()))
            row = np.flatnonzero(~np.isfinite(column))[0]
            raise ArithmeticError(f"{name} is not finite at {axis} = {values[row].item()!r}")
    _write_csv(spec.out_path, columns, dataset.comments)
    for line in _summary(spec.params, spec.variant, dataset.trace):
        print(line)
    print(f"wrote: {spec.out_path}")
    return 0


# Each command with its help line: the choices of the command argument, and
# the listing in --help.
_COMMANDS = {
    "dispersion": "exciton mode energies",
    "couplings": "exciton-photon couplings",
    "polariton": "polariton doublet vs detuning",
    "spectrum": "transmission/reflection spectrum",
    "rabi-vs-n": "vacuum Rabi splitting vs atom number",
    "rabi-vs-theta": "generalized Rabi splitting vs angle",
    "figure": f"named figure presets, by id: {', '.join(FIGURE_IDS)}",
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and kept."""
    parser = argparse.ArgumentParser(
        prog="lattice-polariton",
        description="Collective excitons of a finite atomic chain in a cavity:\n"
        "dispersion, couplings, polariton doublets, Rabi splittings, and spectra.",
        epilog="commands:\n" + "\n".join(f"  {c:15} {text}" for c, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("id", nargs="?", choices=FIGURE_IDS, metavar="id",
                        help="figure preset id, after figure only")
    parser.add_argument("--config", metavar="PATH", help="JSON parameter file")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--model", choices=[v.value for v in ModelVariant], default="two-mode",
                        help="model variant (default: two-mode)")
    parser.add_argument("--num-sites", type=int, help="number of lattice sites")
    parser.add_argument("--theta-deg", type=float, help="dipole angle in degrees")
    parser.add_argument("--nu-c-hz", type=float, help="explicit cavity frequency in Hz")
    parser.add_argument("--grid-points", type=int, help="sweep grid size")
    parser.add_argument("--grid-span-hz", type=float, help="sweep half-span in Hz")
    parser.add_argument("--envelope", choices=("exact", "flat"), default="flat",
                        help="beam envelope for the multimode model (default: flat)")
    # parse_intermixed_args lays out the usage on every call unless one is
    # set, and sets this one: the usage without its "usage: " prefix.
    parser.usage = parser.format_usage()[len("usage: "):]
    return parser


def _check_transfer_rate(params: SystemParams) -> None:
    """Refuse a transfer rate J that is not finite, or that puts the
    superradiant line (which places the default cavity) at a frequency
    that is not positive: every command reads both."""
    try:
        transfer = transfer_parameter(params)
        cavity = cavity_frequency(params)
    except ArithmeticError as exc:
        raise ArithmeticError(f"the dipole-dipole transfer rate J: {exc}") from None
    if not math.isfinite(transfer):
        raise ArithmeticError(f"the dipole-dipole transfer rate J is {transfer} Hz")
    if not 0.0 < cavity < math.inf:
        raise ConfigError(f"the dipole-dipole transfer rate J = {transfer:.6e} Hz puts the superradiant "
                          f"line, the default cavity frequency, at {cavity:.6e} Hz")


def _build_spec(args: argparse.Namespace) -> RunSpec:
    figure = args.command == "figure"
    if figure and args.id is None:
        raise ConfigError("figure preset requires an id (e.g. `figure 5`)")
    dataset = args.id if figure else args.command

    if args.grid_points is not None and not 1 <= args.grid_points <= MAX_NUM_SITES:
        raise ConfigError(f"--grid-points must be in 1..{MAX_NUM_SITES}, got {args.grid_points}")
    # The grids reach 2 x span across: the spectrum's from -span to +span, and
    # polariton's cavity from 2 x span below the line to 2 x span above it.
    if args.grid_span_hz is not None and not (0 < 2.0 * args.grid_span_hz < math.inf):
        raise ConfigError(
            f"--grid-span-hz must be a positive number whose double is finite, got {args.grid_span_hz}"
        )
    build, _, grid_defaults = _DATASETS[dataset]
    grid = dict(grid_defaults)
    for flag in ("grid_points", "grid_span_hz"):
        if getattr(args, flag) is not None:
            if flag not in grid:
                name = f"figure {dataset}" if figure else dataset
                raise ConfigError(f"{name} does not use --{flag.replace('_', '-')}")
            grid[flag] = getattr(args, flag)
    if args.envelope == "exact" and not (build is _spectrum and args.model == "multimode"):
        raise ConfigError("--envelope exact needs spectrum or figure 5 with --model multimode")

    overrides = {"num_sites": args.num_sites, "cavity_frequency_hz": args.nu_c_hz}
    if args.theta_deg is not None:
        overrides["theta_rad"] = math.radians(args.theta_deg)
    params = load_params(args.config, **overrides)

    if figure and params.cavity_frequency_hz is not None:
        raise ConfigError("figure presets own the resonance convention; give neither --nu-c-hz "
                          "nor cavity_frequency_hz in the parameter file")
    _check_transfer_rate(params)

    out_path = Path(args.out or (f"fig{dataset}.csv" if figure else f"{dataset}.csv"))
    return RunSpec(dataset, params, ModelVariant(args.model), out_path,
                   envelope_exact=args.envelope == "exact", **grid)


def _refuse(exc: Exception) -> int:
    """Report an input that cannot give a result; exit code 1."""
    if isinstance(exc, ArithmeticError):
        exc = f"a derived quantity is out of floating-point range ({exc})"
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    if args.id is not None and args.command != "figure":
        parser.error(f"{args.command} takes no figure id, got {args.id}")
    try:
        spec = _build_spec(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        return _refuse(exc)
    try:
        return run(spec)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        return _refuse(exc)
