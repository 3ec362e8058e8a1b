"""Physical inputs, unit conventions, and derived quantities.

Every energy in this package is expressed as an ordinary frequency in Hz
(energy divided by the Planck constant); lengths, dipole moments, and
volumes are SI.  Damping rates are FWHM linewidths in Hz.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

# CODATA 2018 values.
PLANCK_H = 6.62607015e-34      # J s
EPSILON_0 = 8.8541878128e-12   # F/m

# Largest chain SystemParams accepts: a mode table of 1e8 sites already
# needs gigabytes, and larger inputs would fail only at an allocation.
MAX_NUM_SITES = 10**8

# Dipole angle where 1 - 3 cos^2(theta) vanishes and the nearest-neighbour
# transfer changes sign (about 54.7356 deg).
MAGIC_ANGLE_RAD = math.acos(1.0 / math.sqrt(3.0))


class InvalidParameterError(ValueError):
    """A physical input is non-positive or otherwise unusable."""


class ConfigError(ValueError):
    """A parameter file is malformed or carries unknown keys."""


# FWHM damping rates, fields of both SystemParams and DampingSet.
_RATES = ("gamma_mirror_hz", "gamma_cavity_hz", "gamma_atom_hz")


# Checks of SystemParams, used also by the functions that sweep one of its
# fields (the cavity, N, theta) without building a SystemParams per point.
def _check_positive(name: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise InvalidParameterError(f"{name} must be a positive number, got {value!r}")


def _check_num_sites(value) -> None:
    if not (isinstance(value, int) and 1 <= value <= MAX_NUM_SITES):
        raise InvalidParameterError(
            f"num_sites must be an integer in 1..{MAX_NUM_SITES}, got {value!r}"
        )


def _check_angle(value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise InvalidParameterError(f"theta_rad must be a finite number, got {value!r}")


def _check_rates(owner) -> None:
    """Refuse a damping rate of ``owner`` that is not a finite number >= 0."""
    for name in _RATES:
        value = getattr(owner, name)
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs of the chain-in-cavity system.

    Defaults are the reference set used throughout this package: a
    1000-site chain with 0.1 um spacing inside a 1.5 mm cavity of 0.3 mm
    waist, a 5e-29 C m transition dipole at 4e14 Hz, and 10 MHz damping
    on every channel.
    """

    lattice_constant_m: float = 1e-7
    num_sites: int = 1000
    beam_waist_m: float = 3e-4
    mirror_distance_m: float = 1.5e-3
    dipole_Cm: float = 5e-29
    atom_frequency_hz: float = 4e14
    theta_rad: float = 0.0          # dipole vs chain axis
    # None selects a cavity resonant with the lowest (superradiant) exciton.
    cavity_frequency_hz: float | None = None
    gamma_mirror_hz: float = 1e7    # per-mirror photon loss, FWHM
    gamma_cavity_hz: float = 1e7    # side loss into free space, FWHM
    gamma_atom_hz: float = 1e7      # excited-atom linewidth, FWHM
    # Explicit mode-volume override for sensitivity studies; None means the
    # Gaussian-mode value pi w0^2 L / 4.
    mode_volume_m3: float | None = None

    def __post_init__(self) -> None:
        for name in ("lattice_constant_m", "beam_waist_m", "mirror_distance_m", "dipole_Cm",
                     "atom_frequency_hz"):
            _check_positive(name, getattr(self, name))
        _check_num_sites(self.num_sites)
        _check_angle(self.theta_rad)
        _check_rates(self)
        for name in ("cavity_frequency_hz", "mode_volume_m3"):
            value = getattr(self, name)
            if value is not None:
                _check_positive(name, value)


@dataclass(frozen=True)
class DampingSet:
    """FWHM damping rates of the driven system."""

    gamma_mirror_hz: float  # per mirror, two identical mirrors
    gamma_cavity_hz: float  # side loss into free space
    gamma_atom_hz: float    # excited-atom linewidth

    def __post_init__(self) -> None:
        _check_rates(self)

    @property
    def cavity_width_hz(self) -> float:
        """Total cavity linewidth kappa = 2 gamma_mirror + gamma_side."""
        return 2.0 * self.gamma_mirror_hz + self.gamma_cavity_hz

    @classmethod
    def from_params(cls, params: SystemParams) -> "DampingSet":
        return cls(**{name: getattr(params, name) for name in _RATES})


def mode_volume(params: SystemParams) -> float:
    """Cavity mode volume in m^3: pi w0^2 L / 4 for the lowest Gaussian mode
    (or the explicit override, when set)."""
    if params.mode_volume_m3 is not None:
        return params.mode_volume_m3
    return math.pi * params.beam_waist_m**2 * params.mirror_distance_m / 4.0


def transfer_parameter(params: SystemParams) -> float:
    """Nearest-neighbour dipole-dipole transfer rate in Hz (signed).

    mu^2 (1 - 3 cos^2 theta) / (4 pi eps0 a^3 h): negative for a dipole
    along the chain, positive beyond the magic angle.
    """
    with np.errstate(all="ignore"):  # inf or NaN where a^3 underflows to 0
        return float(_transfer_at(params, params.theta_rad))


def _transfer_at(params: SystemParams, theta_rad):
    """transfer_parameter at dipole angle ``theta_rad``, a number or an
    array of them."""
    cos = np.cos(theta_rad)
    return (params.dipole_Cm**2 * (1.0 - 3.0 * (cos * cos))
            / (4.0 * math.pi * EPSILON_0 * params.lattice_constant_m**3 * PLANCK_H))


def chain_length(params: SystemParams) -> float:
    """Chain length (N + 1) a, counting the two empty boundary sites."""
    return (params.num_sites + 1) * params.lattice_constant_m


def site_positions(params: SystemParams) -> np.ndarray:
    """Positions of the N sites, centred on the beam axis.

    Written as (n - (N+1)/2) a so the array is exactly antisymmetric.
    """
    n = np.arange(1, params.num_sites + 1, dtype=float)
    return (n - (params.num_sites + 1) / 2.0) * params.lattice_constant_m


def _superradiant_shift_at(transfer_hz, num_sites):
    """Offset in Hz from the atomic line of the lowest (nodeless, k = 1)
    exciton mode, 2 J cos(pi / (N+1)), for transfer rate J and N sites;
    either may be an array."""
    return 2.0 * transfer_hz * np.cos(np.pi / (num_sites + 1))


def superradiant_energy(params: SystemParams) -> float:
    """Energy in Hz of the lowest exciton mode: nu_a + 2 J cos(pi / (N+1))."""
    shift = _superradiant_shift_at(transfer_parameter(params), params.num_sites)
    return params.atom_frequency_hz + float(shift)


def cavity_frequency(params: SystemParams) -> float:
    """Cavity frequency in Hz; defaults to resonance with the lowest exciton."""
    if params.cavity_frequency_hz is not None:
        return params.cavity_frequency_hz
    return superradiant_energy(params)


def validate(params: SystemParams) -> list[str]:
    """Return soft warnings; an empty list means the model assumptions hold.

    Currently checks the flat-envelope assumption: the chain must sit well
    inside the beam waist for exp(-r^2/w0^2) ~ 1 to be a good approximation.
    """
    warnings = []
    length = chain_length(params)
    if length > params.beam_waist_m:
        warnings.append(
            f"chain length {length:.3e} m exceeds the beam waist "
            f"{params.beam_waist_m:.3e} m; the flat mode-envelope "
            "approximation degrades"
        )
    return warnings


# JSON keys accepted by parameter files, mapped onto SystemParams fields.
_JSON_KEYS = {field.name for field in fields(SystemParams)}
_INT_KEYS = {"num_sites"}


def params_from_dict(data: dict) -> SystemParams:
    """Build SystemParams from a parameter dictionary (JSON schema keys)."""
    if not isinstance(data, dict):
        raise ConfigError(f"parameter file must hold a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _JSON_KEYS)
    if unknown:
        raise ConfigError(f"unknown parameter key(s): {', '.join(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"parameter {key} must be a number, got {value!r}")
        if key in _INT_KEYS:
            # is_integer() also refuses inf and NaN, which int() cannot convert.
            if isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"parameter {key} must be an integer, got {value!r}")
            kwargs[key] = int(value)
        else:
            try:
                kwargs[key] = float(value)
            except OverflowError:
                raise ConfigError(f"parameter {key} is too large for a float") from None
    return SystemParams(**kwargs)


def load_params(path: str | Path | None = None, **overrides) -> SystemParams:
    """Load SystemParams from an optional JSON file.

    Keyword overrides use the JSON schema keys (``num_sites``,
    ``theta_rad``, ...); those that are not None win over file values,
    which win over the built-in reference defaults.
    """
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as exc:  # malformed JSON, bad UTF-8, an over-long integer
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"parameter file {path} must hold a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    return params_from_dict(data)
