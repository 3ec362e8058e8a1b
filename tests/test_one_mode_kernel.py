"""The single-mode array kernel against the per-point loops it replaced.

Each sweep axis (the cavity, N, theta) is drawn over the whole range that
SystemParams accepts, so that couplings underflow to 0, squares overflow
and lines cross 0 Hz.  The kernel must give the bytes of the loop, or raise
the loop's error at the loop's first failing point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import _shift_point, doublet_point, polariton_loop, rabi_loop, rabi_point

from lattice_polariton import (
    MAGIC_ANGLE_RAD, ModelVariant, SystemParams, rabi_splitting, superradiant_energy,
    two_mode_doublet,
)
from lattice_polariton.blocks import libm, quotient
from lattice_polariton.params import MAX_NUM_SITES, _superradiant_shift_at, _transfer_at
from lattice_polariton.polariton import _BLOCK_POINTS, superradiant_doublets

TWO, NON = ModelVariant.TWO_MODE_SUPERRADIANT, ModelVariant.NONINTERACTING_COLLECTIVE
REF = SystemParams()
# Grids long enough that numpy's squares, hypot, cos and tan would differ
# from Python's at some points.
DETUNINGS = np.linspace(-3e8, 3e8, 2001).tolist()
ANGLES = np.linspace(0.0, math.pi / 2.0, 2001).tolist()
# A dipole whose square underflows: every coupling is 0, the pure-state branch.
DARK = SystemParams(dipole_Cm=1e-300)


def outcome(f, *args):
    """The bytes f returns, or the type and message of the error it raises.
    A numpy warning fails the test: Python floats give none."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(f(*args), float).tobytes()
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)


def power(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


# Parameters from the whole range SystemParams accepts, where J, the
# couplings and the lines can underflow, overflow or turn negative.
params_st = st.builds(
    SystemParams,
    lattice_constant_m=power(-9.0, 100.0),
    num_sites=st.integers(1, MAX_NUM_SITES),
    dipole_Cm=power(-200.0, 130.0),
    atom_frequency_hz=power(12.0, 17.0),
    theta_rad=st.floats(0.0, math.pi),
    mode_volume_m3=st.none() | power(-300.0, 60.0),
)
# The default parameters with some of those ranges, where most sweeps succeed.
near_params_st = st.builds(
    SystemParams,
    num_sites=st.integers(1, MAX_NUM_SITES),
    dipole_Cm=power(-32.0, -26.0),
    theta_rad=st.floats(0.0, math.pi),
)
any_params = params_st | near_params_st
signed = st.floats(-1e17, 1e17) | power(-20.0, 300.0) | power(-20.0, 300.0).map(lambda x: -x)
variants = st.sampled_from([TWO, NON])


@settings(max_examples=300, deadline=None)
@given(params=any_params, offsets=st.lists(signed, min_size=1, max_size=30), line=st.booleans())
@example(params=REF, offsets=DETUNINGS, line=True)
@example(params=DARK, offsets=[-1e8, 0.0, 1e8], line=True)
@example(params=REF, offsets=[-1e8, 0.0, 1e8], line=True)
@example(params=SystemParams(theta_rad=MAGIC_ANGLE_RAD), offsets=[-1e8, 0.0, 1e8], line=True)
@example(params=SystemParams(num_sites=1), offsets=[-2e8, 0.0, 3e8], line=True)
@example(params=SystemParams(num_sites=MAX_NUM_SITES), offsets=[-2e8, 0.0, 3e8], line=True)
@example(params=REF, offsets=[-5e15, -4e14, 0.0, 1e9], line=True)
@example(params=SystemParams(dipole_Cm=1e-161, mode_volume_m3=3e56), offsets=[-1e8, 0.0, 1e8],
         line=True)
def test_doublet_rows_match_the_per_point_loop(params, offsets, line):
    """Axis: the cavity, as offsets from the superradiant line or from 0 Hz."""
    base = params.atom_frequency_hz if line else 0.0
    if line:
        try:
            base = superradiant_energy(params)
        except ArithmeticError:
            pass
    cavities = base + np.array(offsets)
    assert outcome(superradiant_doublets, params, cavities) == outcome(polariton_loop, params,
                                                                      cavities)


@settings(max_examples=300, deadline=None)
@given(params=any_params, variant=variants,
       sites=st.lists(st.integers(1, MAX_NUM_SITES) | st.integers(-2, 0)
                      | st.integers(MAX_NUM_SITES, MAX_NUM_SITES + 2), min_size=1, max_size=30),
       theta=st.floats(0.0, math.pi), cavity=st.sampled_from(["line", "atom", "below"]))
@example(params=REF, variant=TWO, sites=list(range(1, 3000)), theta=0.3, cavity="line")
@example(params=REF, variant=TWO, sites=list(range(1, 3000)), theta=0.3, cavity="atom")
@example(params=REF, variant=TWO, sites=[1, 2, 10, 1000, MAX_NUM_SITES], theta=0.0,
         cavity="line")
@example(params=REF, variant=TWO, sites=[1, 2, 10, 1000, MAX_NUM_SITES], theta=MAGIC_ANGLE_RAD,
         cavity="atom")
@example(params=DARK, variant=NON, sites=[1, MAX_NUM_SITES], theta=0.0, cavity="atom")
@example(params=SystemParams(dipole_Cm=3e-24, cavity_frequency_hz=4e14), variant=TWO,
         sites=[1, 2, 3], theta=0.0, cavity="line")
@example(params=SystemParams(dipole_Cm=3e-24, mode_volume_m3=1e-300), variant=TWO,
         sites=[1, 2, 3], theta=0.0, cavity="line")
@example(params=REF, variant=TWO, sites=[5, 0, 7], theta=0.0, cavity="line")
def test_rabi_over_site_counts_matches_the_per_point_loop(params, variant, sites, theta, cavity):
    """Axis: N, with the cavity on the variant's line, on the atomic line,
    or 1 kHz above 0 Hz."""
    cavity_hz = {"line": None, "atom": params.atom_frequency_hz, "below": 1e3}[cavity]
    got = outcome(rabi_splitting, params, variant, np.array(sites), theta, cavity_hz)
    assert got == outcome(rabi_loop, params, variant, sites, [theta] * len(sites), cavity_hz)


@settings(max_examples=300, deadline=None)
@given(params=any_params, variant=variants,
       thetas=st.lists(st.floats(0.0, math.pi) | st.floats(allow_nan=True), min_size=1,
                       max_size=30),
       num_sites=st.integers(1, MAX_NUM_SITES), line=st.booleans())
@example(params=REF, variant=TWO, thetas=ANGLES, num_sites=1000, line=False)
@example(params=REF, variant=TWO, thetas=ANGLES, num_sites=1000, line=True)
@example(params=REF, variant=TWO, thetas=[0.0, MAGIC_ANGLE_RAD, math.pi / 2.0], num_sites=1000,
         line=False)
@example(params=REF, variant=TWO, thetas=[0.0, MAGIC_ANGLE_RAD, math.pi / 2.0], num_sites=1,
         line=True)
@example(params=REF, variant=NON, thetas=[0.0, MAGIC_ANGLE_RAD], num_sites=MAX_NUM_SITES,
         line=True)
@example(params=DARK, variant=TWO, thetas=[0.0, MAGIC_ANGLE_RAD], num_sites=1000, line=False)
@example(params=REF, variant=TWO, thetas=[0.5, math.inf, math.nan], num_sites=10, line=False)
def test_rabi_over_angles_matches_the_per_point_loop(params, variant, thetas, num_sites, line):
    """Axis: theta, with the cavity on the variant's line or the atomic line."""
    cavity_hz = None if line else params.atom_frequency_hz
    got = outcome(rabi_splitting, params, variant, num_sites, np.array(thetas), cavity_hz)
    assert got == outcome(rabi_loop, params, variant, [num_sites] * len(thetas), thetas, cavity_hz)


@settings(max_examples=300, deadline=None)
@given(cavity=signed, exciton=signed, coupling=signed | st.just(0.0) | power(-330.0, -150.0)
       | power(150.0, 160.0))
@example(cavity=4e14, exciton=4e14, coupling=0.0)
@example(cavity=4e14 + 1e8, exciton=4e14, coupling=0.0)
@example(cavity=4e14 - 1e8, exciton=4e14, coupling=0.0)
@example(cavity=4e14 + 1e8, exciton=4e14, coupling=-1.0)
@example(cavity=4e14, exciton=4e14, coupling=2.0**512)
@example(cavity=4e14, exciton=4e14, coupling=math.nextafter(2.0**512, 0.0))
@example(cavity=4e14 + 1e8, exciton=4e14, coupling=1e-158)
@example(cavity=4e14, exciton=4e14, coupling=1e-170)
def test_two_mode_doublet_matches_the_scalar_form(cavity, exciton, coupling):
    """The scalar API takes its numbers from the kernel, one point long."""
    def fields(*args):
        return astuple(two_mode_doublet(*args))

    assert outcome(fields, cavity, exciton, coupling) == outcome(doublet_point, cavity, exciton,
                                                                 coupling)


@settings(max_examples=200, deadline=None)
@given(params=any_params, variant=variants, num_sites=st.integers(1, MAX_NUM_SITES),
       theta=st.floats(0.0, math.pi), line=st.booleans())
def test_rabi_splitting_of_numbers_matches_the_scalar_form(params, variant, num_sites, theta, line):
    cavity_hz = None if line else params.atom_frequency_hz
    got = outcome(rabi_splitting, params, variant, num_sites, theta, cavity_hz)
    assert got == outcome(rabi_point, params, variant, num_sites, theta, cavity_hz)
    if isinstance(got, bytes):
        assert type(rabi_splitting(params, variant, num_sites, theta, cavity_hz)) is float


def test_sweeps_across_blocks_fail_at_their_first_point():
    """A refusal in a later block names its own point; blocks before it
    succeed, and one after it is never reached."""
    size = 3 * _BLOCK_POINTS
    sites = np.full(size, 10)
    sites[_BLOCK_POINTS + 5] = 0
    sites[2 * _BLOCK_POINTS + 1] = -1
    with pytest.raises(ValueError, match="got 0$"):
        rabi_splitting(REF, TWO, sites, 0.0)
    thetas = np.linspace(0.0, math.pi / 2.0, size)
    got = rabi_splitting(REF, TWO, 1000, thetas, REF.atom_frequency_hz)
    assert got.tobytes() == rabi_loop(REF, TWO, [1000] * size, thetas.tolist(),
                                      REF.atom_frequency_hz).tobytes()


def test_libm_and_quotient_follow_python_floats():
    x = np.random.default_rng(7).uniform(-1e8, 1e8, 20_000)
    assert libm(pow, x, 2).tolist() == [v**2 for v in x.tolist()]
    assert libm(math.hypot, x, x[::-1]).tolist() == [math.hypot(a, b) for a, b in
                                                   zip(x.tolist(), x[::-1].tolist())]
    assert libm(math.cos, 0.5) == math.cos(0.5)
    with pytest.raises(ZeroDivisionError) as refused:
        quotient(x, 0.0)
    with pytest.raises(ZeroDivisionError) as also_refused:
        1.0 / 0.0  # noqa: B018
    assert str(refused.value) == str(also_refused.value)
    with pytest.raises(OverflowError) as refused:
        libm(pow, np.array([1.0, 2.0**512]), 2)
    with pytest.raises(OverflowError) as also_refused:
        (2.0**512) ** 2  # noqa: B018
    assert str(refused.value) == str(also_refused.value)


def test_shift_of_swept_angles_and_counts_matches_the_scalar_form():
    """J and the k = 1 shift of arrays, before the atomic line absorbs
    their last bits."""
    rng = np.random.default_rng(11)
    thetas, sites = rng.uniform(0.0, math.pi, 5000), rng.integers(1, MAX_NUM_SITES, 5000)
    shifts = _superradiant_shift_at(_transfer_at(REF, thetas), 1000)
    assert shifts.tolist() == [_shift_point(REF, 1000, t) for t in thetas.tolist()]
    shifts = _superradiant_shift_at(_transfer_at(REF, 0.4), sites)
    assert shifts.tolist() == [_shift_point(REF, n, 0.4) for n in sites.tolist()]
