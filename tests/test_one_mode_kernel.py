"""The single-mode array kernel against the per-point loops it replaced.

Each sweep axis (the cavity, N, theta) is drawn over the whole range that
SystemParams accepts, so that couplings underflow to 0, squares overflow
and lines cross 0 Hz.  The loop runs on Python floats and Python's math,
the kernel on numpy's ufuncs, so the two may differ in the last bits.  The
contract: where the loop gives numbers, the kernel's are within KERNEL_ULPS
ulp of theirs, at the scale that ``frequency_scale`` states; where
SystemParams refuses a point, the kernel raises the loop's error at the
loop's first such point; where the loop fails in its arithmetic (a square
that overflows, a division by an underflowed zero), the kernel leaves inf
or NaN at that point.  The kernel's numbers against
40-digit mpmath are in test_doublets_against_mpmath.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    KERNEL_ULPS, _shift_point, doublet_point, one_doublet, polariton_loop, rabi_loop, rabi_point,
    ulps,
)

from lattice_polariton import (
    MAGIC_ANGLE_RAD, ModelVariant, SystemParams, rabi_splitting, superradiant_energy,
)
from lattice_polariton.params import (
    EPSILON_0, MAX_NUM_SITES, PLANCK_H, _superradiant_shift_at, _transfer_at,
)
from lattice_polariton.polariton import (
    _BLOCK_POINTS, _doublets, _half_splitting, _one_mode, superradiant_doublets,
)

TWO, NON = ModelVariant.TWO_MODE_SUPERRADIANT, ModelVariant.NONINTERACTING_COLLECTIVE
REF = SystemParams()
# Grids long enough that numpy's squares, hypot, cos and tan differ from
# Python's at some points.
DETUNINGS = np.linspace(-3e8, 3e8, 2001).tolist()
ANGLES = np.linspace(0.0, math.pi / 2.0, 2001).tolist()
# A dipole whose square underflows: every coupling is 0, the pure-state branch.
DARK = SystemParams(dipole_Cm=1e-300)


def outcome(f, *args):
    """What f returns, as a float array, or the type and message of the
    error it raises.  A numpy warning fails the test: the kernel is quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(f(*args), float)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)


def assert_agrees(got, points, distance):
    """The kernel's outcome ``got`` against the loop's at each point alone.
    If the kernel raises, it raises the first refusal of the points; else no point
    is refused, each point that fails in the loop's arithmetic is not finite
    in the kernel, and distance(i, got[..., i], the loop's values) holds at
    every other point."""
    refusals = [p for p in points if isinstance(p, tuple) and not issubclass(p[0], ArithmeticError)]
    if isinstance(got, tuple):
        assert refusals and got == refusals[0]
        return
    assert not refusals, refusals[0]
    for i, want in enumerate(points):
        if isinstance(want, tuple):
            assert not np.isfinite(got[..., i]).all(), (i, want)
        else:
            with np.errstate(all="ignore"):
                assert distance(i, got[..., i], want.ravel()), (i, got[..., i], want)


def one_point(got):
    """A call's outcome as that of a sweep one point long."""
    return got if isinstance(got, tuple) else got[..., None]


def frequency_scale(params, *frequencies):
    """The scale of a frequency (a branch, a splitting, a line), which is as
    exact as the largest frequency it is made from: the given ones, the
    atomic line, or the terms 3|J(0)| of 2 J cos(pi / (N+1)), which cancel
    near the magic angle.  A doublet's weights inherit that error over the
    half-splitting; an amplitude made from given numbers, and a coupling,
    are relative."""
    terms = 3.0 * params.dipole_Cm**2 / (2.0 * math.pi * EPSILON_0 * params.lattice_constant_m**3
                                         * PLANCK_H)
    return max(params.atom_frequency_hz, terms, *(abs(f) for f in frequencies))


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
    points = [outcome(polariton_loop, params, cavities[i : i + 1]) for i in range(cavities.size)]

    def close(i, got, want):
        scale = frequency_scale(params, cavities[i], *want[:2])
        half = (want[0] - want[1]) / 2.0
        return ((ulps(got[:2], want[:2], scale) <= KERNEL_ULPS).all()
                and (ulps(got[2:], want[2:], scale / half if half else 0.0) <= KERNEL_ULPS).all())

    assert_agrees(outcome(superradiant_doublets, params, cavities), points, close)


def splittings_close(params, cavity_hz):
    """A splitting's distance: relative with the cavity on the variant's
    line, where the detuning is exactly 0 and the splitting is 2 |coupling|,
    else at the scale of the cavity and the line."""
    scale = 0.0 if cavity_hz is None else frequency_scale(params, cavity_hz)

    def close(i, got, want):
        return ulps(got, want, scale) <= KERNEL_ULPS
    return close


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
    points = [outcome(rabi_loop, params, variant, [n], [theta], cavity_hz) for n in sites]
    assert_agrees(got, points, splittings_close(params, cavity_hz))


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
    points = [outcome(rabi_loop, params, variant, [num_sites], [t], cavity_hz) for t in thetas]
    assert_agrees(got, points, splittings_close(params, cavity_hz))


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
    """The doublet kernel on a sweep one point long, against the per-point
    form, for a coupling of either sign.  The detuning is exact; the
    half-splitting and the branches are within the frequency bound of the
    inputs; the amplitudes are relative."""
    def close(i, got, want):
        scale = max(abs(cavity), abs(exciton), abs(coupling))
        return (ulps(got[0], want[0]) == 0
                and (ulps(got[1:4], want[1:4], scale) <= KERNEL_ULPS).all()
                and (ulps(got[4:], want[4:]) <= KERNEL_ULPS).all())

    got = outcome(one_doublet, cavity, exciton, coupling)
    assert_agrees(one_point(got), [outcome(doublet_point, cavity, exciton, coupling)], close)


@settings(max_examples=200, deadline=None)
@given(params=any_params, variant=variants, num_sites=st.integers(1, MAX_NUM_SITES),
       theta=st.floats(0.0, math.pi), line=st.booleans())
def test_rabi_splitting_of_numbers_matches_the_scalar_form(params, variant, num_sites, theta, line):
    cavity_hz = None if line else params.atom_frequency_hz
    got = outcome(rabi_splitting, params, variant, num_sites, theta, cavity_hz)
    want = outcome(rabi_point, params, variant, num_sites, theta, cavity_hz)
    assert_agrees(one_point(got), [want], splittings_close(params, cavity_hz))
    if not isinstance(got, tuple):
        assert type(rabi_splitting(params, variant, num_sites, theta, cavity_hz)) is float


def test_sweeps_across_blocks_fail_at_their_first_point():
    """A refusal in a later block names its own point, not that of a later
    block, nor a point that only fails in the arithmetic; a sweep with no
    refusal runs through every block."""
    size = 3 * _BLOCK_POINTS
    sites = np.full(size, 10)
    sites[_BLOCK_POINTS + 5] = 0
    sites[2 * _BLOCK_POINTS + 1] = -1
    with pytest.raises(ValueError, match="got 0$"):
        rabi_splitting(REF, TWO, sites, 0.0)
    # The site coupling's divisor underflows to 0 at every point: not finite.
    dark = SystemParams(dipole_Cm=3e-24, mode_volume_m3=1e-300)
    with pytest.raises(ValueError, match="got 0$"):
        rabi_splitting(dark, NON, sites, 0.0)
    assert np.isinf(rabi_splitting(dark, NON, np.full(size, 10), 0.0)).all()
    thetas = np.linspace(0.0, math.pi / 2.0, size)
    got = rabi_splitting(REF, TWO, 1000, thetas, REF.atom_frequency_hz)
    want = rabi_loop(REF, TWO, [1000] * size, thetas.tolist(), REF.atom_frequency_hz)
    assert (ulps(got, want, frequency_scale(REF)) <= KERNEL_ULPS).all()


def test_shift_of_swept_angles_and_counts_matches_the_scalar_form():
    """J and the k = 1 shift of arrays, before the atomic line absorbs
    their last bits: within the frequency bound of the shift's own terms,
    3|J(0)|, which cancel near the magic angle."""
    rng = np.random.default_rng(11)
    thetas, sites = rng.uniform(0.0, math.pi, 5000), rng.integers(1, MAX_NUM_SITES, 5000)
    terms = 3.0 * abs(_transfer_at(REF, 0.0))
    shifts = _superradiant_shift_at(_transfer_at(REF, thetas), 1000)
    want = [_shift_point(REF, 1000, t) for t in thetas.tolist()]
    assert (ulps(shifts, want, terms) <= KERNEL_ULPS).all()
    shifts = _superradiant_shift_at(_transfer_at(REF, 0.4), sites)
    want = [_shift_point(REF, n, 0.4) for n in sites.tolist()]
    assert (ulps(shifts, want) <= KERNEL_ULPS).all()


def exact_doublet(cavity, exciton, coupling):
    """Detuning, half-splitting, branches and weights in 40 digits."""
    with mpmath.workdps(40):
        c, e, g = mpmath.mpf(cavity), mpmath.mpf(exciton), mpmath.mpf(coupling)
        detuning = (c - e) / 2
        half = mpmath.sqrt(detuning**2 + g**2)
        mean = (c + e) / 2
        # The exciton's share of the upper branch is (1 - det/half)/2.
        upper_x = (1 - detuning / half) / 2
        exact = [detuning, half, mean + half, mean - half, upper_x, 1 - upper_x, 1 - upper_x,
                 upper_x]
        return [float(x) for x in exact]


@settings(max_examples=200, deadline=None)
@given(params=near_params_st, offset=st.floats(-1e10, 1e10))
@example(params=REF, offset=0.0)
@example(params=SystemParams(theta_rad=MAGIC_ANGLE_RAD), offset=1e8)
@example(params=SystemParams(theta_rad=math.pi / 2.0), offset=-3e8)
def test_doublets_against_mpmath(params, offset):
    """_doublets and the splitting against 40 digits, from the kernel's own
    double line and coupling: from the raw parameters both the kernel and
    the loop are far off, as the cavity minus the line cancels at 4e14 Hz.
    From those rounded inputs, taken as exact, every value is within its
    bound of its own last place."""
    cavity = superradiant_energy(params) + offset
    coupling, shift = _one_mode(params, TWO, cavity, params.num_sites, params.theta_rad)
    exciton = params.atom_frequency_hz + shift
    with np.errstate(all="raise"):
        rows = _doublets(np.array([cavity]), exciton, np.array([coupling]))[:, 0]
        splitting = 2.0 * _half_splitting(cavity, exciton, coupling)
    exact = exact_doublet(cavity, exciton, coupling)
    assert (ulps(rows[:4], exact[:4]) <= KERNEL_ULPS).all()
    assert ulps(splitting, 2.0 * exact[1]) <= KERNEL_ULPS
    assert (ulps(rows[4:] * rows[4:], exact[4:]) <= KERNEL_ULPS).all()
