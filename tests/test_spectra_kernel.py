"""The self-energy kernel of ``spectra`` against 40-digit mpmath and against
the per-resonance loop it replaced.

Both sides take the same float inputs: the transfer rate J, the site
coupling, the mode couplings, the damping rates, the cavity frequency and
the grid.  mpmath then evaluates the mode lines 2 J cos(pi k / (N+1)) and
the sums exactly (to 40 digits), so the bound measures the package's own
rounding, not the conditioning of its inputs.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from lattice_polariton import (
    DampingSet, ModelVariant, SystemParams, cavity_frequency, collective_coupling_noninteracting,
    default_grid, envelope_mode_couplings, site_coupling, superradiant_coupling, sweep,
    transfer_parameter,
)
from lattice_polariton.cli import RunSpec, _exciton_modes, _spectrum
from lattice_polariton.params import MAGIC_ANGLE_RAD
from lattice_polariton.polariton import _BLOCK_POINTS, variant_modes
from lattice_polariton.resolvent import chain_sum
from lattice_polariton.spectra import _transfer
from oracles import resonance_loop

BOUND = 1e-13

MODELS = [
    ("two-mode", ModelVariant.TWO_MODE_SUPERRADIANT, False),
    ("multimode", ModelVariant.FULL_MULTIMODE, False),
    ("envelope", ModelVariant.FULL_MULTIMODE, True),
    ("noninteracting", ModelVariant.NONINTERACTING_COLLECTIVE, False),
]
SIZES = [1, 2, 7, 1000]
ANGLES = [0.0, MAGIC_ANGLE_RAD, math.pi / 2]
ANGLE_IDS = ["0", "magic", "90"]


@pytest.fixture(autouse=True)
def forty_digits():
    """Each test runs at 40 digits and leaves mpmath's precision as it was."""
    with mpmath.workdps(40):
        yield


def mp_lines(params):
    """Exact offsets 2 J cos(pi k / (N+1)) from the atomic line, k = 1..N."""
    n = params.num_sites
    two_j = 2 * mpmath.mpf(transfer_parameter(params))
    return [two_j * mpmath.cospi(mpmath.mpf(k) / (n + 1)) for k in range(1, n + 1)]


def mp_resonances(params, variant, envelope):
    """(g_k^2, line_k) pairs of a model, in mpmath, from the float inputs."""
    n = params.num_sites
    if variant is ModelVariant.TWO_MODE_SUPERRADIANT:
        return [(mpmath.mpf(superradiant_coupling(params)) ** 2, mp_lines(params)[0])]
    if variant is ModelVariant.NONINTERACTING_COLLECTIVE:
        return [(mpmath.mpf(collective_coupling_noninteracting(params)) ** 2, mpmath.mpf(0))]
    lines = mp_lines(params)
    if envelope:
        couplings = envelope_mode_couplings(params).tolist()
        return [(mpmath.mpf(g) ** 2, lines[k]) for k, g in enumerate(couplings) if g != 0.0]
    g_site = mpmath.mpf(site_coupling(params))
    return [
        (g_site**2 * 2 / (n + 1) * mpmath.cot(mpmath.pi * k / (2 * (n + 1))) ** 2, lines[k - 1])
        for k in range(1, n + 1, 2)
    ]


def mp_amplitude(params, resonances, nu_hz):
    """t at each drive frequency: gamma_m / (kappa/2 + i (nu_c - nu) + Sigma)."""
    atom = mpmath.mpf(params.atom_frequency_hz)
    cavity = mpmath.mpf(cavity_frequency(params)) - atom
    h = mpmath.mpf(params.gamma_atom_hz) / 2
    kappa = 2 * mpmath.mpf(params.gamma_mirror_hz) + mpmath.mpf(params.gamma_cavity_hz)
    out = []
    for nu in nu_hz:
        x = mpmath.mpf(nu) - atom
        real, imag = kappa / 2, cavity - x
        for weight, line in resonances:  # g^2 / (h + i d) = g^2 (h - i d) / (h^2 + d^2)
            d = line - x
            scale = weight / (h * h + d * d)
            real += scale * h
            imag -= scale * d
        out.append(mpmath.mpf(params.gamma_mirror_hz) / mpmath.mpc(real, imag))
    return out


def relative_error(values, exact):
    return max(
        float(abs(mpmath.mpf(v) - e) / abs(e)) if e != 0 else abs(v) for v, e in zip(values, exact)
    )


def amplitudes(params, variant, envelope, grid):
    t_real, t_imag = _transfer(params, DampingSet.from_params(params), variant, grid, envelope)
    return t_real + 1j * t_imag


@pytest.mark.parametrize("theta", ANGLES, ids=ANGLE_IDS)
@pytest.mark.parametrize("num_sites", SIZES)
def test_every_model_matches_mpmath(num_sites, theta):
    """t, r and every float column of the spectrum CSV, on the 41-point
    default grid of each model, within 1e-13 of the 40-digit values."""
    params = SystemParams(num_sites=num_sites, theta_rad=theta)
    for name, variant, envelope in MODELS:
        spec = RunSpec("spectrum", params, variant, None, 41, None, envelope)
        dataset = _spectrum(spec)
        grid = dataset.columns["nu_hz"]
        t = amplitudes(params, variant, envelope, grid)
        exact_t = mp_amplitude(params, mp_resonances(params, variant, envelope), grid.tolist())
        exact_r = [1 - e for e in exact_t]
        errors = {
            "t": max(float(abs(mpmath.mpc(a) - e) / abs(e)) for a, e in zip(t.tolist(), exact_t)),
            "r": max(float(abs(mpmath.mpc(1 - a) - e) / abs(e))
                     for a, e in zip(t.tolist(), exact_r)),
            "transmission": relative_error(dataset.columns["transmission"].tolist(),
                                           [abs(e) ** 2 for e in exact_t]),
            "reflection": relative_error(dataset.columns["reflection"].tolist(),
                                         [abs(e) ** 2 for e in exact_r]),
            # The shift is taken from the float centre, so it is exact.
            "nu_shift_hz": relative_error(
                dataset.columns["nu_shift_hz"].tolist(),
                [mpmath.mpf(v) - mpmath.mpf(dataset.trace.center_hz) for v in grid.tolist()]),
        }
        assert max(errors.values()) <= BOUND, (name, errors)


def mp_chain_sum(x, transfer_hz, num_sites):
    """S = [N - sinh(N s/2) / (sinh(s/2) cosh((N+1) s/2))] / (x - 2J),
    x = 2 J cosh s, in mpmath: the closed form in its textbook shape."""
    two_j = 2 * mpmath.mpf(transfer_hz)
    s = mpmath.acosh(x / two_j)
    ratio = mpmath.sinh(num_sites * s / 2) / (
        mpmath.sinh(s / 2) * mpmath.cosh((num_sites + 1) * s / 2))
    return (num_sites - ratio) / (x - two_j)


@pytest.mark.parametrize("num_sites", SIZES)
def test_textbook_closed_form_is_the_resonance_sum(num_sites):
    """The mpmath closed form used as the N = 1e5 oracle below equals the
    direct sum over the odd modes, to 30 digits."""
    params = SystemParams(num_sites=num_sites)
    transfer = transfer_parameter(params)
    weights = [w / mpmath.mpf(site_coupling(params)) ** 2
               for w, _ in mp_resonances(params, ModelVariant.FULL_MULTIMODE, False)]
    lines = [line for _, line in mp_resonances(params, ModelVariant.FULL_MULTIMODE, False)]
    for x in (mpmath.mpc(2 * transfer, 5e6), mpmath.mpc(0, 5e6), mpmath.mpc(-3e8, 1e5)):
        direct = mpmath.fsum(w / (x - line) for w, line in zip(weights, lines))
        assert abs(mp_chain_sum(x, transfer, num_sites) - direct) <= 1e-30 * abs(direct)


def test_flat_closed_form_at_large_n():
    """N = 1e5: both band edges, the superradiant line and the two doublet
    peaks, against the 40-digit closed form."""
    params = SystemParams(num_sites=100_000)
    variant = ModelVariant.FULL_MULTIMODE
    atom, transfer = params.atom_frequency_hz, transfer_parameter(params)
    peaks = [p.location_hz for p in sweep(params, DampingSet.from_params(params), variant).peaks]
    assert len(peaks) == 2
    points = np.array(sorted([atom + 2 * transfer, atom - 2 * transfer,
                              cavity_frequency(params), *peaks]))
    t = amplitudes(params, variant, False, points)
    g_sq = mpmath.mpf(site_coupling(params)) ** 2
    h = mpmath.mpf(params.gamma_atom_hz) / 2
    cavity = mpmath.mpf(cavity_frequency(params)) - atom
    kappa = 2 * mpmath.mpf(params.gamma_mirror_hz) + mpmath.mpf(params.gamma_cavity_hz)
    for value, nu in zip(t.tolist(), points.tolist()):
        x = mpmath.mpf(nu) - atom
        sigma = 1j * g_sq * mp_chain_sum(mpmath.mpc(x, h), transfer, params.num_sites)
        exact = mpmath.mpf(params.gamma_mirror_hz) / (kappa / 2 + 1j * (cavity - x) + sigma)
        assert abs(mpmath.mpc(value) - exact) <= BOUND * abs(exact)
        assert abs(mpmath.mpc(1 - value) - (1 - exact)) <= BOUND * abs(1 - exact)


@pytest.mark.parametrize("theta", ANGLES, ids=ANGLE_IDS)
@pytest.mark.parametrize("num_sites", SIZES)
def test_loop_oracle_fed_offsets_agrees(num_sites, theta):
    """The per-resonance loop, given the lines and grid as offsets from the
    atomic line, gives the kernel's t within 1e-13 in every model."""
    params = SystemParams(num_sites=num_sites, theta_rad=theta)
    damping = DampingSet.from_params(params)
    atom = params.atom_frequency_hz
    for name, variant, envelope in MODELS:
        spec = RunSpec("spectrum", params, variant, None, 41, None, envelope)
        grid = _spectrum(spec).columns["nu_hz"]
        couplings, lines = variant_modes(params, variant, envelope)
        loop_t, _ = resonance_loop(grid - atom, cavity_frequency(params) - atom, damping,
                                   list(zip(couplings.tolist(), lines.tolist())))
        kernel_t = amplitudes(params, variant, envelope, grid)
        assert np.abs(kernel_t - loop_t).max() <= BOUND * np.abs(loop_t).min(), name


class TestChainSumEdges:
    """Inputs where the closed form needs care, each without a numpy warning."""

    @staticmethod
    def direct(x, transfer, num_sites):
        k = np.arange(1, num_sites + 1, 2)
        weights = 2.0 / (num_sites + 1) / np.tan(np.pi * k / (2 * (num_sites + 1))) ** 2
        return (weights / (x[:, None] - 2 * transfer * np.cos(np.pi * k / (num_sites + 1)))).sum(1)

    @pytest.mark.parametrize("transfer", [-3.0, 0.0, 2.0], ids=["J<0", "J=0", "J>0"])
    @pytest.mark.parametrize("num_sites", [1, 2, 3, 8, 501])
    def test_agrees_with_the_direct_sum(self, transfer, num_sites):
        x = np.linspace(-9.0, 9.0, 37) + 0.3j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = chain_sum(x, transfer, num_sites)
        np.testing.assert_allclose(value, self.direct(x, transfer, num_sites), rtol=1e-12)

    @pytest.mark.parametrize("transfer", [-3.0, 2.0])
    @pytest.mark.parametrize("num_sites", [1, 2, 7, 8])
    def test_band_edges_on_the_real_axis(self, transfer, num_sites):
        # x = 2J is s = 0, where the closed form is 0/0 and its limit
        # N(N+1)(N+2)/(12J) is used; x = -2J is s = i pi, where for even N
        # two rounding-sized factors cancel in the ratio.
        x = np.array([2.0 * transfer, -2.0 * transfer], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = chain_sum(x, transfer, num_sites)
        np.testing.assert_allclose(value, self.direct(x, transfer, num_sites), rtol=1e-12)

    @pytest.mark.parametrize("variant", [ModelVariant.FULL_MULTIMODE,
                                         ModelVariant.NONINTERACTING_COLLECTIVE])
    @pytest.mark.parametrize("num_sites", [1, 5, 1001])
    def test_undamped_pole_blocks_transmission(self, variant, num_sites):
        # With Gamma_a = 0 the atomic line is a pole: of the k = (N+1)/2 mode
        # when that k is odd, and of the noninteracting model's one line.
        params = SystemParams(num_sites=num_sites, gamma_atom_hz=0.0, cavity_frequency_hz=4e14)
        damping = DampingSet.from_params(params)
        grid = params.atom_frequency_hz + np.linspace(-1e9, 1e9, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = sweep(params, damping, variant, grid)
        middle = grid.size // 2
        assert trace.frequencies_hz[middle] == params.atom_frequency_hz
        assert np.isfinite(trace.transmission).all() and np.isfinite(trace.reflection).all()
        assert trace.transmission[middle] <= 1e-12
        assert trace.reflection[middle] == pytest.approx(1.0)

    def test_magic_angle_zero_transfer(self):
        x = np.array([0.5 + 0.1j, -2.0 + 0.0j])
        np.testing.assert_array_equal(chain_sum(x, 0.0, 9), 9 / x)


def test_flat_sweep_builds_no_chain_sized_array():
    """A flat multimode sweep at N = 1e7 costs O(1) memory per grid point:
    one N-sized float array alone would be 80 MB."""
    params = SystemParams(num_sites=10_000_000)
    damping = DampingSet.from_params(params)
    tracemalloc.start()
    try:
        trace = sweep(params, damping, ModelVariant.FULL_MULTIMODE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.frequencies_hz.size == 2001 and len(trace.peaks) == 2
    assert peak < 10e6


def test_flat_sweep_blocks_change_no_bit():
    """The flat closed form takes a grid a block of points at a time: on a
    grid of three blocks, the points on either side of each block edge, and
    a sample of the rest, are bit for bit what each gives alone."""
    params = SystemParams()
    damping = DampingSet.from_params(params)
    variant = ModelVariant.FULL_MULTIMODE
    grid = default_grid(params, variant, points=3 * _BLOCK_POINTS)
    t_real, t_imag = _transfer(params, damping, variant, grid)
    edges = [k * _BLOCK_POINTS + d for k in (1, 2) for d in (-1, 0)]
    for i in [*edges, *range(0, grid.size, 97)]:
        alone = _transfer(params, damping, variant, grid[i : i + 1])
        assert (t_real[i], t_imag[i]) == (alone[0][0], alone[1][0]), i


@pytest.mark.parametrize("theta", ANGLES, ids=ANGLE_IDS)
@pytest.mark.parametrize("num_sites", SIZES)
def test_mode_table_matches_mpmath(num_sites, theta):
    """Every float column of the mode table within 1e-13, each cell
    relative to itself; the band-centre shift of an odd chain is exactly 0."""
    params = SystemParams(num_sites=num_sites, theta_rad=theta)
    spec = RunSpec("dispersion", params, ModelVariant.TWO_MODE_SUPERRADIANT, None)
    columns = _exciton_modes(spec).columns
    lines = mp_lines(params)
    g_site = mpmath.mpf(site_coupling(params))
    exact_g = [
        g_site * mpmath.sqrt(mpmath.mpf(2) / (num_sites + 1))
        * mpmath.cot(mpmath.pi * k / (2 * (num_sites + 1))) if k % 2 else mpmath.mpf(0)
        for k in range(1, num_sites + 1)
    ]
    exact_sq = [g**2 for g in exact_g]
    total = mpmath.fsum(exact_sq)
    assert relative_error(columns["energy_shift_hz"].tolist(), lines) <= BOUND
    assert relative_error(columns["coupling_hz"].tolist(), exact_g) <= BOUND
    assert relative_error(columns["coupling_sq_hz2"].tolist(), exact_sq) <= BOUND
    assert relative_error(columns["oscillator_fraction"].tolist(),
                          [q / total for q in exact_sq]) <= BOUND
