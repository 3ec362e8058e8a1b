"""Acceptance checks for the whole package at their stated tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on a green run).  Tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lattice_polariton import (
    MAGIC_ANGLE_RAD,
    DampingSet,
    ModelVariant,
    SystemParams,
    collective_coupling_noninteracting,
    exciton_energies,
    generalized_rabi,
    mode_coupling_array,
    multimode_diagonalize,
    oscillator_fractions,
    peak_find,
    superradiant_coupling,
    superradiant_doublet,
    sweep,
    transfer_parameter,
    two_mode_doublet,
    vacuum_rabi_vs_N,
)
from oracles import (
    SiteHamiltonian, coupling_sum_rule, diagonalize_site_hamiltonian, sine_mode_vector,
)

REF = SystemParams()


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({label}): {status}{suffix}")
    assert ok, f"acceptance criterion {number} ({label}) failed{suffix}"


def test_criterion_1_transfer_parameter():
    transfer = transfer_parameter(REF)
    ok_value = math.isclose(transfer, -6.8e7, rel_tol=0.02)
    root = brentq(lambda t: transfer_parameter(SystemParams(theta_rad=t)), 0.5, 1.2, xtol=1e-12)
    ok_zero = abs(math.degrees(root) - 54.7356) < 0.01
    report(
        1,
        "transfer parameter",
        ok_value and ok_zero,
        f"J/h={transfer:.4e} Hz, zero at {math.degrees(root):.4f} deg",
    )


def test_criterion_2_mode_couplings():
    couplings = mode_coupling_array(REF)
    ok_first = math.isclose(couplings[0], 2.55e7, rel_tol=0.02)
    ok_third = math.isclose(couplings[2], 8.5e6, rel_tol=0.02)
    ok_dark = all(couplings[k - 1] == 0.0 for k in range(2, 1001, 2))
    report(
        2,
        "exciton-photon couplings",
        ok_first and ok_third and ok_dark,
        f"g1={couplings[0]:.4e} Hz, g3={couplings[2]:.4e} Hz, even modes exactly 0",
    )


def test_criterion_3_oscillator_fractions_and_sum_rule():
    fractions = oscillator_fractions(mode_coupling_array(REF))
    ok_first = abs(fractions[0] - 0.81) <= 0.01
    ok_third = abs(fractions[2] - 0.09) <= 0.005
    ok_rule = all(
        abs(coupling_sum_rule(n) - n * (n + 1) / 2.0) <= 1e-9 * (n * (n + 1) / 2.0)
        for n in (1, 3, 10, 100, 1000)
    )
    report(
        3,
        "oscillator fractions / sum rule",
        ok_first and ok_third and ok_rule,
        f"f1={fractions[0]:.4f}, f3={fractions[2]:.4f}",
    )


def test_criterion_4_exciton_band_and_oracle():
    shift = exciton_energies(REF)[0] - REF.atom_frequency_hz
    ok_shift = math.isclose(shift, -1.35e8, rel_tol=0.02)

    ok_energy = True
    for n in range(1, 201):
        p = SystemParams(num_sites=n)
        vals, _ = diagonalize_site_hamiltonian(SiteHamiltonian.from_params(p))
        analytic = np.sort(exciton_energies(p))
        ok_energy &= bool(np.all(np.abs(vals - analytic) <= 1e-9 * np.abs(analytic)))

    worst_vec = 0.0
    for n in range(1, 201):
        h = SiteHamiltonian(dim=n, diagonal_hz=0.0, offdiag_hz=1.0)
        _, vecs = diagonalize_site_hamiltonian(h)
        order = np.argsort(2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)), kind="stable")
        for col, k in enumerate(order + 1):
            expected = sine_mode_vector(int(k), n)
            v = vecs[:, col]
            if np.dot(expected, v) < 0:
                v = -v
            worst_vec = max(worst_vec, float(np.abs(v - expected).max()))
    ok_vec = worst_vec <= 1e-9
    report(
        4,
        "exciton band / tridiagonal oracle",
        ok_shift and ok_energy and ok_vec,
        f"shift={shift:.4e} Hz, worst eigenvector dev={worst_vec:.2e}",
    )


def test_criterion_5_collective_coupling():
    resonant = SystemParams(cavity_frequency_hz=REF.atom_frequency_hz)
    collective = collective_coupling_noninteracting(resonant)
    ok_value = math.isclose(collective, 2.8e7, rel_tol=0.03)

    (_, omega_int), = vacuum_rabi_vs_N(REF, [1000], ModelVariant.TWO_MODE_SUPERRADIANT)
    (_, omega_non), = vacuum_rabi_vs_N(REF, [1000], ModelVariant.NONINTERACTING_COLLECTIVE)
    difference = omega_non - omega_int
    ok_diff = math.isclose(difference, 5e6, rel_tol=0.25)

    ratio = omega_int / omega_non
    ok_ratio = math.isclose(ratio, 2.0 * math.sqrt(2.0) / math.pi, rel_tol=0.005)
    report(
        5,
        "collective coupling",
        ok_value and ok_diff and ok_ratio,
        f"fbar={collective:.4e} Hz, diff={difference:.3e} Hz, ratio={ratio:.5f}",
    )


def test_criterion_6_polariton_doublet():
    rng = np.random.default_rng(7)
    ok_norm = True
    for _ in range(300):
        d = two_mode_doublet(
            4e14 + rng.uniform(-2e8, 2e8), 4e14 + rng.uniform(-2e8, 2e8), rng.uniform(0, 5e7)
        )
        ok_norm &= abs(d.exciton_weight_upper + d.photon_weight_upper - 1.0) <= 1e-12
        ok_norm &= abs(d.exciton_weight_lower + d.photon_weight_lower - 1.0) <= 1e-12
        ok_norm &= abs(d.exciton_weight_upper + d.exciton_weight_lower - 1.0) <= 1e-12
        ok_norm &= abs(d.photon_weight_upper + d.photon_weight_lower - 1.0) <= 1e-12

    resonant = two_mode_doublet(4e14, 4e14, 2.55e7)
    ok_half = all(
        abs(w - 0.5) <= 1e-12
        for w in (
            resonant.exciton_weight_upper,
            resonant.photon_weight_upper,
            resonant.exciton_weight_lower,
            resonant.photon_weight_lower,
        )
    )

    ok_oracle = True
    for _ in range(200):
        cavity = 4e14 + rng.uniform(-1e8, 1e8)
        exciton = 4e14 + rng.uniform(-1e8, 1e8)
        coupling = rng.uniform(1e5, 5e7)
        d = two_mode_doublet(cavity, exciton, coupling)
        vals, vecs = np.linalg.eigh(np.array([[exciton, coupling], [coupling, cavity]]))
        ok_oracle &= abs(d.lower_hz - vals[0]) <= 1e-12 * abs(vals[0])
        ok_oracle &= abs(d.upper_hz - vals[1]) <= 1e-12 * abs(vals[1])
        ok_oracle &= abs(vecs[0, 1] ** 2 - d.exciton_weight_upper) <= 1e-12
        ok_oracle &= abs(vecs[1, 0] ** 2 - d.photon_weight_lower) <= 1e-12
    report(6, "polariton doublet", ok_norm and ok_half and ok_oracle)


def test_criterion_7_generalized_rabi_minimum():
    resonant = SystemParams(cavity_frequency_hz=REF.atom_frequency_hz)
    floor = 2.0 * superradiant_coupling(resonant)
    at_magic = generalized_rabi(REF, MAGIC_ANGLE_RAD, 1000, ModelVariant.TWO_MODE_SUPERRADIANT)
    ok_equal = abs(at_magic - floor) <= 1e-12 * floor

    thetas = np.linspace(0.0, math.pi / 2, 499)
    omegas = np.array(
        [generalized_rabi(REF, t, 1000, ModelVariant.TWO_MODE_SUPERRADIANT) for t in thetas]
    )
    ok_min = bool(np.all(omegas >= floor))
    ok_min &= abs(thetas[int(np.argmin(omegas))] - MAGIC_ANGLE_RAD) < thetas[1] - thetas[0]

    nonint = generalized_rabi(REF, MAGIC_ANGLE_RAD, 1000, ModelVariant.NONINTERACTING_COLLECTIVE)
    ok_below = at_magic < nonint
    report(
        7,
        "generalized Rabi splitting",
        ok_equal and ok_min and ok_below,
        f"min={at_magic:.4e} Hz vs noninteracting {nonint:.4e} Hz",
    )


def test_criterion_8_spectra():
    damping = DampingSet.from_params(REF)
    trace = sweep(REF, damping, ModelVariant.TWO_MODE_SUPERRADIANT)
    omega0 = 2.0 * superradiant_coupling(REF)

    ok_peaks = len(trace.peaks) == 2
    dips = peak_find(trace.frequencies_hz, -trace.reflection)
    ok_dips = len(dips) == 2

    separation = trace.peaks[1].location_hz - trace.peaks[0].location_hz
    ok_sep = math.isclose(separation, omega0, rel_tol=0.05)

    ok_fwhm = all(abs(p.fwhm_hz - 2e7) <= 0.15 * 2e7 for p in trace.peaks)
    ok_passive = bool(np.all(trace.transmission + trace.reflection <= 1.0 + 1e-9))
    report(
        8,
        "transmission/reflection spectra",
        ok_peaks and ok_dips and ok_sep and ok_fwhm and ok_passive,
        f"separation={separation:.4e} Hz vs omega0={omega0:.4e} Hz, "
        f"fwhm={trace.peaks[0].fwhm_hz:.3e} Hz",
    )


def test_criterion_9_multimode_model():
    result = multimode_diagonalize(REF)
    energies = exciton_energies(REF)
    ok_dark = True
    for k in range(2, 1001, 2):
        column = np.nonzero(result.eigenvectors[k - 1, :] == 1.0)[0]
        ok_dark &= column.size == 1
        ok_dark &= result.frequencies_hz[column[0]] == energies[k - 1]
        ok_dark &= result.photon_weights[column[0]] == 0.0

    ok_interlace = True
    for n in range(1, 201):
        p = SystemParams(num_sites=n)
        lam = multimode_diagonalize(p).frequencies_hz
        bare = np.sort(exciton_energies(p))
        ok_interlace &= bool(np.all(lam[:-1] <= bare + 1.0) and np.all(bare <= lam[1:] + 1.0))

    single = SystemParams(num_sites=1)
    mm = multimode_diagonalize(single)
    doublet = superradiant_doublet(single)
    ok_single = abs(mm.frequencies_hz[0] - doublet.lower_hz) <= 1e-12 * doublet.lower_hz
    ok_single &= abs(mm.frequencies_hz[1] - doublet.upper_hz) <= 1e-12 * doublet.upper_hz
    ok_single &= abs(mm.photon_weights[0] - doublet.photon_weight_lower) <= 1e-12
    ok_single &= abs(mm.photon_weights[1] - doublet.photon_weight_upper) <= 1e-12

    top2 = np.sort(np.argsort(result.photon_weights)[-2:])
    multi_split = result.frequencies_hz[top2[1]] - result.frequencies_hz[top2[0]]
    two_split = superradiant_doublet(REF).splitting_hz
    report(
        9,
        "multimode model",
        ok_dark and ok_interlace and ok_single,
        f"two-mode vs multimode splitting deviation: {multi_split / two_split - 1.0:+.2%} "
        "(exploratory)",
    )
