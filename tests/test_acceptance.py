"""Acceptance suite: one test per release criterion, each timed against its budget.

Each criterion reports a single PASS/FAIL line in the terminal summary
(printed by the conftest hook, so it survives output capture).
"""

import functools
import math
import time

import numpy as np
import pytest

from loopgate import (
    Circular,
    FockSpace,
    PiecewiseConstant,
    PulseSpec,
    TrivialTargetWarning,
    design_circular_pulse,
    entangling_check,
    gate_fidelity,
    gate_matrix,
    ideal_gate,
    nontriviality,
    propagate_displacement,
    rwa_error_scan,
    solve_loop,
    total_phase,
    truncation_scan,
)
from conftest import ACCEPTANCE_RESULTS, random_closed_piecewise

STANDARD = design_circular_pulse(math.pi / 2, g0=0.1)  # g0=0.1, nu=0.2, T=10*pi


def criterion(label, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RESULTS.append((label, "FAIL"))
                raise
            elapsed = time.perf_counter() - start
            if elapsed < budget_seconds:
                verdict = f"PASS ({elapsed:.1f}s / {budget_seconds:.0f}s budget)"
            else:
                verdict = f"FAIL over budget ({elapsed:.1f}s / {budget_seconds:.0f}s)"
            ACCEPTANCE_RESULTS.append((label, verdict))
            assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"
        return wrapper

    return decorate


@criterion("1 phase-relation suite", 10)
def test_c1_phase_relations():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        pulse, n_steps = random_closed_piecewise(rng)
        for branch in ("++", "--"):
            b = total_phase(pulse, branch, n_steps)
            assert abs(b.gamma_total + b.gamma_g) < 1e-8
            assert abs(b.gamma_total - b.gamma_d / 2) < 1e-8
        for branch in ("+-", "-+"):
            b = total_phase(pulse, branch, n_steps)
            assert (b.gamma_g, b.gamma_d, b.gamma_total) == (0.0, 0.0, 0.0)


def circle_family():
    cases = []
    for g0 in (0.05, 0.1, 0.2, 0.4):
        for nu in (0.15, -0.3, 0.6):
            for loops in (1, 3):
                cases.append((g0, nu, loops))
    return cases  # 24 combinations


@criterion("2 circle law", 5)
def test_c2_circle_law():
    cases = circle_family()
    assert len(cases) >= 20
    for g0, nu, loops in cases:
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu), T=loops * 2 * math.pi / abs(nu))
        gamma = total_phase(pulse, "++", 32_768 * loops).gamma_total
        expected = math.copysign(loops * 2 * math.pi * g0**2 / nu**2, nu)
        assert gamma == pytest.approx(expected, rel=1e-6)


@criterion("3 area law", 30)
def test_c3_area_law():
    for g0, nu, loops in circle_family():
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu), T=loops * 2 * math.pi / abs(nu))
        n = 32_768 * loops
        solution = solve_loop(pulse, n)
        gamma = solution.breakdown("++").gamma_total
        area = solution.area("++")
        assert gamma == pytest.approx(2 * area, rel=1e-6)
        mirrored = PulseSpec(g_shape=Circular(g0=g0, nu=-nu), T=pulse.T)
        assert total_phase(mirrored, "++", n).gamma_total == pytest.approx(-gamma, rel=1e-6)


@criterion("4 engine agreement", 30)
def test_c4_engine_agreement():
    space = FockSpace(32)
    report = gate_matrix(STANDARD, space, method="numeric_rwa", dt=STANDARD.T / 4000)
    branch_order = ("++", "+-", "-+", "--")
    for idx, branch in enumerate(branch_order):
        reference = propagate_displacement(STANDARD, branch, 200_000).phase
        numeric = float(np.angle(report.matrix[idx, idx]))
        assert abs(math.remainder(numeric - reference, 2 * math.pi)) < 1e-4
    assert gate_fidelity(report.matrix, ideal_gate(math.pi / 2)) > 0.999


@criterion("5 strong-driving validation", 300)
def test_c5_rwa_validation():
    g0 = 0.1
    r0_values = [10 * g0, 50 * g0, 250 * g0]
    dt = 0.002
    assert dt * max(r0_values) < 0.1  # resolved steps
    report = rwa_error_scan(STANDARD, r0_values, FockSpace(16), dt=dt)
    infidelities = [row.infidelity for row in report.rows]
    assert infidelities[0] > infidelities[1] > infidelities[2]
    assert report.monotone_flag is True
    assert infidelities[-1] < 1e-2


@criterion("6 gate structure", 60)
def test_c6_gate_structure():
    space = FockSpace(32)
    report = gate_matrix(STANDARD, space, method="numeric_rwa", dt=STANDARD.T / 2000)
    off = report.matrix - np.diag(np.diag(report.matrix))
    assert np.abs(off).max() < 1e-8
    assert abs(report.matrix[1, 1] - 1) < 1e-8
    assert abs(report.matrix[2, 2] - 1) < 1e-8
    corner_gap = np.angle(report.matrix[0, 0]) - np.angle(report.matrix[3, 3])
    assert abs(math.remainder(corner_gap, 2 * math.pi)) < 1e-6
    # the nontriviality flag is exactly the gamma mod 2*pi != 0 condition
    assert report.nontrivial is nontriviality(report.extracted_gamma)
    assert report.nontrivial is True
    with pytest.warns(TrivialTargetWarning):
        trivial_pulse = design_circular_pulse(2 * math.pi, g0=0.1)
    trivial_report = gate_matrix(trivial_pulse, space, method="analytic", n_steps=65_536)
    assert trivial_report.nontrivial is False


@criterion("7 designer round-trip", 60)
def test_c7_designer_round_trip():
    rng = np.random.default_rng(11)
    targets = rng.uniform(1e-3, 4 * math.pi - 1e-3, size=50)
    for target in targets:
        pulse = design_circular_pulse(float(target), g0=0.1)
        evaluated = total_phase(pulse, "++", 65_536).gamma_total
        assert abs(evaluated - target) < 1e-6
    with pytest.warns(TrivialTargetWarning):
        design_circular_pulse(2 * math.pi, g0=0.1)


@criterion("8 truncation convergence and entangling power", 120)
def test_c8_truncation_and_entangling():
    report = truncation_scan(STANDARD, [32, 64], dt=STANDARD.T / 2000)
    assert report.rows[-1].infidelity < 1e-8
    assert report.monotone_flag is True

    # gamma = pi/2 entangles; gamma in {0, 2*pi} does not
    space = FockSpace(4)
    zero_gate = gate_matrix(
        PulseSpec(g_shape=PiecewiseConstant(segments=((1.0, 0.0),)), T=1.0),
        space,
        method="analytic",
    )
    assert entangling_check(zero_gate) < 1e-10
    with pytest.warns(TrivialTargetWarning):
        trivial = design_circular_pulse(2 * math.pi, g0=0.1)
    trivial_gate = gate_matrix(trivial, space, method="analytic", n_steps=131_072)
    assert entangling_check(trivial_gate) < 1e-10
    half_pi_gate = gate_matrix(STANDARD, space, method="analytic", n_steps=65_536)
    assert entangling_check(half_pi_gate) > 0.99
