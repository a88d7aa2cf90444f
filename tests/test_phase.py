import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from loopgate import (
    Circular,
    OpenLoopError,
    PiecewiseConstant,
    PulseSpec,
    Sampled,
    SimulationGuard,
    alpha_trajectory,
    drive_phase_integral,
    propagate_displacement,
    solve_loop,
    total_phase,
)
from loopgate.model import cumulative_drive_integral
from conftest import random_closed_piecewise


class TestBigG:
    """G(t) = g(t)*conj(I(t)) - conj(g(t))*I(t), through its integral over the cycle."""

    def test_circular_closed_form(self):
        # G(t) = -2i g0^2 (1 - cos(nu t)) / nu for the circular drive, so a
        # cycle of k loops integrates to -2i g0^2 T / nu
        g0, nu = 0.1, 0.2
        for loops in (1, 2):
            T = loops * 2 * math.pi / nu
            pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu), T=T)
            expected = -2j * g0**2 * T / nu
            assert drive_phase_integral(pulse, 200_000 * loops) == pytest.approx(expected, abs=1e-8)

    def test_real_constant_drive_vanishes(self):
        for segments in (((3.0, 0.25),), ((1.0, 0.25), (2.0, -0.125))):
            pulse = PulseSpec(g_shape=PiecewiseConstant(segments=segments), T=3.0)
            assert drive_phase_integral(pulse) == 0j

    def test_purely_imaginary(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=13.0)
        value = drive_phase_integral(pulse, 20000)
        assert abs(value.real) < 1e-10


class TestPhases:
    def test_lambda_zero_branches(self, standard_pulse):
        solution = solve_loop(standard_pulse, 1000)
        for branch in ("+-", "-+"):
            for breakdown in (solution.breakdown(branch), total_phase(standard_pulse, branch, 1000)):
                values = (breakdown.gamma_g, breakdown.gamma_d, breakdown.gamma_total)
                assert values == (0.0, 0.0, 0.0)
                assert all(math.copysign(1.0, v) == 1.0 for v in values)

    def test_circle_geometric(self, standard_pulse):
        assert solve_loop(standard_pulse, 100_000).breakdown("++").gamma_g == pytest.approx(
            -math.pi / 2, abs=1e-6
        )

    def test_circle_dynamical(self, standard_pulse):
        assert solve_loop(standard_pulse, 100_000).breakdown("++").gamma_d == pytest.approx(
            math.pi, abs=1e-6
        )

    def test_outer_branches_equal(self, standard_pulse):
        # -- traces the ++ loop point-reflected, so the loop sum over its own
        # sampled trajectory is the ++ sum bit for bit
        solution = solve_loop(standard_pulse, 50_000)
        plus, minus = solution.breakdown("++"), solution.breakdown("--")
        assert (minus.gamma_g, minus.gamma_d, minus.gamma_total) == (
            plus.gamma_g,
            plus.gamma_d,
            plus.gamma_total,
        )
        alphas = alpha_trajectory(standard_pulse, "--", 50_001).alphas
        assert minus.gamma_g == -float(np.sum((np.conjugate(alphas[:-1]) * alphas[1:]).imag))

    def test_two_loops_double_the_phase(self):
        one = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * math.pi / 0.2)
        two = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * 2 * math.pi / 0.2)
        assert solve_loop(two, 131_072).breakdown("++").gamma_g == pytest.approx(
            2 * solve_loop(one, 65_536).breakdown("++").gamma_g, abs=1e-6
        )

    def test_total_circle_breakdown(self, standard_pulse):
        breakdown = total_phase(standard_pulse, "++", 100_000)
        assert breakdown.gamma_g == pytest.approx(-math.pi / 2, abs=1e-6)
        assert breakdown.gamma_d == pytest.approx(math.pi, abs=1e-6)
        assert breakdown.gamma_total == pytest.approx(math.pi / 2, abs=1e-6)
        assert breakdown.gamma_total == pytest.approx(
            breakdown.gamma_g + breakdown.gamma_d, abs=1e-10
        )

    def test_doubling_g0_quadruples_gamma(self):
        small = PulseSpec(g_shape=Circular(g0=0.05, nu=0.2), T=2 * math.pi / 0.2)
        large = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * math.pi / 0.2)
        ratio = (
            total_phase(large, "++", 65_536).gamma_total
            / total_phase(small, "++", 65_536).gamma_total
        )
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_open_loop_rejected(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.5 * 2 * math.pi / 0.2)
        with pytest.raises(OpenLoopError):
            total_phase(pulse, "++", 10_000)
        breakdown = total_phase(pulse, "++", 10_000, require_closed=False)
        assert math.isfinite(breakdown.gamma_total)

    def test_proportionality_relations_random_closed_pulses(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pulse, n_steps = random_closed_piecewise(rng)
            for branch in ("++", "--"):
                breakdown = total_phase(pulse, branch, n_steps)
                assert abs(breakdown.gamma_total + breakdown.gamma_g) < 1e-8
                assert abs(breakdown.gamma_total - breakdown.gamma_d / 2) < 1e-8

    def test_agrees_with_displacement_engine(self, standard_pulse):
        n = 50_000
        breakdown = total_phase(standard_pulse, "++", n)
        engine = propagate_displacement(standard_pulse, "++", n)
        assert breakdown.gamma_total == pytest.approx(engine.phase, abs=1e-6)

    def test_reality_leakage(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pulse, n_steps = random_closed_piecewise(rng)
            value = drive_phase_integral(pulse, n_steps)
            assert abs(value.real) < 1e-10 * max(1.0, abs(value))


@pytest.mark.parametrize(
    "shape",
    [Circular(g0=0.1, nu=0.2, phase0=0.3), Sampled(dt=0.5, values=(0, 0.1, 0.2j, -0.1 + 0.05j, 0))],
    ids=["circular", "sampled"],
)
def test_drive_phase_integral_is_trapezoid(shape):
    # scipy is the test-only reference for the package's written-out rule
    T = shape.natural_duration() or 2 * math.pi / 0.2
    pulse = PulseSpec(g_shape=shape, T=T)
    grid = np.linspace(0.0, T, 4097)
    run = cumulative_drive_integral(pulse, grid)
    g_vals = np.asarray(pulse.g(grid))
    integrand = g_vals * run.conjugate() - g_vals.conjugate() * run
    assert drive_phase_integral(pulse, 4096) == complex(trapezoid(integrand, grid))


class TestSampledDrive:
    def test_sampled_circle_reproduces_phases(self):
        # sample the circular drive densely enough that linear interpolation
        # error (second order in the sample spacing) stays under the check
        g0, nu = 0.1, 0.2
        T = 2 * math.pi / nu
        n_samp = 8192
        grid = np.linspace(0.0, T, n_samp + 1)
        values = tuple(g0 * np.exp(-1j * nu * grid))
        sampled = PulseSpec(g_shape=Sampled(dt=T / n_samp, values=values), T=T)
        breakdown = total_phase(sampled, "++", 65_536, closure_tol=1e-4)
        assert breakdown.gamma_total == pytest.approx(math.pi / 2, rel=1e-4)
        assert abs(breakdown.gamma_total + breakdown.gamma_g) < 1e-6
        assert abs(breakdown.gamma_total - breakdown.gamma_d / 2) < 1e-6


class TestPiecewiseGate:
    def test_closed_piecewise_pulse_gives_valid_gate(self):
        from loopgate import FockSpace, gate_matrix

        rng = np.random.default_rng(42)
        pulse, n_steps = random_closed_piecewise(rng)
        report = gate_matrix(pulse, FockSpace(4), method="analytic", n_steps=n_steps)
        assert abs(report.matrix[1, 1] - 1) < 1e-12
        assert np.angle(report.matrix[0, 0]) == pytest.approx(
            np.angle(report.matrix[3, 3]), abs=1e-9
        )
        defect = np.abs(report.matrix.conj().T @ report.matrix - np.eye(4)).max()
        assert defect < 1e-12


@st.composite
def closed_drives(draw):
    """A closed circular drive (1-3 loops) or a closed polygon from conftest, with its step count.

    Returns the relative tolerance the relations hold to: the trapezoid bias
    on circles sampled at 16384 steps per loop, roundoff on polygons whose
    corners sit on the grid.
    """
    if draw(st.booleans()):
        g0 = draw(st.floats(0.01, 0.5))
        nu = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((1, -1)))
        loops = draw(st.integers(1, 3))
        shape = Circular(g0=g0, nu=nu, phase0=draw(st.floats(-math.pi, math.pi)))
        return PulseSpec(g_shape=shape, T=loops * 2 * math.pi / abs(nu)), 16_384 * loops, 1e-6
    pulse, n_steps = random_closed_piecewise(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return pulse, n_steps, 1e-8


class TestLoopSolutionRelations:
    @settings(max_examples=40, deadline=None)
    @given(closed_drives())
    def test_closed_loop_relations(self, drive):
        pulse, n_steps, rtol = drive
        solution = solve_loop(pulse, n_steps)
        plus = solution.breakdown("++")
        tol = rtol * max(abs(plus.gamma_total), 1e-3)
        assert plus.gamma_total == pytest.approx(-plus.gamma_g, abs=tol)
        assert plus.gamma_total == pytest.approx(plus.gamma_d / 2, abs=tol)
        assert solution.area("++") == pytest.approx(plus.gamma_total / 2, abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(closed_drives())
    def test_branch_rows(self, drive):
        pulse, n_steps, _ = drive
        solution = solve_loop(pulse, n_steps)

        def row(branch):
            b = solution.breakdown(branch)
            return (b.gamma_g, b.gamma_d, b.gamma_total, solution.closure_residual(branch), solution.area(branch))

        assert row("--") == row("++")
        for branch in ("+-", "-+"):
            assert all(value == 0.0 and math.copysign(1.0, value) == 1.0 for value in row(branch))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "shape,T",
    [
        # |alpha| stays finite but |alpha|^2 overflows
        (Circular(g0=1e200, nu=0.2), 2 * math.pi / 0.2),
        (PiecewiseConstant(segments=((1.0, 1e200), (1.0, 1e200j), (1.0, -1e200), (1.0, -1e200j))), 4.0),
    ],
    ids=["circular", "piecewise"],
)
@pytest.mark.parametrize("require_closed", [True, False])
def test_overflowing_sums_rejected(shape, T, require_closed):
    with pytest.raises(SimulationGuard, match="not finite"):
        solve_loop(PulseSpec(g_shape=shape, T=T), 1000, require_closed=require_closed)


class TestEnclosedArea:
    def test_circle_area(self):
        # alpha(t) = (g0/nu)(1 - e^{i nu t}): a counterclockwise circle of radius g0/nu
        radius = 0.7
        pulse = PulseSpec(g_shape=Circular(g0=0.07, nu=0.1), T=2 * math.pi / 0.1)
        assert solve_loop(pulse, 10_000).area("++") == pytest.approx(math.pi * radius**2, rel=1e-6)

    def test_orientation(self):
        forward = PulseSpec(g_shape=Circular(g0=0.04, nu=0.1), T=2 * math.pi / 0.1)
        backward = PulseSpec(g_shape=Circular(g0=0.04, nu=-0.1), T=forward.T)
        assert solve_loop(backward, 5000).area("++") == pytest.approx(
            -solve_loop(forward, 5000).area("++"), rel=1e-12
        )

    def test_degenerate_point(self, zero_pulse):
        solution = solve_loop(zero_pulse, 99)
        assert [solution.area(branch) for branch in ("++", "+-", "-+", "--")] == [0.0] * 4

    def test_open_trajectory_rejected(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.5 * 2 * math.pi / 0.2)
        solution = solve_loop(pulse, 10_000, require_closed=False)
        for branch in ("++", "--"):
            with pytest.raises(OpenLoopError):
                solution.area(branch)
        assert solution.area("+-") == 0.0
        # the trapezoid sums overflow, so alpha(T) is NaN: never a closed loop
        huge = PulseSpec(g_shape=Circular(g0=1e308, nu=0.2), T=2 * math.pi / 0.2)
        with np.errstate(all="ignore"), pytest.raises(OpenLoopError):
            solve_loop(huge, 1000)

    def test_area_law(self, standard_pulse):
        solution = solve_loop(standard_pulse, 65_536)
        gamma = solution.breakdown("++").gamma_total
        assert gamma == pytest.approx(2 * solution.area("++"), rel=1e-6)
