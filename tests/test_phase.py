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
    branch_lambda,
    solve_loop,
)
from loopgate.model import cumulative_drive_integral
from loopgate.phase import sample_loop
from conftest import random_closed_piecewise


def drive_integral(pulse, n_steps=100_000):
    return solve_loop(pulse, n_steps, require_closed=False).drive_integral


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
            assert drive_integral(pulse, 200_000 * loops) == pytest.approx(expected, abs=1e-8)

    def test_real_constant_drive_vanishes(self):
        for segments in (((3.0, 0.25),), ((1.0, 0.25), (2.0, -0.125))):
            pulse = PulseSpec(g_shape=PiecewiseConstant(segments=segments), T=3.0)
            assert drive_integral(pulse) == 0j

    def test_purely_imaginary(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=13.0)
        value = drive_integral(pulse, 20000)
        assert abs(value.real) < 1e-10


class TestPhases:
    def test_lambda_zero_branches(self, standard_pulse):
        solution = solve_loop(standard_pulse, 1000)
        for branch in ("+-", "-+"):
            breakdown = solution.breakdown(branch)
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
        grid = np.linspace(0.0, standard_pulse.T, 50_001)
        alphas = -0.5j * branch_lambda("--") * np.conjugate(cumulative_drive_integral(standard_pulse, grid))
        assert minus.gamma_g == -float(np.sum((np.conjugate(alphas[:-1]) * alphas[1:]).imag))

    def test_two_loops_double_the_phase(self):
        one = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * math.pi / 0.2)
        two = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * 2 * math.pi / 0.2)
        assert solve_loop(two, 131_072).breakdown("++").gamma_g == pytest.approx(
            2 * solve_loop(one, 65_536).breakdown("++").gamma_g, abs=1e-6
        )

    def test_total_circle_breakdown(self, standard_pulse):
        breakdown = solve_loop(standard_pulse, 100_000).breakdown("++")
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
            solve_loop(large, 65_536).breakdown("++").gamma_total
            / solve_loop(small, 65_536).breakdown("++").gamma_total
        )
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_open_loop_rejected(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.5 * 2 * math.pi / 0.2)
        with pytest.raises(OpenLoopError):
            solve_loop(pulse, 10_000)
        breakdown = solve_loop(pulse, 10_000, require_closed=False).breakdown("++")
        assert math.isfinite(breakdown.gamma_total)

    def test_proportionality_relations_random_closed_pulses(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pulse, n_steps = random_closed_piecewise(rng)
            solution = solve_loop(pulse, n_steps)
            for branch in ("++", "--"):
                breakdown = solution.breakdown(branch)
                assert abs(breakdown.gamma_total + breakdown.gamma_g) < 1e-8
                assert abs(breakdown.gamma_total - breakdown.gamma_d / 2) < 1e-8

    def test_reality_leakage(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pulse, n_steps = random_closed_piecewise(rng)
            value = drive_integral(pulse, n_steps)
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
    assert drive_integral(pulse, 4096) == complex(trapezoid(integrand, grid))


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
        breakdown = solve_loop(sampled, 65_536).breakdown("++")
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
        assert bits(solution.excursion) == bits(float(np.abs(sample_loop(pulse, n_steps + 1)[3]).max()))

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


def two_pass_reference(pulse, n_steps):
    """Loop sum, G integral, closure residual and ++ area by the two-pass formulas.

    One pass samples the ++ trajectory, a second integrates G, and the area
    adds the shoelace closing term Im(conj(alpha_T) alpha_0).
    """
    grid = np.linspace(0.0, pulse.T, n_steps + 1)
    alphas = -0.5j * 2 * np.conjugate(cumulative_drive_integral(pulse, grid))
    loop_sum = float(np.sum((np.conjugate(alphas[:-1]) * alphas[1:]).imag))
    shape = pulse.g_shape
    if isinstance(shape, PiecewiseConstant):
        durations = np.array([d for d, _ in shape.segments])
        values = np.array([g for _, g in shape.segments])
        prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(values * durations)))[:-1]
        g_vals = values * prefix.conjugate() - values.conjugate() * prefix
        integral = complex(np.sum(g_vals * durations))
    else:
        run = cumulative_drive_integral(pulse, grid)
        g_vals = np.asarray(pulse.g(grid))
        integrand = g_vals * run.conjugate() - g_vals.conjugate() * run
        integral = complex(np.sum(np.diff(grid) * (integrand[1:] + integrand[:-1]) / 2.0))
    residual = float(abs(alphas[-1]))
    closing = float((np.conjugate(alphas[-1]) * alphas[0]).imag)
    return loop_sum, integral, residual, (2 * 2 / 4) * 0.5 * (loop_sum + closing)


def bits(value):
    """The IEEE bytes of a float or complex value: equal bits, equal signs of zero."""
    return np.complex128(value).tobytes() if isinstance(value, complex) else np.float64(value).tobytes()


# components that exercise signed zeros: exact zeros of either sign and both signs of a value
_COMPONENTS = st.sampled_from((0.0, -0.0, 0.25, -0.25, 0.1, -0.3))
_SIGNED = st.builds(complex, _COMPONENTS, _COMPONENTS)


@st.composite
def any_drives(draw):
    """Closed or open circular, sampled and piecewise drives, including zero-area ones, with a step count."""
    kind = draw(st.sampled_from(("circular", "sampled", "piecewise", "closed_piecewise", "line")))
    n_steps = draw(st.integers(1, 600))
    if kind == "circular":
        shape = Circular(
            g0=draw(st.floats(0.01, 0.5)),
            nu=draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((1, -1))),
            phase0=draw(st.sampled_from((0.0, -0.0, math.pi / 2, draw(st.floats(-math.pi, math.pi))))),
        )
        loops = draw(st.sampled_from((1.0, 2.0, 0.5, draw(st.floats(0.1, 3.0)))))
        return PulseSpec(g_shape=shape, T=loops * 2 * math.pi / abs(shape.nu)), n_steps
    if kind == "sampled":
        values = draw(st.lists(st.one_of(_SIGNED, st.complex_numbers(max_magnitude=1.0)), min_size=2, max_size=8))
        shape = Sampled(dt=draw(st.sampled_from((0.5, 0.1, 1.0))), values=tuple(values))
        return PulseSpec(g_shape=shape, T=shape.natural_duration()), n_steps
    if kind == "closed_piecewise":
        return random_closed_piecewise(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    segments = draw(st.lists(st.tuples(st.sampled_from((0.5, 1.0, 0.25)), _SIGNED), min_size=1, max_size=4))
    if kind == "line":
        # each segment retraced backwards: a closed loop of zero area
        segments += [(d, -g) for d, g in reversed(segments)]
    shape = PiecewiseConstant(segments=tuple(segments))
    return PulseSpec(g_shape=shape, T=shape.natural_duration()), n_steps


_ZERO_AREA = [
    PiecewiseConstant(segments=((2.0, 0.0),)),
    PiecewiseConstant(segments=((1.0, 0.25), (1.0, -0.25))),
    PiecewiseConstant(segments=((1.0, -0.25j), (1.0, 0.25j))),
    PiecewiseConstant(segments=((1.0, -0.25), (0.5, 0.5))),
    Sampled(dt=0.5, values=(0.0, 0.2, 0.0, -0.2, 0.0)),
    Sampled(dt=0.5, values=(-0.0, -0.2j, -0.0, 0.2j, -0.0)),
]


class TestOnePassMatchesTwoPasses:
    @settings(max_examples=300, deadline=None)
    @given(any_drives())
    def test_bit_for_bit(self, drive):
        pulse, n_steps = drive
        self.check(pulse, n_steps)

    @pytest.mark.parametrize("shape", _ZERO_AREA)
    def test_zero_area_drives(self, shape):
        self.check(PulseSpec(g_shape=shape, T=shape.natural_duration()), 40)

    @staticmethod
    def check(pulse, n_steps):
        loop_sum, integral, residual, area = two_pass_reference(pulse, n_steps)
        solution = solve_loop(pulse, n_steps, require_closed=False)
        assert bits(solution.loop_sum) == bits(loop_sum)
        assert bits(solution.drive_integral) == bits(integral)
        assert bits(solution.closure_residual("++")) == bits(residual)
        if residual <= solution.closure_tol:
            assert bits(solution.area("++")) == bits(area)
            assert bits(solve_loop(pulse, n_steps).loop_sum) == bits(loop_sum)
        else:
            with pytest.raises(OpenLoopError):
                solution.area("++")


@pytest.mark.parametrize(
    "shape",
    [Circular(g0=0.1, nu=0.2), Sampled(dt=0.5, values=(0.1, 0.1j, -0.1, -0.1j, 0.1))],
    ids=["circular", "sampled"],
)
def test_one_drive_sample_per_solve(monkeypatch, shape):
    # the running integral and the G integrand share one evaluation of g on the grid
    calls = []
    evaluate = type(shape).g

    def counted(self, t):
        calls.append(np.shape(t))
        return evaluate(self, t)

    monkeypatch.setattr(type(shape), "g", counted)
    T = shape.natural_duration() or 2 * math.pi / shape.nu
    solve_loop(PulseSpec(g_shape=shape, T=T), 1000)
    assert calls == [(1001,)]
