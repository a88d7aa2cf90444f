import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from loopgate import (
    Circular,
    OpenLoopError,
    PiecewiseConstant,
    PulseSpec,
    Sampled,
    Trajectory,
    alpha_trajectory,
    big_g,
    drive_phase_integral,
    dynamical_phase,
    enclosed_area,
    geometric_phase,
    propagate_displacement,
    total_phase,
)
from loopgate.model import cumulative_drive_integral
from conftest import random_closed_piecewise


class TestBigG:
    def test_zero_at_start(self, standard_pulse):
        assert big_g(standard_pulse, 0.0) == 0j

    def test_circular_closed_form(self, standard_pulse):
        # G(t) = -2i g0^2 (1 - cos(nu t)) / nu for the circular drive
        g0, nu = 0.1, 0.2
        for t in (0.8, 7.3, 22.0, standard_pulse.T):
            expected = -2j * g0**2 * (1 - math.cos(nu * t)) / nu
            assert big_g(standard_pulse, t, n_steps=20000) == pytest.approx(expected, abs=1e-8)

    def test_real_constant_drive_vanishes(self):
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((3.0, 0.25),)), T=3.0)
        for t in (0.0, 1.1, 3.0):
            assert big_g(pulse, t) == 0j

    def test_purely_imaginary(self, standard_pulse):
        value = big_g(standard_pulse, 13.0, n_steps=20000)
        assert abs(value.real) < 1e-10


class TestPhases:
    def test_lambda_zero_branches(self, standard_pulse):
        for branch in ("+-", "-+"):
            assert geometric_phase(standard_pulse, branch, 1000) == 0.0
            assert dynamical_phase(standard_pulse, branch, 1000) == 0.0
            breakdown = total_phase(standard_pulse, branch, 1000)
            assert (breakdown.gamma_g, breakdown.gamma_d, breakdown.gamma_total) == (0.0, 0.0, 0.0)

    def test_circle_geometric(self, standard_pulse):
        assert geometric_phase(standard_pulse, "++", 100_000) == pytest.approx(
            -math.pi / 2, abs=1e-6
        )

    def test_circle_dynamical(self, standard_pulse):
        assert dynamical_phase(standard_pulse, "++", 100_000) == pytest.approx(math.pi, abs=1e-6)

    def test_outer_branches_equal(self, standard_pulse):
        assert dynamical_phase(standard_pulse, "--", 50_000) == pytest.approx(
            dynamical_phase(standard_pulse, "++", 50_000), abs=1e-9
        )
        assert geometric_phase(standard_pulse, "--", 50_000) == pytest.approx(
            geometric_phase(standard_pulse, "++", 50_000), abs=1e-9
        )

    def test_two_loops_double_the_phase(self):
        one = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * math.pi / 0.2)
        two = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=2 * 2 * math.pi / 0.2)
        assert geometric_phase(two, "++", 131_072) == pytest.approx(
            2 * geometric_phase(one, "++", 65_536), abs=1e-6
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


class TestEnclosedArea:
    def test_circle_area(self):
        # circle of radius R through the origin, sampled directly
        radius = 0.7
        theta = np.linspace(0.0, 2 * math.pi, 10_001)
        traj = Trajectory(
            times=theta, alphas=radius * (np.exp(1j * theta) - 1.0), branch="++"
        )
        assert enclosed_area(traj) == pytest.approx(math.pi * radius**2, rel=1e-6)

    def test_orientation(self):
        radius = 0.4
        theta = np.linspace(0.0, 2 * math.pi, 5001)
        forward = Trajectory(times=theta, alphas=radius * (np.exp(1j * theta) - 1), branch="++")
        backward = Trajectory(times=theta, alphas=radius * (np.exp(-1j * theta) - 1), branch="++")
        assert enclosed_area(backward) == pytest.approx(-enclosed_area(forward), rel=1e-12)

    def test_degenerate_point(self, zero_pulse):
        traj = alpha_trajectory(zero_pulse, "++", 100)
        assert enclosed_area(traj) == 0.0

    def test_open_trajectory_rejected(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.5 * 2 * math.pi / 0.2)
        with pytest.raises(OpenLoopError):
            enclosed_area(alpha_trajectory(pulse, "++", 10_001))
        nan_end = Trajectory(times=[0.0, 1.0, 2.0], alphas=[0.0, 0.5j, complex("nan")], branch="++")
        with pytest.raises(OpenLoopError):
            enclosed_area(nan_end)

    def test_area_law(self, standard_pulse):
        traj = alpha_trajectory(standard_pulse, "++", 65_537)
        gamma = total_phase(standard_pulse, "++", 65_536).gamma_total
        assert gamma == pytest.approx(2 * enclosed_area(traj), rel=1e-6)
