import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopgate import (
    Circular,
    FockSpace,
    InfeasibleConstraintError,
    OpenLoopError,
    PulseSpec,
    Sampled,
    StepTooCoarseError,
    TrivialTargetWarning,
    design_circular_pulse,
    entangling_check,
    gate_fidelity,
    gate_matrix,
    ideal_gate,
    nontriviality,
    solve_loop,
)


def product_state_entropy(matrix):
    """Independent oracle: entropy after applying `matrix` to the uniform product state.

    Builds the 4-amplitude state by hand, traces out the second qubit with
    explicit index sums, and diagonalizes the 2x2 reduced matrix.
    """
    amps = matrix @ (np.array([1, 1, 1, 1], dtype=complex) / 2)
    rho = np.zeros((2, 2), dtype=complex)
    for k in range(2):
        for kp in range(2):
            for l in range(2):
                rho[k, kp] += amps[2 * k + l] * np.conj(amps[2 * kp + l])
    rho /= np.trace(rho).real
    probs = [p for p in np.linalg.eigvalsh(rho) if p > 1e-15]
    return -sum(p * math.log2(p) for p in probs)


class TestNontriviality:
    def test_pi_half(self):
        assert nontriviality(math.pi / 2) is True

    def test_multiples_of_two_pi(self):
        assert nontriviality(4 * math.pi) is False
        assert nontriviality(0.0) is False

    def test_near_miss_within_tolerance(self):
        assert nontriviality(2 * math.pi - 1e-9) is False
        assert nontriviality(2 * math.pi - 1e-3) is True

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-4, 4), st.floats(1e-5, math.pi - 1e-3))
    def test_offset_from_any_multiple_is_nontrivial(self, n, offset):
        assert nontriviality(2 * math.pi * n + offset) is True


class TestGateMatrix:
    def test_zero_drive_identity_gate(self, zero_pulse):
        report = gate_matrix(zero_pulse, FockSpace(4), method="analytic")
        np.testing.assert_allclose(report.matrix, np.eye(4), atol=1e-14)
        assert report.extracted_gamma == 0.0
        assert report.fidelity == pytest.approx(1.0)
        assert report.nontrivial is False

    def test_analytic_pi_half_design(self):
        pulse = design_circular_pulse(math.pi / 2, g0=0.1)
        report = gate_matrix(pulse, FockSpace(4), method="analytic", n_steps=100_000)
        np.testing.assert_allclose(report.matrix, np.diag([1j, 1, 1, 1j]), atol=1e-6)
        assert report.nontrivial is True
        assert report.diagonality_residual == 0.0
        assert report.closure_residual < 1e-8

    def test_numeric_rwa_matches_analytic(self):
        pulse = design_circular_pulse(math.pi / 2, g0=0.1)
        space = FockSpace(32)
        numeric = gate_matrix(pulse, space, method="numeric_rwa", dt=pulse.T / 2000)
        analytic = gate_matrix(pulse, space, method="analytic", n_steps=100_000)
        assert gate_fidelity(numeric.matrix, analytic.matrix) > 0.999
        assert numeric.diagonality_residual < 1e-8
        assert numeric.matrix[1, 1] == 1.0  # gauge pinning is exact
        assert abs(numeric.matrix[2, 2] - 1) < 1e-8
        assert np.angle(numeric.matrix[0, 0]) == pytest.approx(
            np.angle(numeric.matrix[3, 3]), abs=1e-6
        )

    def test_reports_carry_stepper_health(self, standard_pulse):
        analytic = gate_matrix(standard_pulse, FockSpace(8), method="analytic", n_steps=1000)
        assert (analytic.max_order, analytic.unitarity_defect) == (0, 0.0)
        numeric = gate_matrix(standard_pulse, FockSpace(16), method="numeric_rwa", dt=standard_pulse.T / 500)
        assert 1 <= numeric.max_order < 29
        assert 0.0 <= numeric.unitarity_defect < 1e-12
        # the middle branches never move on this tier
        assert numeric.matrix[2, 2] == 1.0

    def test_open_loop_rejected(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.5 * 2 * math.pi / 0.2)
        with pytest.raises(OpenLoopError):
            gate_matrix(pulse, FockSpace(8), method="analytic")

    def test_unknown_method_rejected(self, standard_pulse):
        with pytest.raises(ValueError):
            gate_matrix(standard_pulse, FockSpace(8), method="magic")

    def test_report_matrix_unitary(self):
        pulse = design_circular_pulse(math.pi / 2, g0=0.1)
        report = gate_matrix(pulse, FockSpace(16), method="numeric_rwa", dt=pulse.T / 1000)
        defect = np.abs(report.matrix.conj().T @ report.matrix - np.eye(4)).max()
        assert defect < 1e-6

    def test_undersized_fock_space_is_caught(self):
        # the standard loop reaches |alpha| = 1; four levels cannot hold it
        # and the cavity visibly fails to come back to vacuum
        from loopgate import NonUnitaryResultError

        pulse = design_circular_pulse(math.pi / 2, g0=0.1)
        with pytest.raises(NonUnitaryResultError):
            gate_matrix(pulse, FockSpace(4), method="numeric_rwa", dt=pulse.T / 1000)

    @pytest.mark.parametrize("dt,r0", [(0.01, 10.0), (0.02, 10.0), (None, 100.0)])
    def test_rotating_step_must_resolve_the_fast_oscillation(self, dt, r0):
        # dt * r0 = 0.1, 0.2 and (T/4000) * r0 = 0.157 on a sampled drive, the one drive
        # stepped in time: the rwa scan refuses the same. A circle takes no step to refuse
        chords = Sampled(dt=math.pi / 2, values=(0.1, 0.1j, -0.1, -0.1j, 0.1))
        pulse = PulseSpec(g_shape=chords, T=2 * math.pi, r0=r0)
        with pytest.raises(StepTooCoarseError, match="the 2\\*r0 oscillation would be unresolved"):
            gate_matrix(pulse, FockSpace(4), method="numeric_rotating", dt=dt)
        circle = PulseSpec(g_shape=Circular(g0=0.1, nu=1.0), T=2 * math.pi, r0=r0)
        assert gate_matrix(circle, FockSpace(4), method="numeric_rotating", dt=dt).fidelity > 0.99


class TestDesigner:
    def test_pi_half_fixed_g0(self):
        pulse = design_circular_pulse(math.pi / 2, g0=0.1)
        assert pulse.g_shape.nu == pytest.approx(0.2, rel=1e-12)
        assert pulse.T == pytest.approx(10 * math.pi, rel=1e-12)

    def test_two_loops(self):
        pulse = design_circular_pulse(math.pi, g0=0.1, loops=2)
        assert pulse.g_shape.nu == pytest.approx(0.2, rel=1e-12)
        assert pulse.T == pytest.approx(2 * 2 * math.pi / 0.2, rel=1e-12)

    def test_fixed_duration(self):
        pulse = design_circular_pulse(1.3, T=25.0)
        assert pulse.T == 25.0
        evaluated = solve_loop(pulse, 65_536).breakdown("++").gamma_total
        assert evaluated == pytest.approx(1.3, abs=1e-6)

    def test_round_trip(self):
        for target in (0.3, math.pi / 2, 2.0, 5.5):
            pulse = design_circular_pulse(target, g0=0.17)
            assert solve_loop(pulse, 65_536).breakdown("++").gamma_total == pytest.approx(
                target, abs=1e-6
            )

    def test_trivial_target_warns(self):
        with pytest.warns(TrivialTargetWarning):
            pulse = design_circular_pulse(2 * math.pi, g0=0.1)
        assert nontriviality(2 * math.pi) is False
        # the pulse itself is still valid and reproduces the target
        assert solve_loop(pulse, 65_536).breakdown("++").gamma_total == pytest.approx(
            2 * math.pi, abs=1e-6
        )

    def test_infeasible_targets(self):
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(0.0, g0=0.1)
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(-1.0, g0=0.1)
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(1.0, g0=-0.1)
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(1.0, T=-5.0)
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(1.0)
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(1.0, g0=0.1, T=5.0)
        with pytest.raises(InfeasibleConstraintError):
            design_circular_pulse(1.0, g0=0.1, loops=0)


class TestEntanglingCheck:
    def test_identity_gate_generates_nothing(self, zero_pulse):
        report = gate_matrix(zero_pulse, FockSpace(4), method="analytic")
        assert entangling_check(report) == pytest.approx(0.0, abs=1e-10)

    def test_pi_half_gate_maximally_entangling(self):
        pulse = design_circular_pulse(math.pi / 2, g0=0.1)
        report = gate_matrix(pulse, FockSpace(4), method="analytic", n_steps=100_000)
        oracle = product_state_entropy(np.diag([1j, 1, 1, 1j]))
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert entangling_check(report) == pytest.approx(oracle, abs=1e-6)

    def test_two_pi_gate_is_trivial(self):
        with pytest.warns(TrivialTargetWarning):
            pulse = design_circular_pulse(2 * math.pi, g0=0.1)
        report = gate_matrix(pulse, FockSpace(4), method="analytic", n_steps=200_000)
        assert entangling_check(report) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 2 * math.pi - 0.05))
    def test_matches_oracle_for_any_phase(self, gamma):
        entropy = entangling_check(
            gate_matrix(
                design_circular_pulse(gamma, g0=0.1),
                FockSpace(4),
                method="analytic",
                n_steps=32_768,
            )
        )
        assert entropy == pytest.approx(product_state_entropy(ideal_gate(gamma)), abs=1e-6)
        assert entropy > 0
