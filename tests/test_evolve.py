import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from loopgate import (
    BRANCHES,
    Circular,
    FockSpace,
    HamiltonianTier,
    NonUnitaryResultError,
    PiecewiseConstant,
    PulseSpec,
    Trajectory,
    alpha_trajectory,
    hamiltonian_rwa,
    propagate_displacement,
    propagate_numeric,
    SimulationGuard,
    gate_matrix,
    sigma_x_basis_change,
    solve_loop,
    vacuum,
)
from loopgate import evolve, gate
from loopgate.evolve import StatePropagation, propagate_states
from loopgate.model import hamiltonian_builder


def circle_phase(g0, nu, loops, lam=2):
    """Closed-form loop phase: loops * 2*pi * lam^2 * g0^2 / (4 nu^2)."""
    return loops * 2 * math.pi * lam**2 * g0**2 / (4 * nu**2)


class TestNumericPropagator:
    def test_zero_drive_identity(self, zero_pulse):
        prop = propagate_numeric(
            HamiltonianTier.RWA_EFFECTIVE, zero_pulse, FockSpace(4), 0.0, zero_pulse.T, 0.1
        )
        assert np.abs(prop.unitary - np.eye(16)).max() < 1e-12

    def test_constant_hamiltonian_matches_direct_exponential(self):
        pulse = PulseSpec(
            g_shape=PiecewiseConstant(segments=((2.0, 0.2 + 0.1j),)), T=2.0, r0=0.0
        )
        space = FockSpace(6)
        prop = propagate_numeric(HamiltonianTier.RWA_EFFECTIVE, pulse, space, 0.0, 2.0, 0.05)
        exact = expm(-2j * hamiltonian_rwa(pulse, 1.0, space))
        assert np.abs(prop.unitary - exact).max() < 1e-10

    def test_result_unitary(self, standard_pulse):
        space = FockSpace(8)
        prop = propagate_numeric(
            HamiltonianTier.ROTATING_FRAME,
            PulseSpec(standard_pulse.g_shape, T=standard_pulse.T, r0=1.0),
            space,
            0.0,
            3.0,
            0.01,
        )
        defect = np.abs(prop.unitary.conj().T @ prop.unitary - np.eye(32)).max()
        assert defect < 1e-10
        assert prop.unitarity_defect == defect
        assert 1 <= prop.max_order < evolve.SERIES_TERMS

    def test_second_order_convergence(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.2, nu=0.7, phase0=0.3), T=4.0, r0=1.0)
        space = FockSpace(6)

        def run(dt):
            return propagate_numeric(
                HamiltonianTier.ROTATING_FRAME, pulse, space, 0.0, 2.0, dt
            ).unitary

        reference = run(0.05 / 8)
        err_coarse = np.abs(run(0.05) - reference).max()
        err_fine = np.abs(run(0.025) - reference).max()
        assert err_coarse / err_fine >= 3.0

    def test_rejects_bad_window(self, standard_pulse):
        with pytest.raises(ValueError):
            propagate_numeric(
                HamiltonianTier.RWA_EFFECTIVE, standard_pulse, FockSpace(4), 2.0, 1.0, 0.1
            )
        with pytest.raises(ValueError, match="dt must be > 0"):
            propagate_numeric(
                HamiltonianTier.RWA_EFFECTIVE, standard_pulse, FockSpace(4), 0.0, 1.0, float("nan")
            )

    def test_states_path_diverging_step_is_caught(self):
        from loopgate import NonUnitaryResultError

        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((3.0, 5.0),)), T=3.0)
        space = FockSpace(8)
        start = np.eye(32, 1, dtype=complex)
        with pytest.raises(NonUnitaryResultError):
            propagate_states(HamiltonianTier.RWA_EFFECTIVE, pulse, space, start, 0.0, 3.0, 3.0)

    def test_states_path_matches_full_unitary(self, standard_pulse):
        space = FockSpace(8)
        dt = standard_pulse.T / 200
        prop = propagate_numeric(
            HamiltonianTier.RWA_EFFECTIVE, standard_pulse, space, 0.0, standard_pulse.T, dt
        )
        columns = np.kron(sigma_x_basis_change(), vacuum(space).reshape(-1, 1))
        final = propagate_states(
            HamiltonianTier.RWA_EFFECTIVE, standard_pulse, space, columns, 0.0, standard_pulse.T, dt
        ).states
        assert np.abs(final - prop.unitary @ columns).max() < 1e-12

    def test_rwa_middle_branches_come_back_unchanged(self, standard_pulse):
        # the branch basis change is exact on these columns, and the +- and -+ rows never move
        space = FockSpace(6)
        columns = np.kron(sigma_x_basis_change(), vacuum(space).reshape(-1, 1))
        result = propagate_states(
            HamiltonianTier.RWA_EFFECTIVE, standard_pulse, space, columns, 0.0, standard_pulse.T, 0.1
        )
        assert np.array_equal(result.states[:, 1:3], columns[:, 1:3])
        assert 1 <= result.max_order < evolve.SERIES_TERMS
        assert 0.0 <= result.norm_drift < 1e-12

    def test_stacked_pulses_match_one_at_a_time(self, standard_pulse):
        space = FockSpace(6)
        pulses = [PulseSpec(standard_pulse.g_shape, T=standard_pulse.T, r0=r0) for r0 in (0.5, 2.0)]
        start = np.eye(24, 3, dtype=complex)
        args = (space, start, 0.0, 5.0, 0.05)
        stacked = propagate_states(HamiltonianTier.ROTATING_FRAME, pulses, *args).states
        assert stacked.shape == (2, 24, 3)
        for pulse, final in zip(pulses, stacked):
            single = propagate_states(HamiltonianTier.ROTATING_FRAME, pulse, *args).states
            assert np.abs(final - single).max() < 1e-14


def eigh_product(tier, pulse, space, dt):
    """Oracle: product of per-step exponentials exp(-i h H(t_mid)) from eigendecompositions."""
    build = hamiltonian_builder(tier, pulse, space)
    n = max(1, math.ceil(pulse.T / dt - 1e-9))
    h = pulse.T / n
    unitary = np.eye(4 * space.dim, dtype=complex)
    for k in range(n):
        w, v = np.linalg.eigh(build((k + 0.5) * h))
        unitary = (v * np.exp(-1j * w * h)) @ v.conj().T @ unitary
    return unitary


TIERS = st.sampled_from([HamiltonianTier.RWA_EFFECTIVE, HamiltonianTier.ROTATING_FRAME])


class TestEngineMatchesEighOracle:
    @settings(max_examples=15, deadline=None)
    @given(
        TIERS,
        st.floats(0.02, 0.4),
        st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.05),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 4.0),
        st.floats(0.5, 4.0),
        st.integers(8, 60),
        st.integers(2, 6),
    )
    def test_circular(self, tier, g0, nu, phase0, r0, T, n_steps, dim):
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=phase0), T=T, r0=r0)
        space = FockSpace(dim)
        prop = propagate_numeric(tier, pulse, space, 0.0, T, T / n_steps)
        assert np.abs(prop.unitary - eigh_product(tier, pulse, space, T / n_steps)).max() < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(
        TIERS,
        st.lists(
            st.tuples(st.floats(0.1, 1.5), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
            min_size=1,
            max_size=4,
        ),
        st.floats(0.0, 4.0),
        st.integers(8, 60),
        st.integers(2, 6),
    )
    def test_piecewise(self, tier, segments, r0, n_steps, dim):
        shape = PiecewiseConstant(segments=tuple((d, complex(re, im)) for d, re, im in segments))
        pulse = PulseSpec(g_shape=shape, T=shape.natural_duration(), r0=r0)
        space = FockSpace(dim)
        prop = propagate_numeric(tier, pulse, space, 0.0, pulse.T, pulse.T / n_steps)
        assert np.abs(prop.unitary - eigh_product(tier, pulse, space, pulse.T / n_steps)).max() < 1e-10


class TestGuards:
    @pytest.mark.filterwarnings("error")
    def test_nan_drive_samples_stop_before_the_first_step(self, standard_pulse, monkeypatch):
        monkeypatch.setattr(Circular, "g", lambda self, t: np.full(np.shape(t), np.nan + 0j))
        with pytest.raises(SimulationGuard, match="double precision"):
            propagate_numeric(HamiltonianTier.ROTATING_FRAME, standard_pulse, FockSpace(4), 0.0, 1.0, 0.1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_drive_is_refused_up_front(self):
        pulse = PulseSpec(g_shape=Circular(g0=1e200, nu=0.2), T=2 * math.pi / 0.2)
        with pytest.raises(SimulationGuard, match="double precision"):
            propagate_numeric(HamiltonianTier.RWA_EFFECTIVE, pulse, FockSpace(4), 0.0, pulse.T, 0.1)

    def test_nan_states_trip_the_norm_drift_guard(self, standard_pulse, monkeypatch):
        def nan_steps(operators, weights, h, blocks):
            return np.full(np.shape(blocks), np.nan + 0j), 1

        monkeypatch.setattr(evolve, "_step_blocks", nan_steps)
        with pytest.raises(NonUnitaryResultError, match="drifted"):
            propagate_states(
                HamiltonianTier.ROTATING_FRAME, standard_pulse, FockSpace(4), np.eye(16, 1), 0.0, 1.0, 0.1
            )

    def test_nan_propagator_trips_the_unitarity_guard(self, standard_pulse, monkeypatch):
        nan_states = StatePropagation(np.full((16, 16), np.nan + 0j), 10, 1, 0.0)
        monkeypatch.setattr(evolve, "propagate_states", lambda *args: nan_states)
        with pytest.raises(NonUnitaryResultError, match="unitarity defect"):
            propagate_numeric(HamiltonianTier.RWA_EFFECTIVE, standard_pulse, FockSpace(4), 0.0, 1.0, 0.1)

    def test_nan_states_trip_the_vacuum_return_guard(self, standard_pulse, monkeypatch):
        nan_states = StatePropagation(np.full((1, 32, 4), np.nan + 0j), 10, 1, 0.0)
        monkeypatch.setattr(gate, "propagate_states", lambda *args: nan_states)
        with pytest.raises(NonUnitaryResultError, match="vacuum"):
            gate_matrix(standard_pulse, FockSpace(8), method="numeric_rwa")


class TestDisplacementEngine:
    def test_lambda_zero_branches_exact(self, standard_pulse):
        for branch in ("+-", "-+"):
            result = propagate_displacement(standard_pulse, branch, 1000)
            assert result.phase == 0.0
            assert result.residual_displacement == 0j

    def test_circle_phase(self, standard_pulse):
        result = propagate_displacement(standard_pulse, "++", 100_000)
        assert result.phase == pytest.approx(circle_phase(0.1, 0.2, 1), abs=1e-6)
        assert result.phase == pytest.approx(math.pi / 2, abs=1e-6)
        assert abs(result.residual_displacement) < 1e-12

    @pytest.mark.parametrize("g0,nu,loops", [(0.05, 0.1, 1), (0.2, 0.5, 2), (0.15, -0.3, 1)])
    def test_circle_phase_family(self, g0, nu, loops):
        pulse = PulseSpec(
            g_shape=Circular(g0=g0, nu=nu), T=loops * 2 * math.pi / abs(nu)
        )
        expected = math.copysign(circle_phase(g0, nu, loops), nu)
        result = propagate_displacement(pulse, "++", 100_000)
        assert result.phase == pytest.approx(expected, rel=1e-6)

    def test_direction_reversal_negates_phase_and_area(self, standard_pulse):
        reversed_pulse = PulseSpec(
            g_shape=Circular(g0=0.1, nu=-0.2, phase0=0.0), T=standard_pulse.T
        )
        forward = propagate_displacement(standard_pulse, "++", 50_000)
        backward = propagate_displacement(reversed_pulse, "++", 50_000)
        assert backward.phase == pytest.approx(-forward.phase, abs=1e-9)
        # cross-check orientation against the signed shoelace area
        area_fwd = solve_loop(standard_pulse, 50_000).area("++")
        area_bwd = solve_loop(reversed_pulse, 50_000).area("++")
        assert forward.phase == pytest.approx(2 * area_fwd, rel=1e-6)
        assert area_bwd == pytest.approx(-area_fwd, rel=1e-9)

    def test_outer_branches_agree(self, standard_pulse):
        plus = propagate_displacement(standard_pulse, "++", 20_000)
        minus = propagate_displacement(standard_pulse, "--", 20_000)
        assert minus.phase == pytest.approx(plus.phase, abs=1e-9)


class TestTrajectory:
    def test_lambda_zero_is_flat(self, standard_pulse):
        traj = alpha_trajectory(standard_pulse, "-+", 101)
        assert np.abs(traj.alphas).max() == 0.0

    def test_circle_against_closed_form(self, standard_pulse):
        # integrating conj(g) for the circular drive: alpha(t) = -(g0/nu)(e^{i nu t} - 1);
        # trapezoid bias is (nu*h)^2/12 relative, so this grid sits below 1e-9
        traj = alpha_trajectory(standard_pulse, "++", 65537)
        expected = -(0.1 / 0.2) * (np.exp(1j * 0.2 * traj.times) - 1.0)
        np.testing.assert_allclose(traj.alphas, expected, atol=1e-8)

    def test_starts_at_zero_and_spans_cycle(self, standard_pulse):
        traj = alpha_trajectory(standard_pulse, "--", 33)
        assert traj.alphas[0] == 0
        assert traj.times[0] == 0.0
        assert traj.times[-1] == standard_pulse.T

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), alphas=np.array([1.0 + 0j, 0.0]), branch="++")
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.5, 1.0]), alphas=np.array([0.0j, 0.0]), branch="++")


class TestLoopClosure:
    def test_closed_circle(self, standard_pulse):
        solution = solve_loop(standard_pulse, 20_000)
        assert solution.closure_residual("++") < 1e-8
        assert solution.closure_residual("--") == solution.closure_residual("++")

    def test_three_quarter_loops(self):
        # |alpha(T)| = (g0/nu)|e^{i 1.5 * 2pi} - 1| = 2 g0/nu
        pulse = PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.5 * 2 * math.pi / 0.2)
        solution = solve_loop(pulse, 20_000, require_closed=False)
        assert solution.closure_residual("++") == pytest.approx(2 * 0.1 / 0.2, rel=1e-6)
        assert solution.closure_residual("-+") == 0.0

    def test_zero_drive(self, zero_pulse):
        solution = solve_loop(zero_pulse, 20_000)
        assert solution.closure_residual("++") == 0.0
        assert solution.closure_residual("+-") == 0.0


class TestEngineAgreement:
    def test_numeric_phase_matches_analytic(self, standard_pulse):
        space = FockSpace(16)
        dt = standard_pulse.T / 800
        prop = propagate_numeric(
            HamiltonianTier.RWA_EFFECTIVE, standard_pulse, space, 0.0, standard_pulse.T, dt
        )
        columns = np.kron(sigma_x_basis_change(), vacuum(space).reshape(-1, 1))
        finals = prop.unitary @ columns
        matrix = columns.conj().T @ finals
        for idx, branch in enumerate(BRANCHES):
            analytic = propagate_displacement(standard_pulse, branch, 200_000)
            entry = matrix[idx, idx]
            assert abs(entry) > 1 - 1e-4
            assert math.remainder(np.angle(entry) - analytic.phase, 2 * math.pi) == pytest.approx(
                0.0, abs=1e-4
            )
            # cavity reduced state returns to vacuum on every branch
            amplitudes = finals[:, idx].reshape(4, space.dim)
            vacuum_population = float(np.sum(np.abs(amplitudes[:, 0]) ** 2))
            assert vacuum_population > 1 - 1e-4

    def test_square_loop_piecewise(self):
        # four equal-duration segments tracing a square in phase space
        segments = ((1.0, 0.2), (1.0, 0.2j), (1.0, -0.2), (1.0, -0.2j))
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=segments), T=4.0)
        space = FockSpace(8)
        columns = np.kron(sigma_x_basis_change(), vacuum(space).reshape(-1, 1))
        finals = propagate_states(
            HamiltonianTier.RWA_EFFECTIVE, pulse, space, columns, 0.0, pulse.T, pulse.T / 4000
        ).states
        matrix = columns.conj().T @ finals
        for idx, branch in enumerate(BRANCHES):
            analytic = propagate_displacement(pulse, branch, 400_000)
            numeric_phase = float(np.angle(matrix[idx, idx]))
            assert abs(math.remainder(numeric_phase - analytic.phase, 2 * math.pi)) < 1e-4
        # nonzero loop phase: the square has side 0.2 in alpha space
        assert abs(propagate_displacement(pulse, "++", 400_000).phase) == pytest.approx(
            2 * 0.2**2, rel=1e-3
        )
