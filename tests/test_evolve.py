import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    propagate_numeric,
    Sampled,
    SimulationGuard,
    gate_matrix,
    sigma_x_basis_change,
    solve_loop,
    vacuum,
)
from loopgate import evolve, gate
from loopgate.model import hamiltonian_operators, hamiltonian_weights, triplet_rows
from loopgate.phase import sample_loop
from conftest import hamiltonian, random_closed_piecewise


# the closed piecewise and sampled drives of the README configs
README_PIECEWISE = PiecewiseConstant(segments=((1.0, 0.1 + 0j), (0.5, -0.2 + 0.1j), (1.0, -0.05j)))
README_SAMPLED = Sampled(dt=0.5, values=(0.1 + 0j, 0.1j, -0.1 + 0j, -0.1j, 0.1 + 0j))


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
        exact = expm(-2j * hamiltonian(HamiltonianTier.RWA_EFFECTIVE, pulse, space, 1.0))
        assert np.abs(prop.unitary - exact).max() < 1e-10

    @pytest.mark.parametrize(
        "tier, stepped_rows",
        [
            (HamiltonianTier.ROTATING_FRAME, triplet_rows()),
            (HamiltonianTier.RWA_EFFECTIVE, sigma_x_basis_change()[:, :1]),
        ],
        ids=["rotating", "rwa"],
    )
    def test_result_unitary(self, tier, stepped_rows, standard_pulse):
        space = FockSpace(8)
        prop = propagate_numeric(
            tier,
            PulseSpec(standard_pulse.g_shape, T=standard_pulse.T, r0=1.0),
            space,
            0.0,
            3.0,
            0.01,
        )
        defect = np.abs(prop.unitary.conj().T @ prop.unitary - np.eye(32)).max()
        assert defect < 1e-10
        # every row outside the stepped block (the triplet rows, or the ++ rows on the
        # RWA tier) is exactly the identity, so the reported defect is that block's
        basis = np.kron(stepped_rows, np.eye(space.dim))
        block = basis.conj().T @ prop.unitary @ basis
        block_defect = np.abs(block.conj().T @ block - np.eye(len(block))).max()
        assert prop.unitarity_defect == pytest.approx(block_defect, abs=1e-15)
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

    def test_coarse_steps_are_substepped(self):
        # one step of generator norm bound 79, far past the series' reach, is split
        # into equal substeps and matches the exact exponential of its generator
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((3.0, 5.0),)), T=3.0)
        space = FockSpace(8)
        start = np.eye(32, 1, dtype=complex)
        final = propagate_numeric(HamiltonianTier.RWA_EFFECTIVE, pulse, space, 0.0, 3.0, 3.0).unitary @ start
        exact = expm(-3j * hamiltonian(HamiltonianTier.RWA_EFFECTIVE, pulse, space, 1.5)) @ start
        assert np.abs(final - exact).max() < 1e-12
        # 0.7 times the old up-front limit 29!^(1/29), a generator whose series did not converge
        operators = np.diag([1.0, -1.0]).astype(complex)[None]
        weights = np.full((1, 1), 0.7 * math.factorial(29) ** (1 / 29))
        block, _ = evolve._step_blocks(operators, np.ones(1), weights, 1.0, np.ones((2, 1), dtype=complex))
        exact = expm(-1j * weights[0, 0] * operators[0]) @ np.ones(2)
        assert np.abs(block[:, 0] - exact).max() < 1e-13

    @pytest.mark.parametrize(
        "tier", [HamiltonianTier.RWA_EFFECTIVE, HamiltonianTier.ROTATING_FRAME], ids=lambda tier: tier.value
    )
    def test_states_path_matches_full_unitary(self, tier, standard_pulse):
        # the gate steps the vacuum columns of the moving rows alone, and the propagator
        # their identity: the gate is the propagator's branch-vacuum block, gauged
        method = "numeric_rwa" if tier is HamiltonianTier.RWA_EFFECTIVE else "numeric_rotating"
        space = FockSpace(8)
        columns = np.kron(sigma_x_basis_change(), vacuum(space).reshape(-1, 1))
        for shape in (Circular(g0=0.1, nu=0.2, phase0=0.3), README_PIECEWISE, README_SAMPLED):
            pulse = PulseSpec(shape, T=shape.natural_duration() or standard_pulse.T, r0=20.0)
            report = gate_matrix(pulse, space, method=method, dt=0.002)
            prop = propagate_numeric(tier, pulse, space, 0.0, pulse.T, 0.002)
            block = columns.conj().T @ prop.unitary @ columns
            assert np.abs(report.matrix - block / block[1, 1]).max() < 1e-12

    @pytest.mark.parametrize("tier", list(HamiltonianTier), ids=lambda tier: tier.value)
    def test_qubit_factors_are_not_rebuilt_per_call(self, tier, standard_pulse, monkeypatch):
        # a tier's qubit factors, their basis changes and their 2-norms are built once, on
        # first use, and the gate reads its matrix off the stepped columns without a kron
        space = FockSpace(6)
        pulse = PulseSpec(standard_pulse.g_shape, T=standard_pulse.T, r0=1.0)
        method = {HamiltonianTier.RWA_EFFECTIVE: "numeric_rwa", HamiltonianTier.ROTATING_FRAME: "numeric_rotating"}
        propagate_numeric(tier, pulse, space, 0.0, pulse.T, pulse.T / 50)

        def refuse(*args, **kwargs):
            raise AssertionError("a qubit factor was rebuilt")

        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        propagate_numeric(tier, pulse, space, 0.0, pulse.T, pulse.T / 50)
        if tier in method:
            gate_matrix(pulse, space, method=method[tier], dt=pulse.T / 400)

    def test_rwa_middle_branches_come_back_unchanged(self, standard_pulse):
        # the +- and -+ rows never move, and the -- vacuum entry is the ++ one, since the
        # vacuum has even parity: those entries are exact, not merely close
        report = gate_matrix(standard_pulse, FockSpace(6), method="numeric_rwa", dt=0.1)
        matrix = report.matrix
        assert matrix[1, 1] == matrix[2, 2] == 1.0
        assert np.array_equal(matrix - np.diag(np.diag(matrix)), np.zeros((4, 4)))
        assert matrix[3, 3] == matrix[0, 0]
        assert 1 <= report.max_order < evolve.SERIES_TERMS
        assert 0.0 <= report.norm_drift < 1e-12

    def test_gate_steps_only_the_vacuum_columns(self, standard_pulse, monkeypatch):
        # one dim x 1 column on the RWA tier, three 3 dim x 3 triplet columns on the rotating tier
        shapes = []
        step_blocks = evolve._step_blocks

        def spy(operators, norms, weights, h, block, *args):
            shapes.append(np.shape(block))
            return step_blocks(operators, norms, weights, h, block, *args)

        monkeypatch.setattr(evolve, "_step_blocks", spy)
        pulse = PulseSpec(standard_pulse.g_shape, T=standard_pulse.T, r0=20.0)
        gate_matrix(pulse, FockSpace(8), method="numeric_rwa", dt=0.004)
        gate_matrix(pulse, FockSpace(8), method="numeric_rotating", dt=0.004)
        assert shapes == [(8, 1), (24, 3)]


class TestStepMatrixRuns:
    """A run of L equal steps against L explicit products of its step matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5000),
        st.integers(2, 6),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_run_equals_its_step_products(self, length, m, width, spin, seed):
        rng = np.random.default_rng(seed)
        # two Hermitian operators of 2-norm 1 and weights of modulus <= 1: no substeps
        raw = random_columns(rng, m, 2 * m).reshape(m, 2, m).transpose(1, 0, 2)
        operators = raw + raw.conj().transpose(0, 2, 1)
        operators /= np.linalg.norm(operators, ord=2, axis=(1, 2))[:, None, None]
        weights = rng.uniform(-0.7, 0.7, size=(1, 2)) + 0j
        h = rng.uniform(0.1, 1.0)
        frame = rng.uniform(-3.0, 3.0, size=m) if spin else None
        # squaring's roundoff grows as L eps times the block's norm, so the columns have norm 1
        block = random_columns(rng, m, width)
        block /= np.linalg.norm(block, axis=0)
        final, _ = evolve._step_blocks(operators, np.ones(2), weights, h, block, frame, [length])
        # the engine's step matrix: its series on the identity, then exp(-i h D)
        matrix = np.eye(m, dtype=complex)
        evolve._series(np.tensordot(-1j * h * weights[0], operators, 1), matrix, 1e-32 / m)
        if spin:
            matrix *= np.exp(-1j * h * frame)[:, None]
        expected = block.astype(complex)
        for _ in range(length):
            expected = matrix @ expected
        if spin:
            expected *= np.exp(1j * (length * h) * frame)[:, None]
        assert np.abs(final - expected).max() < 1e-12

    @pytest.mark.parametrize("length", [1, 2, 5, 8, 13, 16])
    def test_narrow_block_takes_every_step_product(self, length):
        # L N <= 2 m throughout: squaring the 16 x 16 matrix would cost more than it saves
        rng = np.random.default_rng(length)
        matrix, _ = np.linalg.qr(random_columns(rng, 16, 16))
        block = random_columns(rng, 16, 2)
        expected = block.copy()
        for _ in range(length):
            expected = matrix @ expected
        assert np.array_equal(evolve._apply_power(matrix, block, length), expected)

    def test_circular_run_builds_no_per_step_arrays(self):
        # one weight row serves all 200 000 steps: the stepper needs kilobytes, where
        # per-step weights, coefficients and run masks took tens of MB
        pulse = PulseSpec(g_shape=Circular(g0=0.2, nu=1.0), T=2 * math.pi, r0=20.0)
        args = (HamiltonianTier.ROTATING_FRAME, pulse, FockSpace(4), 0.0, pulse.T)
        propagate_numeric(*args, pulse.T / 100)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            propagate_numeric(*args, pulse.T / 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def eigh_product(tier, pulse, space, dt):
    """Oracle: product of per-step exponentials exp(-i h H(t_mid)) from eigendecompositions."""
    n = max(1, math.ceil(pulse.T / dt - 1e-9))
    h = pulse.T / n
    unitary = np.eye(4 * space.dim, dtype=complex)
    for k in range(n):
        w, v = np.linalg.eigh(hamiltonian(tier, pulse, space, (k + 0.5) * h))
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


ALL_TIERS = st.sampled_from(
    [HamiltonianTier.ROTATING_FRAME, HamiltonianTier.FULL_EFFECTIVE, HamiltonianTier.RWA_EFFECTIVE]
)


def dense_states(tier, pulse, space, states, t1, dt):
    """Reference: every bare-basis row stepped through the dense (4 dim)^2 table."""
    n = max(1, math.ceil(t1 / dt - 1e-9))
    h = t1 / n
    weights = hamiltonian_weights(tier, pulse, (np.arange(n) + 0.5) * h)
    final, _ = evolve._step_blocks(*hamiltonian_operators(tier, space), weights, h, states)
    return final


def random_columns(rng, rows, count):
    return rng.normal(size=(rows, count)) + 1j * rng.normal(size=(rows, count))


class TestExchangeSymmetry:
    """Only the moving rows are stepped, against the dense (4 dim)^2 table.

    The rotating and full tiers step the triplet rows, and the singlet never
    moves; the RWA tier steps the ++ rows, and places the -- rows as their parity mirror.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        ALL_TIERS,
        st.floats(0.02, 0.4),
        st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.05),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 4.0),
        st.integers(4, 40),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
    )
    # the --hypothesis-seed 23 draw: full-tier steps of norm bound 3.5, past one series' reach
    @example(tier=HamiltonianTier.FULL_EFFECTIVE, g0=0.25, nu=1.0, phase0=0.0, r0=3.0, n_steps=4, dim=3, seed=0)
    def test_circular_matches_dense_stepping(self, tier, g0, nu, phase0, r0, n_steps, dim, seed):
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=phase0), T=2.0, r0=r0)
        space = FockSpace(dim)
        columns = random_columns(np.random.default_rng(seed), 4 * dim, 3)
        final = propagate_numeric(tier, pulse, space, 0.0, 2.0, 2.0 / n_steps).unitary @ columns
        assert np.abs(final - dense_states(tier, pulse, space, columns, 2.0, 2.0 / n_steps)).max() < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(
        ALL_TIERS,
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 4.0),
        st.integers(2, 6),
    )
    def test_piecewise_matches_dense_stepping(self, tier, seed, r0, dim):
        rng = np.random.default_rng(seed)
        pulse, _ = random_closed_piecewise(rng)
        pulse = PulseSpec(pulse.g_shape, T=pulse.T, r0=r0)
        space = FockSpace(dim)
        columns = random_columns(rng, 4 * dim, 2)
        # one step per segment quantum keeps every corner on the grid
        final = propagate_numeric(tier, pulse, space, 0.0, pulse.T, 0.05).unitary @ columns
        assert np.abs(final - dense_states(tier, pulse, space, columns, pulse.T, 0.05)).max() < 1e-12


class TestFrameChange:
    @settings(max_examples=3, deadline=None)
    @given(
        st.floats(0.05, 0.3),
        st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 0.1),
        st.floats(0.0, 2 * math.pi),
        st.floats(1.0, 3.0),
        st.floats(0.3, 1.2),
    )
    def test_full_tier_is_the_rotating_tier_in_the_lab_frame(self, g0, nu, phase0, r0, r0_t):
        # U_rot(t) = exp(i r0 S_x t) U_full(t) with S_x = sigma1_x + sigma2_x, which is
        # diag(2, 0, 0, -2) in the branch basis; the midpoint product reaches it at second order
        t = r0_t / r0
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=phase0), T=t, r0=r0)
        space = FockSpace(5)
        columns = random_columns(np.random.default_rng(3), 4 * space.dim, 4)
        b = sigma_x_basis_change()

        def frame(sign):
            phases = np.exp(sign * 1j * r0 * t * np.array([2, 0, 0, -2]))
            return np.kron(b @ np.diag(phases) @ b, np.eye(space.dim))

        def misses(n_steps):
            full, rot = (
                propagate_numeric(tier, pulse, space, 0.0, t, t / n_steps).unitary @ columns
                for tier in (HamiltonianTier.FULL_EFFECTIVE, HamiltonianTier.ROTATING_FRAME)
            )
            return np.abs(frame(1) @ full - rot).max(), np.abs(frame(-1) @ full - rot).max()

        coarse, _ = misses(150)
        fine, wrong_sign = misses(300)
        assert fine < 1e-4
        assert coarse / fine > 3.0
        assert wrong_sign > 0.1


def nan_step_blocks(operators, norms, weights, h, block, frame=None, repeats=None):
    """A stand-in for ``_step_blocks`` whose every stepped entry is nan."""
    return np.full(np.shape(block), np.nan + 0j), 1


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

    @pytest.mark.filterwarnings("error")
    def test_rest_frame_past_double_precision_is_refused_up_front(self):
        # the first midpoint's fast phase is finite, but the frame rate 4 r0 overflows
        pulse = PulseSpec(g_shape=Circular(g0=0.2, nu=1.0), T=2 * math.pi, r0=5e307)
        with pytest.raises(SimulationGuard, match="rest frame turns by inf"):
            propagate_numeric(HamiltonianTier.ROTATING_FRAME, pulse, FockSpace(4), 0.0, pulse.T, pulse.T / 100)

    def test_substeps_share_the_step_budget(self, monkeypatch):
        # one step of generator norm bound 3 * 2 * 5 * sqrt(7) = 79.4 takes 32 substeps
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((3.0, 5.0),)), T=3.0)
        args = (HamiltonianTier.RWA_EFFECTIVE, pulse, FockSpace(8), 0.0, 3.0, 3.0)
        monkeypatch.setattr(evolve, "MAX_SAMPLES", 32)
        propagate_numeric(*args)
        monkeypatch.setattr(evolve, "MAX_SAMPLES", 31)
        with pytest.raises(SimulationGuard, match="32 substeps needed .* above the limit of 31"):
            propagate_numeric(*args)

    def test_nan_states_trip_the_norm_drift_guard(self, standard_pulse, monkeypatch):
        monkeypatch.setattr(evolve, "_step_blocks", nan_step_blocks)
        with pytest.raises(NonUnitaryResultError, match="drifted"):
            gate_matrix(standard_pulse, FockSpace(4), method="numeric_rwa", dt=0.1)

    def test_nan_propagator_trips_the_unitarity_guard(self, standard_pulse, monkeypatch):
        monkeypatch.setattr(evolve, "_step_blocks", nan_step_blocks)
        with pytest.raises(NonUnitaryResultError, match="unitarity defect"):
            propagate_numeric(HamiltonianTier.RWA_EFFECTIVE, standard_pulse, FockSpace(4), 0.0, 1.0, 0.1)

    def test_nan_states_trip_the_vacuum_return_guard(self, standard_pulse, monkeypatch):
        # the stepped columns keep their norms, but the gate read off their vacuum rows is nan
        monkeypatch.setattr(gate, "_embed_moving_rows", lambda *args: np.full((4, 4), np.nan + 0j))
        with pytest.raises(NonUnitaryResultError, match="vacuum"):
            gate_matrix(standard_pulse, FockSpace(8), method="numeric_rwa")


def displacement_product(pulse, n_steps):
    """The ++ vacuum return of the RWA midpoint product, in closed form and with no Fock space.

    Step k is the displacement D(beta_k), beta_k = -i h conj(g(t_k)), and
    D(b2) D(b1) = D(b1 + b2) e^{i Im(b2 conj(b1))}, so the product sends vacuum to
    e^{i phi} |B_n>, with partial sums B_k and phi = sum_k Im(beta_k conj(B_{k-1})).
    """
    h = pulse.T / n_steps
    beta = -1j * h * np.conj(pulse.g((np.arange(n_steps) + 0.5) * h))
    partial = np.cumsum(beta)
    phi = np.sum((beta[1:] * np.conj(partial[:-1])).imag)
    return np.exp(-abs(partial[-1]) ** 2 / 2 + 1j * phi)


class TestDisplacementOracle:
    """The numeric RWA gate against the exact displacement product of its own steps."""

    @pytest.mark.parametrize(
        "shape",
        [
            Circular(g0=0.1, nu=0.2, phase0=0.3),  # one run in its rest frame
            # a closed polygon of |alpha| up to 0.8, every corner on the grid: one run per segment
            PiecewiseConstant(segments=((2.0, 0.28), (1.0, 0.56j), (2.0, -0.28 - 0.14j), (1.0, -0.28j))),
            # chords of the circle: a new generator at every step
            Sampled(dt=math.pi / 4.8, values=tuple(0.1 * np.exp(-0.2j * np.linspace(0.0, math.pi / 0.1, 49)))),
        ],
        ids=["circle", "polygon", "sampled"],
    )
    def test_numeric_rwa_gate_is_the_displacement_product(self, shape):
        pulse = PulseSpec(g_shape=shape, T=shape.natural_duration() or 2 * math.pi / 0.2)
        report = gate_matrix(pulse, FockSpace(16), method="numeric_rwa", dt=pulse.T / 4000)
        assert abs(report.matrix[0, 0] - displacement_product(pulse, 4000)) < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(["circle", "polygon", "sampled"]),
        st.floats(0.1, 0.6),
        st.integers(0, 2**32 - 1),
        st.integers(50, 400),
        st.integers(12, 16),
    )
    def test_any_dt(self, kind, excursion, seed, n_steps, dim):
        # loops of max|alpha| <= 0.6 at dim >= 12 leave a truncation error far below 1e-12.
        # A circle is one run through a step matrix; a polygon off the grid mixes
        # segment runs with one-step runs through the series; a sampled drive takes the
        # series at every step
        rng = np.random.default_rng(seed)
        if kind == "circle":
            nu = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            shape = Circular(g0=excursion * abs(nu) / 2, nu=nu, phase0=rng.uniform(0.0, 2 * math.pi))
            T = int(rng.integers(1, 3)) * 2 * math.pi / abs(nu)
        elif kind == "polygon":
            polygon, _ = random_closed_piecewise(rng)
            durations, values = np.array(polygon.g_shape.segments, dtype=complex).T
            scale = excursion / np.max(np.abs(np.cumsum(durations * values)))
            shape = PiecewiseConstant(segments=tuple((d.real, complex(g * scale)) for d, g in zip(durations, values)))
            T = shape.natural_duration()
        else:
            # K chords of a circle close the loop: the samples of one turn sum to 0
            K, sample_dt = int(rng.integers(3, 49)), rng.uniform(0.05, 0.5)
            turn = rng.choice([-1.0, 1.0]) * 2 * math.pi * np.arange(K + 1) / K
            g0 = excursion * math.pi / (K * sample_dt)
            shape = Sampled(dt=sample_dt, values=tuple(g0 * np.exp(1j * (turn + rng.uniform(0.0, 2 * math.pi)))))
            T = shape.natural_duration()
        pulse = PulseSpec(g_shape=shape, T=T)
        report = gate_matrix(pulse, FockSpace(dim), method="numeric_rwa", dt=T / n_steps)
        assert abs(report.matrix[0, 0] - displacement_product(pulse, n_steps)) < 1e-12


class TestDisplacementEngine:
    """solve_loop as the scalar engine: each branch is a cavity displacement along its loop."""

    def test_lambda_zero_branches_exact(self, standard_pulse):
        solution = solve_loop(standard_pulse, 1000)
        for branch in ("+-", "-+"):
            assert solution.breakdown(branch).gamma_total == 0.0
            assert solution.closure_residual(branch) == 0.0

    def test_circle_phase(self, standard_pulse):
        solution = solve_loop(standard_pulse, 100_000)
        gamma = solution.breakdown("++").gamma_total
        assert gamma == pytest.approx(circle_phase(0.1, 0.2, 1), abs=1e-6)
        assert gamma == pytest.approx(math.pi / 2, abs=1e-6)
        assert solution.closure_residual("++") < 1e-12

    @pytest.mark.parametrize("g0,nu,loops", [(0.05, 0.1, 1), (0.2, 0.5, 2), (0.15, -0.3, 1)])
    def test_circle_phase_family(self, g0, nu, loops):
        pulse = PulseSpec(
            g_shape=Circular(g0=g0, nu=nu), T=loops * 2 * math.pi / abs(nu)
        )
        expected = math.copysign(circle_phase(g0, nu, loops), nu)
        gamma = solve_loop(pulse, 100_000).breakdown("++").gamma_total
        assert gamma == pytest.approx(expected, rel=1e-6)

    def test_direction_reversal_negates_phase_and_area(self, standard_pulse):
        reversed_pulse = PulseSpec(
            g_shape=Circular(g0=0.1, nu=-0.2, phase0=0.0), T=standard_pulse.T
        )
        forward = solve_loop(standard_pulse, 50_000)
        backward = solve_loop(reversed_pulse, 50_000)
        gamma_fwd = forward.breakdown("++").gamma_total
        assert backward.breakdown("++").gamma_total == pytest.approx(-gamma_fwd, abs=1e-9)
        # cross-check orientation against the signed shoelace area
        assert gamma_fwd == pytest.approx(2 * forward.area("++"), rel=1e-6)
        assert backward.area("++") == pytest.approx(-forward.area("++"), rel=1e-9)

    def test_outer_branches_agree(self, standard_pulse):
        solution = solve_loop(standard_pulse, 20_000)
        plus, minus = solution.breakdown("++"), solution.breakdown("--")
        assert minus.gamma_total == pytest.approx(plus.gamma_total, abs=1e-9)


class TestTrajectory:
    def test_circle_against_closed_form(self, standard_pulse):
        # integrating conj(g) for the circular drive: alpha(t) = -(g0/nu)(e^{i nu t} - 1);
        # trapezoid bias is (nu*h)^2/12 relative, so this grid sits below 1e-9
        times, _, _, alphas = sample_loop(standard_pulse, 65537)
        expected = -(0.1 / 0.2) * (np.exp(1j * 0.2 * times) - 1.0)
        np.testing.assert_allclose(alphas, expected, atol=1e-8)

    def test_starts_at_zero_and_spans_cycle(self, standard_pulse):
        times, _, run, alphas = sample_loop(standard_pulse, 33)
        assert run[0] == 0 and alphas[0] == 0
        assert times[0] == 0.0
        assert times[-1] == standard_pulse.T
        with pytest.raises(ValueError, match="n_samples must be >= 2, got 1"):
            sample_loop(standard_pulse, 1)


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
        # exact circle law: pi/2 on the outer branches, nothing on the middle ones
        for idx, exact in enumerate((math.pi / 2, 0.0, 0.0, math.pi / 2)):
            entry = matrix[idx, idx]
            assert abs(entry) > 1 - 1e-4
            assert math.remainder(np.angle(entry) - exact, 2 * math.pi) == pytest.approx(0.0, abs=1e-4)
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
        finals = propagate_numeric(
            HamiltonianTier.RWA_EFFECTIVE, pulse, space, 0.0, pulse.T, pulse.T / 4000
        ).unitary @ columns
        matrix = columns.conj().T @ finals
        # every corner sits on the grid, so the loop sum is the exact shoelace
        solution = solve_loop(pulse, 4000)
        for idx, branch in enumerate(BRANCHES):
            numeric_phase = float(np.angle(matrix[idx, idx]))
            exact = solution.breakdown(branch).gamma_total
            assert abs(math.remainder(numeric_phase - exact, 2 * math.pi)) < 1e-4
        # nonzero loop phase: the square has side 0.2 in alpha space
        assert abs(solution.breakdown("++").gamma_total) == pytest.approx(2 * 0.2**2, rel=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(
        st.floats(0.05, 0.6),
        st.floats(0.05, 1.0),
        st.sampled_from((1, -1)),
        st.integers(1, 3),
        st.floats(-math.pi, math.pi),
    )
    def test_numeric_gate_matches_the_circle_law(self, radius, speed, sense, loops, phase0):
        # g0 = radius * |nu| keeps max|alpha|^2 = 4 radius^2 well inside dim 12; the
        # loop's rotation phase0 must not move gamma
        nu = sense * speed
        T = loops * 2 * math.pi / speed
        pulse = PulseSpec(g_shape=Circular(g0=radius * speed, nu=nu, phase0=phase0), T=T)
        report = gate_matrix(pulse, FockSpace(12), method="numeric_rwa", dt=T / (1000 * loops))
        exact = sense * circle_phase(radius * speed, speed, loops)
        # midpoint steps of nu*dt = 2*pi/1000 leave a relative error of 3.3e-6
        assert abs(math.remainder(report.extracted_gamma - exact, 2 * math.pi)) < 1e-5 * abs(exact)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_numeric_gate_matches_the_polygon_loop(self, seed):
        # each step lies inside one constant segment, so both engines are exact to roundoff
        pulse, n_steps = random_closed_piecewise(np.random.default_rng(seed))
        report = gate_matrix(pulse, FockSpace(32), method="numeric_rwa", dt=0.05)
        exact = solve_loop(pulse, n_steps).breakdown("++").gamma_total
        assert abs(math.remainder(report.extracted_gamma - exact, 2 * math.pi)) < 1e-12
