import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from loopgate import (
    BRANCHES,
    Circular,
    FockSpace,
    HamiltonianTier,
    PiecewiseConstant,
    PulseSpec,
    RamanParams,
    Sampled,
    effective_couplings,
    sigma_x_basis_change,
)
from loopgate.errors import InvalidFields
from loopgate.model import (
    branch_lambda,
    cumulative_drive_integral,
    hamiltonian_operators,
    hamiltonian_weights,
    rest_frame,
)
from conftest import bare_operators, hamiltonian, triplet_rows


def make_raman(**overrides):
    params = dict(
        rabi_p=1.0,
        rabi_s=1.0,
        rabi_g=0.2,
        kappa_e=0.1,
        delta_1=10.0,
        delta_2=5.0,
    )
    params.update(overrides)
    return RamanParams(**params)


class TestEffectiveCouplings:
    def test_unit_amplitudes(self):
        r, _ = effective_couplings(make_raman(rabi_p=1.0, rabi_s=1.0, delta_1=2.0))
        assert r == pytest.approx(-0.5)

    def test_zero_quantum_channel(self):
        _, g = effective_couplings(make_raman(rabi_g=0.0))
        assert g == 0.0

    def test_complex_conjugation(self):
        # hand evaluation: -(2 * conj(i)) / 4 = -(2 * (-i)) / 4 = 0.5i
        r, _ = effective_couplings(make_raman(rabi_p=2.0, rabi_s=1j, delta_1=4.0))
        assert r == pytest.approx(0.5j)

    def test_detunings_nonzero(self):
        with pytest.raises(ValueError):
            make_raman(delta_1=0.0)
        with pytest.raises(ValueError):
            make_raman(delta_2=0.0)


class TestPulseSpec:
    def test_piecewise_duration_must_match(self):
        shape = PiecewiseConstant(segments=((1.0, 0.1), (0.5, 0.2j)))
        PulseSpec(g_shape=shape, T=1.5)
        with pytest.raises(ValueError):
            PulseSpec(g_shape=shape, T=1.6)
        with pytest.raises(ValueError, match="PiecewiseConstant.segments must hold at least one segment"):
            PiecewiseConstant(segments=())

    def test_sampled_duration(self):
        shape = Sampled(dt=0.5, values=(0.0, 0.1, 0.2))
        assert PulseSpec(g_shape=shape, T=1.0).T == 1.0
        with pytest.raises(ValueError):
            PulseSpec(g_shape=shape, T=1.5)
        with pytest.raises(ValueError, match="Sampled.values must hold at least two samples"):
            Sampled(dt=0.5, values=(0.1,))

    def test_every_refused_field_is_named(self):
        with pytest.raises(InvalidFields) as info:
            Circular(g0=-1.0, nu=0.0)
        assert info.value.failures == [
            ("g0", "must be finite and > 0, got -1.0"),
            ("nu", "must be finite and nonzero, got 0.0"),
        ]
        assert str(info.value) == (
            "Circular.g0 must be finite and > 0, got -1.0; Circular.nu must be finite and nonzero, got 0.0"
        )

    def test_failures_judges_the_given_fields(self):
        shape = PiecewiseConstant(segments=((1.0, 0.1), (0.5, 0.2j)))
        # the duration match reads g_shape and T, so it runs once both are given and T has passed
        assert PulseSpec.failures(T=1.6, r0=-1.0) == [("r0", "must be finite and >= 0, got -1.0")]
        mismatch = ("T", "must equal the duration 1.5 its shape covers, got 1.6")
        assert PulseSpec.failures(g_shape=shape, T=1.6) == [mismatch]
        assert PulseSpec.failures(g_shape=shape, T=-1.0) == [("T", "must be finite and > 0, got -1.0")]
        assert Sampled.failures(values=(0.1,)) == [("values", "must hold at least two samples")]

    def test_negative_r0_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.0, r0=-0.5)

    def test_circular_formula(self):
        pulse = PulseSpec(g_shape=Circular(g0=0.3, nu=0.4, phase0=0.9), T=5.0)
        t = 1.234
        assert pulse.g(t) == pytest.approx(0.3 * np.exp(1j * (0.9 - 0.4 * t)))

    def test_piecewise_right_continuous_at_boundaries(self):
        shape = PiecewiseConstant(segments=((1.0, 0.1), (1.0, 0.7j)))
        pulse = PulseSpec(g_shape=shape, T=2.0)
        assert pulse.g(0.0) == 0.1
        assert pulse.g(1.0) == 0.7j  # value of the segment that starts here
        assert pulse.g(2.0) == 0.7j

    def test_sampled_linear_interpolation(self):
        pulse = PulseSpec(g_shape=Sampled(dt=1.0, values=(0.0, 1.0 + 1.0j)), T=1.0)
        assert pulse.g(0.5) == pytest.approx(0.5 + 0.5j)

    def test_evaluation_is_pure(self, standard_pulse):
        t = 0.7321
        assert standard_pulse.g(t) == standard_pulse.g(t)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.0, r0=math.nan),
            lambda: PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=1.0, r0=math.inf),
            lambda: PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=math.inf),
            lambda: PulseSpec(g_shape=Circular(g0=0.1, nu=0.2), T=math.nan),
            lambda: Circular(g0=math.nan, nu=0.2),
            lambda: Circular(g0=math.inf, nu=0.2),
            lambda: Circular(g0=0.1, nu=math.nan),
            lambda: Circular(g0=0.1, nu=-math.inf),
            lambda: Circular(g0=0.1, nu=0.2, phase0=math.inf),
            lambda: Circular(g0=0.1, nu=0.2, phase0=math.nan),
            lambda: PiecewiseConstant(segments=((math.nan, 0.1),)),
            lambda: PiecewiseConstant(segments=((math.inf, 0.1),)),
            lambda: PiecewiseConstant(segments=((1.0, 0.1), (1.0, complex(0.0, math.nan)))),
            lambda: PiecewiseConstant(segments=((1.0, math.inf),)),
            lambda: Sampled(dt=math.nan, values=(0.0, 0.1)),
            lambda: Sampled(dt=math.inf, values=(0.0, 0.1)),
            lambda: Sampled(dt=0.5, values=(0.0, complex(math.inf, 0.0))),
            lambda: Sampled(dt=0.5, values=(math.nan, 0.1)),
            lambda: make_raman(delta_1=math.nan),
            lambda: make_raman(rabi_g=complex(math.inf, 0.0)),
        ],
    )
    def test_non_finite_fields_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


SAMPLED_PULSE = PulseSpec(
    g_shape=Sampled(dt=0.25, values=tuple(0.1 * np.exp(-0.5j * np.arange(41)) * np.cos(np.arange(41)))),
    T=10.0,
)


@pytest.mark.parametrize(
    "pulse",
    [PulseSpec(g_shape=Circular(g0=0.1, nu=0.2, phase0=0.3), T=2 * math.pi / 0.2), SAMPLED_PULSE],
    ids=["circular", "sampled"],
)
def test_cumulative_drive_integral_is_cumulative_trapezoid(pulse):
    # scipy is the test-only reference; the package's own sum does the same
    # operations in the same order, so the results agree bit for bit
    times = np.linspace(0.0, pulse.T, 1001)
    expected = cumulative_trapezoid(np.asarray(pulse.g(times)), times, initial=0)
    np.testing.assert_array_equal(cumulative_drive_integral(pulse, times), expected)


def test_lambda_values():
    assert [branch_lambda(branch) for branch in BRANCHES] == [2, 0, 0, -2]
    with pytest.raises(ValueError):
        branch_lambda("xx")


class TestBasisChange:
    def test_unitary_and_self_inverse(self):
        b = sigma_x_basis_change()
        assert np.abs(b @ b.conj().T - np.eye(4)).max() < 1e-14
        assert np.abs(b @ b - np.eye(4)).max() < 1e-14

    def test_plus_plus_amplitudes(self):
        b = sigma_x_basis_change()
        np.testing.assert_allclose(b[:, 0], [0.5, 0.5, 0.5, 0.5], atol=1e-15)


SPACE = FockSpace(6)
FULL, ROTATING, RWA = HamiltonianTier.FULL_EFFECTIVE, HamiltonianTier.ROTATING_FRAME, HamiltonianTier.RWA_EFFECTIVE


class TestHamiltonians:
    def test_zero_drive_gives_zero(self, zero_pulse):
        for tier in HamiltonianTier:
            h = hamiltonian(tier, zero_pulse, SPACE, 0.3)
            assert np.abs(h).max() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.01, 1.0),
        st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.01),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 5.0),
        st.floats(0.0, 3.0),
    )
    def test_all_tiers_hermitian(self, g0, nu, phase0, r0, t_frac):
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=phase0), T=6.0, r0=r0)
        t = t_frac * pulse.T / 3.0
        for tier in HamiltonianTier:
            h = hamiltonian(tier, pulse, SPACE, t)
            assert np.abs(h - h.conj().T).max() < 1e-13

    def test_full_spectrum_classical_only(self, zero_pulse):
        # r0 (sigma1_x + sigma2_x) has eigenvalues {-2, 0, 0, 2} * r0,
        # each doubled by the dim-2 cavity identity
        pulse = PulseSpec(g_shape=zero_pulse.g_shape, T=zero_pulse.T, r0=1.0)
        h = hamiltonian(FULL, pulse, FockSpace(2), 0.1)
        expected = np.sort(np.repeat([-2.0, 0.0, 0.0, 2.0], 2))
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)

    def test_rotating_at_zero_drive_matches_full_quantum_part(self, standard_pulse):
        for t in (0.0, 0.37, 2.2):
            rot = hamiltonian(ROTATING, standard_pulse, SPACE, t)
            full = hamiltonian(FULL, standard_pulse, SPACE, t)  # r0 = 0: purely quantum
            assert np.abs(rot - full).max() < 1e-15

    def test_rwa_commutes_with_single_atom_sigma_x(self, standard_pulse):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        eye2 = np.eye(2)
        eye_f = np.eye(SPACE.dim)
        h = hamiltonian(RWA, standard_pulse, SPACE, 0.83)
        for embedded in (np.kron(np.kron(sx, eye2), eye_f), np.kron(np.kron(eye2, sx), eye_f)):
            comm = h @ embedded - embedded @ h
            assert np.abs(comm).max() < 1e-13

    def test_rwa_branch_blocks_scale_with_lambda(self, standard_pulse):
        # in the sigma_x product basis the drive couples each branch through
        # lambda/2 * (g a + conj(g) a^dag)
        t = 1.21
        g = standard_pulse.g(t)
        a = np.diag(np.sqrt(np.arange(1, SPACE.dim)), 1)
        field = g * a + np.conj(g) * a.conj().T
        w = np.kron(sigma_x_basis_change(), np.eye(SPACE.dim))
        block_diag = w.conj().T @ hamiltonian(RWA, standard_pulse, SPACE, t) @ w
        for idx, lam in enumerate(branch_lambda(branch) for branch in BRANCHES):
            block = block_diag[
                idx * SPACE.dim : (idx + 1) * SPACE.dim, idx * SPACE.dim : (idx + 1) * SPACE.dim
            ]
            np.testing.assert_allclose(block, 0.5 * lam * field, atol=1e-13)

    def test_rwa_is_static_part_of_rotating(self):
        # constant drive: averaging the rotating tier over two opposite fast
        # phases cancels the oscillating terms exactly
        pulse = PulseSpec(
            g_shape=PiecewiseConstant(segments=((10.0, 0.2 - 0.1j),)), T=10.0, r0=0.7
        )
        t_half = math.pi / (2 * pulse.r0)  # e^{2 i r0 t} flips sign here
        avg = 0.5 * (
            hamiltonian(ROTATING, pulse, SPACE, 0.0) + hamiltonian(ROTATING, pulse, SPACE, t_half)
        )
        assert np.abs(avg - hamiltonian(RWA, pulse, SPACE, 0.0)).max() < 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 16])
    # "triplet" checks the norms against the moving-row operators they belong to; "bare" checks
    # them against the dense (4 dim)^2 operators, so restricting to the moving rows loses no norm
    @pytest.mark.parametrize("moving", [False, True], ids=["bare", "triplet"])
    @pytest.mark.parametrize("tier", list(HamiltonianTier), ids=lambda tier: tier.value)
    def test_operator_norms_are_the_svd_norms(self, tier, moving, dim):
        # each operator is kron(qubit factor, Fock factor), so its 2-norm is the product of theirs
        operators, norms = hamiltonian_operators(tier, FockSpace(dim))
        if not moving:
            operators = bare_operators(tier, FockSpace(dim))
        np.testing.assert_allclose(norms, np.linalg.norm(operators, ord=2, axis=(1, 2)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize(
        "tier, rows",
        [(FULL, triplet_rows()), (ROTATING, triplet_rows()), (RWA, sigma_x_basis_change()[:, :1])],
        ids=["full", "rotating", "rwa"],
    )
    def test_moving_operators_restrict_the_bare_ones(self, tier, rows, dim):
        # the moving table is the bare one seen through Q = moving rows (x) I_dim
        q = np.kron(rows, np.eye(dim))
        bare = bare_operators(tier, FockSpace(dim))
        moving, _ = hamiltonian_operators(tier, FockSpace(dim))
        assert moving.shape == (len(bare), q.shape[1], q.shape[1])
        assert np.abs(q.conj().T @ bare @ q - moving).max() < 1e-15

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(list(HamiltonianTier)),
        st.floats(0.01, 1.0),
        st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.01),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 5.0),
        st.floats(0.0, 3.0),
        st.floats(-3.0, 3.0),
    )
    # the RWA tier's frame, on its dim |++> rows
    @example(RWA, 0.3, 1.1, 0.2, 2.0, 0.4, -1.3)
    def test_rest_frame_carries_the_circular_generator(self, tier, g0, nu, phase0, r0, t, s):
        # H(t + s) = e^{i s D} H(t) e^{-i s D} on the tier's moving rows, D diagonal
        pulse = PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=phase0), T=6.0, r0=r0)
        operators, _ = hamiltonian_operators(tier, SPACE)
        later, now = (np.tensordot(hamiltonian_weights(tier, pulse, x)[0], operators, 1) for x in (t + s, t))
        turn = np.exp(1j * s * rest_frame(tier, pulse, SPACE))
        assert np.abs(turn[:, None] * now * turn.conj() - later).max() < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(list(HamiltonianTier)),
        st.complex_numbers(max_magnitude=1.0),
        st.floats(0.0, 5.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
    )
    def test_rest_frame_carries_the_piecewise_generator_within_a_segment(self, tier, g, r0, t, s):
        # a held drive value leaves only the rotating tier's fast phase to turn
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((6.0, g),)), T=6.0, r0=r0)
        operators, _ = hamiltonian_operators(tier, SPACE)
        later, now = (np.tensordot(hamiltonian_weights(tier, pulse, x)[0], operators, 1) for x in (t + s, t))
        turn = np.exp(1j * s * rest_frame(tier, pulse, SPACE))
        assert np.abs(turn[:, None] * now * turn.conj() - later).max() < 1e-13

    def test_only_sampled_drives_have_no_rest_frame(self, zero_pulse, standard_pulse):
        sampled = PulseSpec(g_shape=Sampled(dt=1.0, values=(0.1, 0.2j)), T=1.0)
        for tier in HamiltonianTier:
            assert rest_frame(tier, sampled, SPACE) is None
            # the triplet rows, or the |++> rows alone on the RWA tier
            rows = 1 if tier is RWA else 3
            assert rest_frame(tier, zero_pulse, SPACE).shape == (rows * SPACE.dim,)
            assert rest_frame(tier, standard_pulse, SPACE).shape == (rows * SPACE.dim,)

    def test_branch_count(self):
        assert BRANCHES == ("++", "+-", "-+", "--")
