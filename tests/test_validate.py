import math
import tracemalloc
from dataclasses import asdict, replace

import pytest

from loopgate import (
    Circular,
    FockSpace,
    Sampled,
    gate_fidelity,
    gate_matrix,
    PiecewiseConstant,
    PulseSpec,
    SimulationGuard,
    StepTooCoarseError,
    TruncationGuardError,
    evolve,
    gate,
    rwa_error_scan,
    truncation_scan,
    validate,
)
from loopgate.phase import CLOSURE_STEPS, solve_loop
from loopgate.validate import MAX_SCAN_SIZE, ScanRow


@pytest.fixture
def short_pulse():
    """A fast two-loop drive, cheap enough for scan unit tests."""
    return PulseSpec(g_shape=Circular(g0=0.1, nu=1.0), T=2 * math.pi)


class TestRwaScan:
    def test_step_guard(self, short_pulse):
        with pytest.raises(StepTooCoarseError):
            rwa_error_scan(short_pulse, [1.0, 30.0], FockSpace(4), dt=0.01)

    def test_step_guard_refuses_before_anything_is_stepped(self, short_pulse, monkeypatch):
        def stepped(*args, **kwargs):
            raise AssertionError("a gate was stepped")

        monkeypatch.setattr(gate, "_step_moving_rows", stepped)
        with pytest.raises(StepTooCoarseError):
            rwa_error_scan(short_pulse, [1.0, 2000.0], FockSpace(32), dt=1e-4)

    def test_r0_values_share_the_step_budget(self, monkeypatch):
        # 50 steps fit a budget of 100 for one gate; the three gates of a scan do not,
        # and that is judged before any gate is stepped. A weak drive returns to vacuum
        # at r0 below the drive frequency
        pulse = PulseSpec(g_shape=Circular(g0=0.01, nu=1.0), T=2 * math.pi)
        monkeypatch.setattr(evolve, "MAX_SAMPLES", 100)
        dt = pulse.T / 50
        rwa_error_scan(pulse, [0.6], FockSpace(4), dt)

        def stepped(*args, **kwargs):
            raise AssertionError("a gate was stepped")

        monkeypatch.setattr(gate, "_step_moving_rows", stepped)
        with pytest.raises(SimulationGuard, match="150 steps requested, above the limit of 100"):
            rwa_error_scan(pulse, [0.2, 0.4, 0.6], FockSpace(4), dt)

    def test_peak_memory_does_not_grow_with_the_r0_count(self):
        # a sampled drive takes the series at every step, on a 144 x 144 generator at
        # dim 48; the gates are stepped one at a time, so six r0 values need no more
        # memory than one (six generators stepped as one stack peaked at 4.4 MB, one gate at 2.5 MB)
        pulse = PulseSpec(g_shape=Sampled(dt=0.25, values=(0.1, 0.1j, -0.1, -0.1j, 0.1)), T=1.0)

        def peak(r0_values):
            tracemalloc.start()
            try:
                rwa_error_scan(pulse, r0_values, FockSpace(48), dt=0.016)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([6.0])  # first-call allocations stay out of the count
        one = peak([6.0])
        six = peak([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        # slack for the previous gate's states, alive while the next gate is stepped,
        # and five more gate matrices: about 28 kB here
        assert six <= one + 65_536

    @pytest.mark.parametrize("dim,limit", [(2, MAX_SCAN_SIZE // 64), (512, MAX_SCAN_SIZE // 512**2)])
    def test_stack_size_is_bounded(self, short_pulse, monkeypatch, dim, limit):
        # below dim 8 each r0 value counts as a dim-8 gate; a scan at the limit gets past the bound
        class ReachedTheGates(Exception):
            pass

        def reached(*args, **kwargs):
            raise ReachedTheGates

        monkeypatch.setattr(validate, "_numeric_gates", reached)
        with pytest.raises(SimulationGuard, match=f"{limit + 1} r0 values at dim {dim}: n_r0 "):
            rwa_error_scan(short_pulse, list(range(1, limit + 2)), FockSpace(dim), dt=1e-9)
        with pytest.raises(ReachedTheGates):
            rwa_error_scan(short_pulse, list(range(1, limit + 1)), FockSpace(dim), dt=1e-9)

    def test_rejects_unordered_or_nonpositive(self, short_pulse):
        with pytest.raises(ValueError):
            rwa_error_scan(short_pulse, [5.0, 1.0], FockSpace(4), dt=0.001)
        with pytest.raises(ValueError):
            rwa_error_scan(short_pulse, [-1.0, 2.0], FockSpace(4), dt=0.001)
        with pytest.raises(ValueError):
            rwa_error_scan(short_pulse, [], FockSpace(4), dt=0.001)

    def test_zero_drive_zero_infidelity(self):
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((1.0, 0.0),)), T=1.0)
        report = rwa_error_scan(pulse, [1.0, 4.0], FockSpace(4), dt=0.02)
        for row in report.rows:
            assert row.infidelity == pytest.approx(0.0, abs=1e-12)
            assert row.diagonality_residual == pytest.approx(0.0, abs=1e-12)
        assert report.monotone_flag is True

    def test_single_point_trivially_monotone(self, short_pulse):
        report = rwa_error_scan(short_pulse, [8.0], FockSpace(8), dt=0.005)
        assert report.monotone_flag is True
        assert len(report.rows) == 1

    def test_infidelity_drops_with_drive(self, short_pulse):
        report = rwa_error_scan(short_pulse, [2.0, 8.0], FockSpace(8), dt=0.005)
        assert report.rows[0].infidelity > report.rows[1].infidelity
        assert report.monotone_flag is True
        assert report.rows[0].diagonality_residual > report.rows[1].diagonality_residual

    def test_deterministic(self, short_pulse):
        first = rwa_error_scan(short_pulse, [2.0, 8.0], FockSpace(4), dt=0.01)
        second = rwa_error_scan(short_pulse, [2.0, 8.0], FockSpace(4), dt=0.01)
        assert first == second

    def test_stacked_rows_match_one_gate_at_a_time(self, short_pulse):
        space, dt = FockSpace(6), 0.01
        report = rwa_error_scan(short_pulse, [2.0, 4.0, 8.0], space, dt=dt)
        reference = gate_matrix(short_pulse, space, method="numeric_rwa", dt=dt)
        for row in report.rows:
            driven = replace(short_pulse, r0=row.parameter_value)
            single = gate_matrix(driven, space, method="numeric_rotating", dt=dt)
            infidelity = 1.0 - gate_fidelity(single.matrix, reference.matrix)
            phase_error = abs(math.remainder(single.extracted_gamma - reference.extracted_gamma, 2 * math.pi))
            assert row.infidelity == pytest.approx(infidelity, abs=1e-12)
            assert row.diagonality_residual == pytest.approx(single.diagonality_residual, abs=1e-12)
            assert row.phase_error == pytest.approx(phase_error, abs=1e-12)

    def test_rows_ascending(self, short_pulse):
        report = rwa_error_scan(short_pulse, [2.0, 4.0, 8.0], FockSpace(4), dt=0.01)
        values = [row.parameter_value for row in report.rows]
        assert values == sorted(values)


class TestTruncationScan:
    def test_dim_floor_guard(self, standard_pulse):
        # the standard pulse reaches |alpha| = 1, so dims must be >= 4
        with pytest.raises(TruncationGuardError):
            truncation_scan(standard_pulse, [2, 8], dt=standard_pulse.T / 200)

    def test_rejects_unordered(self, short_pulse):
        with pytest.raises(ValueError):
            truncation_scan(short_pulse, [16, 8], dt=0.01)
        with pytest.raises(ValueError, match="dims must be nonempty"):
            truncation_scan(short_pulse, [], dt=0.01)

    def test_converges_for_small_loop(self, short_pulse):
        # max|alpha| = 0.2, so even dim 6 holds the loop comfortably
        report = truncation_scan(short_pulse, [6, 12, 24], dt=short_pulse.T / 400)
        assert report.rows[0].infidelity == 0.0
        assert report.rows[-1].infidelity < 1e-8
        assert report.monotone_flag is True
        assert [row.parameter_value for row in report.rows] == [6.0, 12.0, 24.0]

    def test_zero_drive_converged_everywhere(self):
        pulse = PulseSpec(g_shape=PiecewiseConstant(segments=((1.0, 0.0),)), T=1.0)
        report = truncation_scan(pulse, [2, 4, 8], dt=0.05)
        for row in report.rows:
            assert row.infidelity == pytest.approx(0.0, abs=1e-14)
        assert report.monotone_flag is True

    def test_single_dim(self, short_pulse):
        report = truncation_scan(short_pulse, [8], dt=0.01)
        assert len(report.rows) == 1
        assert report.monotone_flag is True

    def test_rows_match_gate_matrix_reports(self, short_pulse):
        dims, dt = [6, 8, 12], 0.01
        report = truncation_scan(short_pulse, dims, dt=dt)
        reports = [gate_matrix(short_pulse, FockSpace(d), method="numeric_rwa", dt=dt) for d in dims]
        expected = [ScanRow(6.0, 0.0, reports[0].diagonality_residual, 0.0)] + [
            ScanRow(
                float(d),
                abs(rep.fidelity - prev.fidelity),
                rep.diagonality_residual,
                abs(math.remainder(rep.extracted_gamma - prev.extracted_gamma, 2 * math.pi)),
            )
            for d, rep, prev in zip(dims[1:], reports[1:], reports)
        ]
        assert report.rows == tuple(expected)


@pytest.mark.parametrize(
    "scan",
    [
        lambda pulse: rwa_error_scan(pulse, [2.0, 4.0], FockSpace(4), dt=0.01),
        lambda pulse: truncation_scan(pulse, [6, 8, 12], dt=0.01),
    ],
    ids=["rwa", "truncation"],
)
def test_each_scan_solves_the_loop_once(short_pulse, monkeypatch, scan):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_loop(*args, **kwargs)

    monkeypatch.setattr(validate, "solve_loop", counted)
    monkeypatch.setattr(gate, "solve_loop", counted)
    scan(short_pulse)
    assert calls == [(short_pulse, CLOSURE_STEPS)]


def test_report_serialization_round_trip(short_pulse):
    report = rwa_error_scan(short_pulse, [2.0, 8.0], FockSpace(4), dt=0.01)
    dicts = [asdict(row) for row in report.rows]
    assert len(dicts) == 2
    assert dicts[0]["parameter_value"] == 2.0
    assert set(dicts[0]) == {"parameter_value", "infidelity", "diagonality_residual", "phase_error"}
