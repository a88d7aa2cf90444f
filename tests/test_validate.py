import math
from dataclasses import asdict, replace

import pytest

from loopgate import (
    Circular,
    FockSpace,
    gate_fidelity,
    gate_matrix,
    PiecewiseConstant,
    PulseSpec,
    SimulationGuard,
    StepTooCoarseError,
    TruncationGuardError,
    rwa_error_scan,
    truncation_scan,
    validate,
)
from loopgate.validate import MAX_SCAN_SIZE


@pytest.fixture
def short_pulse():
    """A fast two-loop drive, cheap enough for scan unit tests."""
    return PulseSpec(g_shape=Circular(g0=0.1, nu=1.0), T=2 * math.pi)


class TestRwaScan:
    def test_step_guard(self, short_pulse):
        with pytest.raises(StepTooCoarseError):
            rwa_error_scan(short_pulse, [1.0, 30.0], FockSpace(4), dt=0.01)

    @pytest.mark.parametrize("dim,limit", [(2, MAX_SCAN_SIZE // 64), (512, MAX_SCAN_SIZE // 512**2)])
    def test_stack_size_is_bounded(self, short_pulse, monkeypatch, dim, limit):
        # below dim 8 each r0 value counts as a dim-8 generator; a scan at the limit gets past the bound
        class ReachedTheGates(Exception):
            pass

        def reached(*args, **kwargs):
            raise ReachedTheGates

        monkeypatch.setattr(validate, "gate_matrix", reached)
        with pytest.raises(SimulationGuard, match=f"{limit + 1} r0 values at dim {dim} need about"):
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


def test_report_serialization_round_trip(short_pulse):
    report = rwa_error_scan(short_pulse, [2.0, 8.0], FockSpace(4), dt=0.01)
    dicts = [asdict(row) for row in report.rows]
    assert len(dicts) == 2
    assert dicts[0]["parameter_value"] == 2.0
    assert set(dicts[0]) == {"parameter_value", "infidelity", "diagonality_residual", "phase_error"}
