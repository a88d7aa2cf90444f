import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loopgate
from loopgate import cli
from loopgate.config import load_config, parse_scalar
from loopgate.errors import ConfigError
from loopgate.evolve import MAX_SAMPLES
from loopgate.fock import MAX_DIM
from loopgate.validate import MAX_SCAN_SIZE, ScanRow, ValidationReport

CIRCULAR_CONFIG = """\
[pulse]
shape = circular
g0 = 0.1
nu = 0.2
phase0 = 0
r0 = 0
loops = 1

[run]
n_steps = 65536
"""


# a valid circular pulse followed by an open [scan] section
SCAN_PULSE = "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[scan]\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def read_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestScalarParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("2pi", 2 * math.pi),
            ("3*pi/4", 3 * math.pi / 4),
            ("-pi", -math.pi),
            ("1e-3", 1e-3),
            ("0.25", 0.25),
            ("10*pi", 10 * math.pi),
        ],
    )
    def test_values(self, text, expected):
        assert parse_scalar(text) == pytest.approx(expected, rel=1e-15)

    def test_complex(self):
        assert parse_scalar("0.1+0.2j") == 0.1 + 0.2j

    @pytest.mark.parametrize(
        "text,expected", [("+2pi", 2 * math.pi), ("-(1+2)*3", -9), ("1/4-0.5j", 0.25 - 0.5j)]
    )
    def test_arithmetic(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "import os", "x", "1_0", "pi**2 #", "10**400", "2**3", "pi // 2", "1 % 2", "j", "pij", "(pi)j", "1/0", "()"],
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)

    @pytest.mark.parametrize("depth", [2000, 100_000])
    def test_rejects_deep_expressions(self, depth):
        for text in ("-" * depth + "1", "(" * depth + "1" + ")" * depth, "1" + "+1" * depth):
            with pytest.raises(ValueError):
                parse_scalar(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e400j", "1e308*10"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_scalar(text)

    def test_power_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG.replace("g0 = 0.1", "g0 = 2**3"))
        assert cli.main(["phases", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: pulse.g0: ") and "not allowed" in err

    @pytest.mark.parametrize("key,old,new", [("g0", "0.1", "10**400"), ("phase0", "0", "1e400")])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, old, new):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG.replace(f"{key} = {old}", f"{key} = {new}"))
        assert cli.main(["gate", "--config", cfg]) == 1
        assert f"config error: pulse.{key}: " in capsys.readouterr().err


class TestConfigSyntax:
    def test_percent_is_literal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG + "\n[output]\npath = a%b.csv\n")
        assert cli.main(["phases", "--config", cfg]) == 0
        assert (tmp_path / "a%b.csv").read_text().startswith("branch,")

    def test_semicolon_separates_segments_and_hash_starts_a_comment(self, tmp_path):
        text = "[pulse]\nshape = piecewise\nsegments = 1.0 0.1+0j ; 0.5 -0.2+0.1j; 1.0 -0.05j  # three sides\n"
        pulse = load_config(write(tmp_path / "p.ini", text)).pulse
        assert pulse.g_shape.segments == ((1.0, 0.1), (0.5, -0.2 + 0.1j), (1.0, -0.05j))

    @pytest.mark.parametrize(
        "text,messages",
        [
            (
                "[pulse]\nshape = sampled\ndt = -0.5\nvalues = 0.1+0j 0.1j -0.1+0j -0.1j 0.1+0j\n",
                ["pulse.dt: must be > 0"],
            ),
            (
                "[pulse]\nshape = sampled\ndt = abc\nvalues = 0.1 garbage\n",
                ["pulse.dt: invalid numeric expression 'abc'", "pulse.values: invalid numeric expression 'garbage'"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[scan]\nkind = truncation\ndims = 8 x 16\n",
                ["scan.dims: invalid numeric expression 'x'"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[scan]\nkind = rwa\nr0_values = 1 x\n",
                ["scan.r0_values: invalid numeric expression 'x'"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = abc\nnu = 0.2\n",
                ["pulse.g0: invalid numeric expression 'abc'"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[sweep]\nr0 = 1 x\nnu =\nloops = 2\n",
                [
                    "sweep.r0: invalid numeric expression 'x'",
                    "sweep.nu: needs at least one value",
                    "sweep.loops: not a sweepable pulse field ('g0', 'nu', 'phase0', 'r0', 'T')",
                ],
            ),
            (
                "[pulse]\nshape = piecewise\nsegments = 1.0 0.1; 1.0 -0.1\n\n[sweep]\ng0 = 0.1 0.2\nmax_points = 0\n",
                ["sweep.g0: only circular pulses expose this field", "sweep.max_points: must be >= 1"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[sweep]\ng0 = 0.1 -0.1\nr0 = 0 -1\n",
                [
                    "sweep.g0: Circular.g0 must be finite and > 0, got -0.1",
                    "sweep.r0: PulseSpec.r0 must be finite and >= 0, got -1.0",
                ],
            ),
            (
                "[pulse]\nshape = piecewise\nsegments = 1.0 0\n\n[scan]\nkind = truncation\ndims = 1 8\n",
                ["scan.dims: must be >= 2"],
            ),
            # each scan kind reads only its own keys
            (SCAN_PULSE + "kind = rwa\nr0_values = 1 2\ndims = 8 16\n", ["scan.dims: unknown key"]),
            (SCAN_PULSE + "kind = truncation\ndims = 8 16\nr0_values = 1 2\n", ["scan.r0_values: unknown key"]),
            (SCAN_PULSE + "kind = truncation\ndims = 8 16\ndim = 8\n", ["scan.dim: unknown key"]),
            ("[space]\ndim = 8\n", ["pulse: section is required"]),
        ],
        ids=[
            "sampled-dt", "sampled-dt-and-values", "scan-dims", "scan-r0-values", "circular-g0", "sweep-fields",
            "sweep-shape-field", "sweep-values", "scan-dims-floor", "rwa-scan-dims", "truncation-scan-r0-values",
            "truncation-scan-dim", "no-pulse",
        ],
    )
    def test_each_offending_field_is_reported_once_under_its_own_key(self, tmp_path, capsys, text, messages):
        cfg = write(tmp_path / "c.ini", text)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err == "".join(f"config error: {m}\n" for m in messages)

    def test_missing_raman_keys_listed_in_field_order(self, tmp_path):
        cfg = write(tmp_path / "r.ini", "[pulse]\nshape = circular\nnu = 0.2\n\n[raman]\n")
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        missing = [m.split(":")[0] for m in info.value.messages if m.endswith("required key is missing")]
        assert missing == [
            f"raman.{key}"
            for key in (
                "omega_p", "omega_s", "omega_g", "omega_c", "omega_0",
                "rabi_p", "rabi_s", "rabi_g", "kappa_e", "delta_1", "delta_2",
            )
        ]


class TestFlags:
    @pytest.mark.parametrize(
        "argv,old,new,message",
        [
            (["phases", "--steps", "1"], "n_steps = 65536", "n_steps = 1", "run.n_steps: must be >= 2"),
            (["gate", "--dim", "1"], "[run]", "[space]\ndim = 1\n\n[run]", "space.dim: must be >= 2"),
            (["sweep", "--format", "xml"], "[run]", "[output]\nformat = xml\n\n[run]", "output.format: must be one of"),
            (["gate", "--dt", "abc"], "[run]", "[run]\ndt = abc", "run.dt: invalid numeric expression"),
        ],
        ids=["steps", "dim", "format", "dt"],
    )
    def test_flag_meets_the_file_check(self, tmp_path, capsys, argv, old, new, message):
        flagged = write(tmp_path / "a.ini", CIRCULAR_CONFIG)
        assert cli.main([*argv, "--config", flagged]) == 1
        flag_err = capsys.readouterr().err
        in_file = write(tmp_path / "b.ini", CIRCULAR_CONFIG.replace(old, new))
        assert cli.main([argv[0], "--config", in_file]) == 1
        assert flag_err == capsys.readouterr().err
        assert flag_err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["phases"],
            ["phases", "--config", "{cfg}", "--dt", "0.1"],
            ["sweep", "--config", "{cfg}", "--dim", "4"],
            ["validate", "--config", "{cfg}", "--dt", "0.2"],
            ["gate", "--config", "{cfg}", "--allow-open"],
        ],
        ids=["no-command", "no-config", "phases-dt", "sweep-dim", "validate-dt", "gate-allow-open"],
    )
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        assert cli.main([arg.format(cfg=cfg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: loopgate") and "config error: " in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["gate", "--help"])
        assert info.value.code == 0
        assert "overrides space.dim" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["phases", "--config", "{cfg}", "--out", "{out}"], ["design", "pi/2", "--g0", "0.1", "--out", "{out}"]],
        ids=["phases", "design"],
    )
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, argv):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        out = str(tmp_path / "missing" / "x.csv")
        assert cli.main([arg.format(cfg=cfg, out=out) for arg in argv]) == 1
        assert capsys.readouterr().err == f"config error: cannot write {out!r}: No such file or directory\n"


class TestPhasesCommand:
    def test_circular_values(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        assert cli.main(["phases", "--config", cfg]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == [
            "branch",
            "gamma_g",
            "gamma_d",
            "gamma_total",
            "closure_residual",
            "enclosed_area",
        ]
        assert [row["branch"] for row in rows] == ["++", "+-", "-+", "--"]
        top = rows[0]
        assert float(top["gamma_g"]) == pytest.approx(-math.pi / 2, abs=1e-6)
        assert float(top["gamma_d"]) == pytest.approx(math.pi, abs=1e-6)
        assert float(top["gamma_total"]) == pytest.approx(math.pi / 2, abs=1e-6)
        assert rows[1]["gamma_total"] == "0"

    def test_zero_drive(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "z.ini",
            "[pulse]\nshape = piecewise\nsegments = 2.0 0\n\n[run]\nn_steps = 1000\n",
        )
        assert cli.main(["phases", "--config", cfg]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert all(row["gamma_total"] == "0" for row in rows)

    def test_open_loop_exit_code_and_message(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "o.ini",
            f"[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nT = {1.5 * 2 * math.pi / 0.2!r}\n",
        )
        assert cli.main(["phases", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "does not close" in err and "alpha(T)" in err

    def test_allow_open_reports_residual(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "o.ini",
            f"[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nT = {1.5 * 2 * math.pi / 0.2!r}\n"
            "\n[run]\nn_steps = 65536\n",
        )
        assert cli.main(["phases", "--config", cfg, "--allow-open"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0]["closure_residual"]) == pytest.approx(1.0, rel=1e-6)
        assert rows[0]["enclosed_area"] == ""

    def test_config_errors_list_field_paths(self, tmp_path, capsys):
        cfg = write(tmp_path / "b.ini", "[pulse]\nshape = circular\ng0 = -1\nnu = 0\n")
        assert cli.main(["phases", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "pulse.nu" in err
        missing = str(tmp_path / "missing.ini")
        assert cli.main(["phases", "--config", missing]) == 1
        assert capsys.readouterr().err == f"config error: config: cannot read {missing!r}: No such file or directory\n"

    def test_unknown_keys_flagged(self, tmp_path, capsys):
        cfg = write(tmp_path / "u.ini", CIRCULAR_CONFIG + "typo_key = 3\n")
        assert cli.main(["phases", "--config", cfg]) == 1
        assert "run.typo_key: unknown key" in capsys.readouterr().err
        # the closure tolerance is a fixed rule, not a setting
        cfg = write(tmp_path / "t.ini", CIRCULAR_CONFIG + "closure_tol = 1e-3\n")
        assert cli.main(["phases", "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: run.closure_tol: unknown key\n"


class TestGateCommand:
    def test_analytic_json(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        assert cli.main(["gate", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nontrivial"] is True
        assert payload["extracted_gamma"] == pytest.approx(math.pi / 2, abs=1e-6)
        assert payload["matrix_im"][0][0] == pytest.approx(1.0, abs=1e-6)
        assert payload["matrix_re"][1][1] == pytest.approx(1.0, abs=1e-12)

    def test_trivial_gate_flagged(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "t.ini",
            "[pulse]\nshape = circular\ng0 = 0.2\nnu = 0.2\nloops = 1\n\n[run]\nn_steps = 65536\n",
        )
        assert cli.main(["gate", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extracted_gamma"] == pytest.approx(2 * math.pi, abs=1e-6)
        assert payload["nontrivial"] is False

    def test_csv_has_matrix_columns(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        assert cli.main(["gate", "--config", cfg]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert "m00_re" in header and "m33_im" in header
        assert float(rows[0]["m00_im"]) == pytest.approx(1.0, abs=1e-6)

    def test_numeric_method_from_config(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "n.ini",
            CIRCULAR_CONFIG.replace("[run]", "[run]\nmethod = numeric_rwa")
            + "\n[space]\ndim = 16\n",
        )
        assert cli.main(["gate", "--config", cfg, "--format", "json", "--dt", "0.04"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "numeric_rwa"
        assert payload["extracted_gamma"] == pytest.approx(math.pi / 2, abs=1e-3)
        assert payload["fidelity"] > 0.999


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["phases", "gate"])
def test_nan_trajectory_fails_closure_guard(tmp_path, capsys, command):
    # g0 is finite, but the trapezoid sums overflow, so alpha(T) is NaN
    cfg = write(tmp_path / "n.ini", CIRCULAR_CONFIG.replace("g0 = 0.1", "g0 = 1e308"))
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "does not close" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [["phases"], ["phases", "--allow-open"], ["gate"], ["sweep"]],
    ids=["phases", "phases-allow-open", "gate", "sweep"],
)
def test_overflowing_phase_sums_are_a_guard(tmp_path, capsys, argv):
    # the loop closes within its relative tolerance, but |alpha|^2 overflows
    text = CIRCULAR_CONFIG.replace("g0 = 0.1", "g0 = 1e200") + "\n[sweep]\nnu = 0.2 -0.2\n"
    cfg = write(tmp_path / "h.ini", text)
    assert cli.main([*argv, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "not finite" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g0", ["1e200", "1e308"])
@pytest.mark.parametrize(
    "command,scan",
    [
        ("phases", ""),
        ("gate", ""),
        ("sweep", "\n[sweep]\nnu = 0.2\n"),
        ("validate", "\n[scan]\nkind = rwa\nr0_values = 1 2\ndt = 0.01\ndim = 4\n"),
        ("validate", "\n[scan]\nkind = truncation\ndims = 8 16\n"),
    ],
    ids=["phases", "gate", "sweep", "validate-rwa", "validate-truncation"],
)
def test_overflowing_drive_prints_one_error_line(tmp_path, capsys, command, scan, g0):
    cfg = write(tmp_path / "o.ini", CIRCULAR_CONFIG.replace("g0 = 0.1", f"g0 = {g0}") + scan)
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["numeric_rwa", "numeric_rotating"])
@pytest.mark.parametrize(
    "g0,message", [("1e200", "too strong for double precision"), ("1e4", "reduce dt")]
)
def test_overdriven_numeric_gate_is_refused_before_stepping(tmp_path, capsys, method, g0, message):
    # 1e200 squares past the float range; 1e4 is finite but far past what one step absorbs
    text = CIRCULAR_CONFIG.replace("g0 = 0.1", f"g0 = {g0}").replace("r0 = 0", "r0 = 10")
    text = text.replace("[run]", f"[run]\nmethod = {method}") + "\n[space]\ndim = 4\n"
    cfg = write(tmp_path / "o.ini", text)
    assert cli.main(["gate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,count",
    [
        (["phases", "--steps", "10000000000000"], "10000000000001 trajectory samples"),
        (["gate", "--dt", "1e-12", "--dim", "4"], "3.142e+13 steps"),
    ],
    ids=["phases-steps", "gate-dt"],
)
def test_step_counts_past_the_limit_are_refused_before_allocating(tmp_path, capsys, argv, count):
    text = CIRCULAR_CONFIG.replace("[run]", "[run]\nmethod = numeric_rwa")
    cfg = write(tmp_path / "s.ini", text)
    assert cli.main([*argv, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {count} requested, above the limit of {MAX_SAMPLES}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,scan",
    [(["gate", "--dim", "1000000"], ""), (["validate"], "\n[scan]\nkind = truncation\ndims = 8 1000000\n")],
    ids=["gate", "validate-truncation"],
)
def test_fock_dimensions_past_the_limit_are_refused_before_allocating(tmp_path, capsys, argv, scan):
    text = CIRCULAR_CONFIG.replace("[run]", "[run]\nmethod = numeric_rwa") + scan
    cfg = write(tmp_path / "d.ini", text)
    assert cli.main([*argv, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: Fock dimension dim = 1000000 is above the limit of {MAX_DIM}")
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_truncation_scan_of_an_overflowing_loop_is_a_guard(tmp_path, capsys):
    # the loop excursion 2 g0 / nu is finite, its square is not
    text = CIRCULAR_CONFIG.replace("g0 = 0.1", "g0 = 1e200") + "\n[scan]\nkind = truncation\ndims = 8 16\n"
    cfg = write(tmp_path / "t.ini", text)
    assert cli.main(["validate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: phase sums over the drive cycle are not finite")
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,pulse,code,message",
    [
        ("phases", "g0 = 0.2\nnu = 1\nloops = 1e308\n", 1, "config error: pulse: PulseSpec.T must be finite"),
        ("gate", "g0 = 0.2\nnu = 1\nr0 = 1e308\n\n[run]\nmethod = numeric_rwa\ndt = 0.02\n", 0, ""),
        (
            "gate",
            "g0 = 0.2\nnu = 1\nr0 = 1e308\n\n[run]\nmethod = numeric_rotating\ndt = 0.02\n",
            2,
            "error: dt * max(r0) = 2e+306 >= 0.1",
        ),
        (
            "gate",
            "g0 = 0.2\nnu = 1\nr0 = 1e300\n\n[run]\nmethod = numeric_rotating\ndt = 0.02\n",
            2,
            "error: dt * max(r0) = 2e+298 >= 0.1",
        ),
        ("sweep", "shape = sampled\ndt = 1e308\nvalues = 0.1 0.1j -0.1\n", 1, "config error: pulse.values: "),
        ("sweep", "shape = piecewise\nsegments = 1e308 0.1; 1e308 -0.1\n", 1, "config error: pulse.segments: "),
    ],
    ids=["loops", "r0-rwa", "r0-rotating", "r0-rotating-unresolved", "sampled-duration", "piecewise-duration"],
)
def test_values_near_the_float_limit_end_in_a_documented_exit_code(tmp_path, capsys, command, pulse, code, message):
    # found by the fuzz tests: an int overflow in the cycle time, rotating-tier steps far too coarse
    # for the fast 2*r0 oscillation, and drive durations that overflow while their grid is built
    cfg = write(tmp_path / "f.ini", "[space]\ndim = 6\n\n[sweep]\nr0 = 0\n\n[pulse]\n" + pulse)
    assert cli.main([command, "--config", cfg]) == code
    assert capsys.readouterr().err.startswith(message)


def test_oversized_rwa_scan_is_refused_before_the_first_gate(tmp_path, capsys):
    # 100 r0 values at dim 512 would step a 3.8 GB generator
    r0_values = " ".join(str(r0) for r0 in range(1, 101))
    text = CIRCULAR_CONFIG + f"\n[scan]\nkind = rwa\nr0_values = {r0_values}\ndt = 0.0005\ndim = 512\n"
    cfg = write(tmp_path / "v.ini", text)
    assert cli.main(["validate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: 100 r0 values at dim 512 need about 3.77 GB: n_r0 * max(dim, 8)^2 = 26214400, "
        f"above the limit of {MAX_SCAN_SIZE}; scan fewer r0 values or lower dim\n"
    )
    assert captured.out == ""


class TestDesignCommand:
    def test_solution_and_round_trip(self, tmp_path, capsys):
        assert cli.main(["design", "pi/2", "--g0", "0.1"]) == 0
        printed = capsys.readouterr().out
        cfg = tmp_path / "designed.ini"
        cfg.write_text(printed + "\n[run]\nn_steps = 65536\n")
        parsed = load_config(str(cfg)).pulse
        assert parsed.g_shape.nu == pytest.approx(0.2, rel=1e-15)
        assert parsed.T == pytest.approx(10 * math.pi, rel=1e-15)
        # identical-value round trip: repr floats parse back exactly
        assert parsed.g_shape.g0 == 0.1
        assert parsed.T == 10 * math.pi
        assert cli.main(["phases", "--config", str(cfg)]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0]["gamma_total"]) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_rejects_nonpositive_target(self, capsys):
        assert cli.main(["design", "0", "--g0", "0.1"]) == 2
        assert cli.main(["design", "0-pi", "--g0", "0.1"]) == 2

    def test_trivial_target_warns_but_emits(self, capsys):
        assert cli.main(["design", "2pi", "--g0", "0.1"]) == 0
        captured = capsys.readouterr()
        assert "[pulse]" in captured.out
        assert "trivial" in captured.err

    def test_unparseable_target(self, capsys):
        assert cli.main(["design", "pie", "--g0", "0.1"]) == 1
        assert capsys.readouterr().err == (
            "config error: target: 'pie' is not allowed; use numbers, pi, j, + - * / and parentheses\n"
        )

    @pytest.mark.parametrize(
        "argv,code,messages",
        [
            (["pi/2", "--T", "inf"], 1, ["config error: --T: invalid numeric expression 'inf'"]),
            (["pi/2", "--T", "nan"], 1, ["config error: --T: invalid numeric expression 'nan'"]),
            (["pi/2", "--T", "1e-320"], 2, ["error: T = 1e-320 gives nu = inf"]),
            (["pi/2", "--g0", "1e-320"], 2, ["error: g0 = 1e-320 gives T = inf"]),
            (["pi/2", "--loops", "1" + "0" * 400], 1, ["config error: --loops: cannot parse"]),
            (
                ["foo", "--g0", "bar"],
                1,
                ["config error: target: invalid numeric expression 'foo'", "config error: --g0: invalid numeric"],
            ),
            (
                ["pi/2", "--g0", "bar", "--loops", "x"],
                1,
                ["config error: --g0: invalid numeric expression 'bar'", "config error: --loops: invalid numeric"],
            ),
            (
                ["foo", "--g0", "bar", "--loops", "x"],
                1,
                ["config error: target: ", "config error: --g0: ", "config error: --loops: "],
            ),
        ],
        ids=[
            "T-inf", "T-nan", "T-underflow", "g0-underflow", "loops-overflow", "target-and-g0", "g0-and-loops",
            "target-g0-and-loops",
        ],
    )
    def test_bad_flag_is_reported_under_its_own_name(self, capsys, argv, code, messages):
        assert cli.main(["design", *argv]) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == len(messages)
        assert all(line.startswith(message) for line, message in zip(lines, messages))
        assert captured.out == ""


class TestValidateCommand:
    def test_rwa_scan_runs(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "v.ini",
            "[pulse]\nshape = circular\ng0 = 0.1\nnu = 1.0\nloops = 2\n\n"
            "[scan]\nkind = rwa\nr0_values = 2 8\ndt = 0.005\ndim = 8\n",
        )
        assert cli.main(["validate", "--config", cfg]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["r0", "infidelity", "diagonality_residual", "phase_error"]
        assert len(rows) == 2
        assert float(rows[0]["infidelity"]) > float(rows[1]["infidelity"])

    def test_step_guard_exit_code(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "v.ini",
            "[pulse]\nshape = circular\ng0 = 0.1\nnu = 1.0\nloops = 1\n\n"
            "[scan]\nkind = rwa\nr0_values = 2 40\ndt = 0.005\ndim = 4\n",
        )
        assert cli.main(["validate", "--config", cfg]) == 2

    def test_regression_exit_code(self, tmp_path, capsys, monkeypatch):
        fake = ValidationReport(
            rows=(ScanRow(1.0, 1e-4, 0.0, 0.0), ScanRow(2.0, 5e-4, 0.0, 0.0)),
            monotone_flag=False,
            kind="rwa",
        )
        monkeypatch.setattr(cli, "rwa_error_scan", lambda *a, **k: fake)
        cfg = write(
            tmp_path / "v.ini",
            "[pulse]\nshape = circular\ng0 = 0.1\nnu = 1.0\nloops = 1\n\n"
            "[scan]\nkind = rwa\nr0_values = 2 8\ndt = 0.005\ndim = 4\n",
        )
        assert cli.main(["validate", "--config", cfg]) == 3

    def test_missing_scan_section(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.ini", CIRCULAR_CONFIG)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: scan: section is required for the validate command\n"


class TestSweepCommand:
    def test_gamma_scaling(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "s.ini",
            CIRCULAR_CONFIG + "\n[sweep]\ng0 = 0.05 0.1 0.2\n",
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[0] == "g0"
        gammas = [float(row["gamma_total"]) for row in rows]
        assert gammas[0] == pytest.approx(math.pi / 8, abs=1e-6)
        assert gammas[1] == pytest.approx(math.pi / 2, abs=1e-6)
        assert gammas[2] == pytest.approx(2 * math.pi, abs=1e-6)

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.ini", CIRCULAR_CONFIG + "\n[sweep]\nmax_points = 10\n")
        assert cli.main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: sweep: at least one swept field is required\n"
        cfg = write(tmp_path / "n.ini", CIRCULAR_CONFIG)
        assert cli.main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: sweep: section is required for the sweep command\n"

    def test_grid_limit(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "s.ini",
            CIRCULAR_CONFIG + "\n[sweep]\nmax_points = 2\ng0 = 0.05 0.1 0.2\n",
        )
        assert cli.main(["sweep", "--config", cfg]) == 1

    def test_bad_values_are_refused_before_any_grid_point(self, tmp_path, capsys, monkeypatch):
        def solved(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(cli, "solve_loop", solved)
        cfg = write(tmp_path / "s.ini", CIRCULAR_CONFIG + "\n[sweep]\ng0 = 0.1 -0.1\nr0 = 0 -1\n")
        assert cli.main(["sweep", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == ["sweep.g0", "sweep.r0"]

    def test_single_point_matches_phases(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.ini", CIRCULAR_CONFIG + "\n[sweep]\ng0 = 0.1\n")
        assert cli.main(["sweep", "--config", cfg]) == 0
        _, sweep_rows = read_csv(capsys.readouterr().out)
        assert cli.main(["phases", "--config", cfg]) == 0
        _, phase_rows = read_csv(capsys.readouterr().out)
        assert sweep_rows[0]["gamma_total"] == phase_rows[0]["gamma_total"]


class TestOutputPlumbing:
    def test_deterministic_files(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["phases", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["phases", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir))
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        assert cli.main(["phases", "--config", str(cfg), "--out", "run.csv"]) == 0
        assert (outdir / "run.csv").exists()

    def test_output_section_respected(self, tmp_path, capsys):
        target = tmp_path / "fromcfg.json"
        cfg = write(
            tmp_path / "c.ini",
            CIRCULAR_CONFIG + f"\n[output]\npath = {target}\nformat = json\n",
        )
        assert cli.main(["phases", "--config", cfg]) == 0
        payload = json.loads(target.read_text())
        assert payload["rows"][0]["branch"] == "++"


class TestSampledConfig:
    def test_sampled_pulse_round_trip(self, tmp_path, capsys):
        # three-point triangle drive; closure is not expected, only parsing
        cfg = write(
            tmp_path / "s.ini",
            "[pulse]\nshape = sampled\ndt = 0.5\nvalues = 0+0j 0.1+0.1j 0+0j\n\n"
            "[run]\nn_steps = 1000\n",
        )
        assert cli.main(["phases", "--config", cfg, "--allow-open"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0]["closure_residual"]) > 0
        parsed = load_config(cfg).pulse
        assert parsed.T == 1.0
        assert parsed.g(0.25) == pytest.approx(0.05 + 0.05j)


class TestRamanSection:
    RAMAN = """\
[pulse]
shape = circular
nu = 0.2

[raman]
omega_p = 101.0
omega_s = 100.0
omega_g = 51.0
omega_c = 50.0
omega_0 = 1.0
rabi_p = 2.0
rabi_s = 1.0
rabi_g = 0.5
kappa_e = 1.0
delta_1 = -10.0
delta_2 = 5.0

[run]
n_steps = 65536
"""

    def test_derives_pulse_defaults(self, tmp_path):
        cfg = write(tmp_path / "r.ini", self.RAMAN)
        pulse = load_config(cfg).pulse
        # r = -(2*1)/(-10) = 0.2, g = -(0.5*1)/5 = -0.1 -> g0 = 0.1, phase0 = pi
        assert pulse.r0 == pytest.approx(0.2)
        assert pulse.g_shape.g0 == pytest.approx(0.1)
        assert pulse.g_shape.phase0 == pytest.approx(math.pi)

    def test_negative_derived_r_is_diagnosed(self, tmp_path, capsys):
        cfg = write(tmp_path / "r.ini", self.RAMAN.replace("delta_1 = -10.0", "delta_1 = 10.0"))
        assert cli.main(["phases", "--config", cfg]) == 1
        assert "negative" in capsys.readouterr().err

    def test_off_resonance_is_diagnosed(self, tmp_path, capsys):
        cfg = write(tmp_path / "r.ini", self.RAMAN.replace("omega_p = 101.0", "omega_p = 102.0"))
        assert cli.main(["phases", "--config", cfg]) == 1
        assert "resonance" in capsys.readouterr().err


GOLDEN_CONFIGS = {
    # the README's example drives, each closed so every subcommand accepts it
    "circular": "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nphase0 = 0\nr0 = 0\nloops = 1\n\n"
    "[space]\ndim = 32\n\n[run]\nmethod = analytic\nn_steps = 100000\n\n[sweep]\ng0 = 0.05 0.1 0.2\n",
    "piecewise": "[pulse]\nshape = piecewise\nsegments = 1.0 0.1+0j; 0.5 -0.2+0.1j; 1.0 -0.05j\n\n"
    "[sweep]\nr0 = 0 0.5 1\n",
    "sampled": "[pulse]\nshape = sampled\ndt = 0.5\nvalues = 0.1+0j 0.1j -0.1+0j -0.1j 0.1+0j\n\n"
    "[sweep]\nr0 = 0 0.5 1\n",
    # validate's scans are replaced by FIXED_REPORTS, so these cases check its writer alone
    "rwa": "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[scan]\nkind = rwa\nr0_values = 1 5 25\n",
    "truncation": "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[scan]\nkind = truncation\ndims = 8 12 16\n",
}

FIXED_REPORTS = {
    "rwa": ValidationReport(
        rows=(
            ScanRow(1.0, 0.005118980564551234, 0.007001633439551, 0.12700413454812),
            ScanRow(5.0, 2.0061341056712e-4, 2.6927468345e-4, 0.0238201850141),
            ScanRow(25.0, 8.005931575131e-6, 1.0763614522417e-5, 0.004718129350251),
        ),
        monotone_flag=True,
        kind="rwa",
    ),
    "truncation": ValidationReport(
        rows=(
            ScanRow(8.0, 0.0, 3.1e-17, 0.0),
            ScanRow(12.0, 1.2345678901234e-9, 0.0, 2.5e-10),
            ScanRow(16.0, 3e-15, 1 / 3, 1e-16),
        ),
        monotone_flag=True,
        kind="truncation",
    ),
}

# Outputs recorded before the per-branch phase functions were folded into one
# loop solution (validate: before its CSV and JSON branches became the shared
# row writer); the README promises byte-identical files, so these never get
# re-recorded to absorb a numerical change.
GOLDEN_OUTPUTS = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN_OUTPUTS))
def test_outputs_byte_identical_to_recorded(tmp_path, capsys, monkeypatch, key):
    command, drive, fmt = key.split("-")
    monkeypatch.setattr(cli, "rwa_error_scan", lambda *a, **k: FIXED_REPORTS["rwa"])
    monkeypatch.setattr(cli, "truncation_scan", lambda *a, **k: FIXED_REPORTS["truncation"])
    cfg = write(tmp_path / "g.ini", GOLDEN_CONFIGS[drive])
    assert cli.main([command, "--config", cfg, "--format", fmt]) == 0
    assert capsys.readouterr().out == GOLDEN_OUTPUTS[key]


_FUZZ_KEYS = (
    "shape", "g0", "nu", "phase0", "r0", "T", "loops", "segments", "dt", "values", "omega_p", "rabi_g",
    "dim", "method", "n_steps", "closure_tol", "path", "format", "kind", "r0_values", "dims", "max_points", "typo",
)
_FUZZ_VALUES = (
    "", "%", "a%b.csv", " ; ", "1 ; 2", "nan", "1e400", "2**3", "garbage", "1\n[broken", "0", "1", "-1", "0.1",
    "pi/2", "1e-300", "1e300", "1e308", "0.1+0.2j", "circular", "piecewise", "sampled", "0.05 0.1", "json", "analytic",
    "1.0 0.1+0j ; 0.5 -0.2+0.1j; 1.0 -0.05j", "0.1+0j 0.1j -0.1+0j -0.1j 0.1+0j",
)


def fuzzed_config(base: str, entries) -> str:
    """A config with entries set, added or replaced on the base text."""
    sections: dict[str, dict[str, str]] = {}
    for line in base.splitlines():
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), {})
        elif "=" in line:
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    for section, key, value in entries:
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items()) for name, body in sections.items()
    )


FUZZ_ENTRIES = st.lists(
    st.tuples(
        st.sampled_from(["pulse", "raman", "space", "run", "output", "scan", "sweep", "extra"]),
        st.sampled_from(_FUZZ_KEYS),
        st.sampled_from(_FUZZ_VALUES),
    ),
    max_size=6,
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    base=st.sampled_from(["circular", "piecewise", "sampled"]),
    entries=FUZZ_ENTRIES,
    command=st.sampled_from(["phases", "sweep"]),
)
def test_fuzzed_configs_end_in_a_documented_exit_code(tmp_path, monkeypatch, capsys, base, entries, command):
    # a README drive with entries set, added or replaced; outputs land in tmp_path
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    cfg = write(tmp_path / "f.ini", fuzzed_config(GOLDEN_CONFIGS[base], entries))
    try:
        load_config(cfg)
    except ConfigError:
        pass
    assert cli.main([command, "--config", cfg, "--steps", "64"]) in (0, 1, 2, 3)
    capsys.readouterr()


NUMERIC_FUZZ_PULSE = "[pulse]\nshape = circular\ng0 = 0.2\nnu = 1\nr0 = 4\n\n"

# cheap numeric bases, each exit 0 as written: dim <= 8 and about 300 steps
NUMERIC_FUZZ_BASES = {
    "numeric_rwa": ["gate", "[space]\ndim = 8\n\n[run]\nmethod = numeric_rwa\ndt = 0.02\n"],
    "numeric_rotating": ["gate", "[space]\ndim = 6\n\n[run]\nmethod = numeric_rotating\ndt = 0.02\n"],
    "rwa": ["validate", "[scan]\nkind = rwa\nr0_values = 2 4\ndt = 0.02\ndim = 6\n"],
    "truncation": ["validate", "[scan]\nkind = truncation\ndims = 6 8\ndt = 0.02\n"],
}


# only the entries these commands read, so that most examples get past the config
NUMERIC_FUZZ_ENTRIES = st.lists(
    st.tuples(
        st.sampled_from(["pulse", "space", "run", "scan"]),
        st.sampled_from(["g0", "nu", "phase0", "r0", "T", "loops", "dt", "dim", "dims", "r0_values", "method", "kind"]),
        st.sampled_from(_FUZZ_VALUES + ("numeric_rwa", "numeric_rotating", "rwa", "truncation", "4 8", "1 2")),
    ),
    max_size=3,
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(sorted(NUMERIC_FUZZ_BASES)), entries=NUMERIC_FUZZ_ENTRIES)
def test_fuzzed_numeric_configs_end_in_a_documented_exit_code(tmp_path, monkeypatch, capsys, base, entries):
    # a small circle (gamma = 0.08 pi) on each numeric path; no input may warn or raise
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    command, tail = NUMERIC_FUZZ_BASES[base]
    text = NUMERIC_FUZZ_PULSE + tail
    cfg = write(tmp_path / "f.ini", fuzzed_config(text, entries))
    assert cli.main([command, "--config", cfg]) in (0, 1, 2, 3)
    capsys.readouterr()


def test_import_loads_no_scipy():
    # scipy brings its own BLAS thread pool and most of the start-up time
    src = os.path.dirname(os.path.dirname(loopgate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, loopgate, loopgate.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
