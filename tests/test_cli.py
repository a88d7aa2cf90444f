import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loopgate
from loopgate import Circular, cli, phase, validate
from loopgate.config import load_config, parse_scalar
from loopgate.errors import ConfigError
from loopgate.evolve import MAX_SAMPLES
from loopgate.fock import MAX_DIM
from loopgate.validate import MAX_SCAN_SIZE, ScanRow, ValidationReport
from conftest import bits

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


# the README sampled drive: the one drive shape whose numeric gates dt steps
SAMPLED_CONFIG = "[pulse]\nshape = sampled\ndt = 0.5\nvalues = 0.1+0j 0.1j -0.1+0j -0.1j 0.1+0j\n\n[run]\n"

# a valid circular pulse followed by an open [scan] section
SCAN_PULSE = "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[scan]\n"

RAMAN_CONFIG = """\
[pulse]
shape = circular
nu = 0.2

[raman]
rabi_p = 2.0
rabi_s = 1.0
rabi_g = 0.5
kappa_e = 1.0
delta_1 = -10.0
delta_2 = 5.0

[run]
n_steps = 65536
"""


NU_ZERO = "pulse.nu: must be finite and nonzero, got 0.0"
G0_NEGATIVE = "pulse.g0: must be finite and > 0, got -1.0"
R0_NEGATIVE = "pulse.r0: must be finite and >= 0, got -1.0"


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
                ["pulse.dt: must be finite and > 0, got -0.5"],
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
                ["sweep.g0: a piecewise pulse has no g0 field", "sweep.max_points: must be >= 1"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\n\n[sweep]\ng0 = 0.1 -0.1\nr0 = 0 -1\n",
                [
                    "sweep.g0: must be finite and > 0, got -0.1",
                    "sweep.r0: must be finite and >= 0, got -1.0",
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
            # loops is checked whether or not T is given
            ("[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nloops = 0\n", ["pulse.loops: must be >= 1"]),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nloops = 0\nT = 31.41592653589793\n",
                ["pulse.loops: must be >= 1"],
            ),
            # nu is checked whether or not T is given
            ("[pulse]\nshape = circular\ng0 = 0.1\nnu = 0\n", [NU_ZERO]),
            ("[pulse]\nshape = circular\ng0 = 0.1\nnu = 0\nT = 31.41592653589793\n", [NU_ZERO]),
            # g0 is checked under its own key, next to nu
            ("[pulse]\nshape = circular\ng0 = -1\nnu = 0.2\n", [G0_NEGATIVE]),
            ("[pulse]\nshape = circular\ng0 = -1\nnu = 0\n", [G0_NEGATIVE, NU_ZERO]),
            # [raman] takes no channel frequencies: the effective couplings assume two-photon resonance
            *(
                (RAMAN_CONFIG.replace("[raman]\n", f"[raman]\n{key} = 1.0\n"), [f"raman.{key}: unknown key"])
                for key in ("omega_p", "omega_s", "omega_g", "omega_c", "omega_0")
            ),
            (
                RAMAN_CONFIG.replace("rabi_p = 2.0", "rabi_p = 2.0j"),
                [
                    "raman: derived classical coupling r is not real; "
                    "gate operation requires a real constant classical drive"
                ],
            ),
            # a derived g0 that overflows is reported under pulse.g0, and its nan phase under pulse.phase0
            (
                RAMAN_CONFIG.replace("rabi_g = 0.5", "rabi_g = 1e200")
                .replace("kappa_e = 1.0", "kappa_e = 1e200")
                .replace("delta_2 = 5.0", "delta_2 = 1e-100"),
                ["pulse.g0: must be finite and > 0, got inf", "pulse.phase0: must be finite, got nan"],
            ),
            # couplings whose modulus is past double precision: an inf g0, and an r that is not real
            (
                RAMAN_CONFIG.replace("rabi_g = 0.5", "rabi_g = 1.2e154+1.2e154j")
                .replace("kappa_e = 1.0", "kappa_e = 1.2e154")
                .replace("delta_2 = 5.0", "delta_2 = -1"),
                ["pulse.g0: must be finite and > 0, got inf"],
            ),
            (
                RAMAN_CONFIG.replace("rabi_p = 2.0", "rabi_p = 1.2e154+1.2e154j")
                .replace("rabi_s = 1.0", "rabi_s = 1.2e154")
                .replace("delta_1 = -10.0", "delta_1 = -1"),
                [
                    "raman: derived classical coupling r is not real; "
                    "gate operation requires a real constant classical drive"
                ],
            ),
            # a [raman] section that fails derives nothing, and no pulse.g0 is then asked for
            (
                RAMAN_CONFIG.replace("delta_1 = -10.0", "delta_1 = 0").replace("delta_2 = 5.0", "delta_2 = 0"),
                [f"raman.{key}: must be finite and nonzero, got 0.0" for key in ("delta_1", "delta_2")],
            ),
            # one line per key, however many of its checks fail
            (SCAN_PULSE + "kind = truncation\ndims = 2 1\n", ["scan.dims: must be strictly ascending"]),
            # a key that fails to parse hides no other key's check
            (
                "[pulse]\nshape = circular\ng0 = abc\nnu = 0.2\nloops = 0\n",
                ["pulse.g0: invalid numeric expression 'abc'", "pulse.loops: must be >= 1"],
            ),
            (
                "[pulse]\nshape = sampled\ndt = 0\nvalues = 0.1\n",
                ["pulse.dt: must be finite and > 0, got 0.0", "pulse.values: must hold at least two samples"],
            ),
            (
                "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nT = -1\nr0 = -1\n",
                ["pulse.T: must be finite and > 0, got -1.0", R0_NEGATIVE],
            ),
            # a joint check runs once the fields it reads have passed, whatever else failed
            (
                "[pulse]\nshape = piecewise\nsegments = 1 0.1; 0.5 -0.1\nT = 1.6\nr0 = -1\n",
                ["pulse.T: must equal the duration 1.5 its shape covers, got 1.6", R0_NEGATIVE],
            ),
            (
                "[pulse]\nshape = sampled\ndt = 1e308\nvalues = 0.1 0.1j -0.1\nr0 = -1\n",
                ["pulse.values: must span a finite duration, got 2 x 1e+308", R0_NEGATIVE],
            ),
            # swept values are judged even when the pulse fails
            (
                "[pulse]\nshape = circular\ng0 = abc\nnu = 0.2\n\n[sweep]\nr0 = -1\ng0 = 0\n",
                [
                    "pulse.g0: invalid numeric expression 'abc'",
                    "sweep.r0: must be finite and >= 0, got -1.0",
                    "sweep.g0: must be finite and > 0, got 0.0",
                ],
            ),
            (
                "[pulse]\nshape = piecewise\nsegments = 1 0.1; 0.5 -0.1\nr0 = -1\n\n[sweep]\nT = 1.5 1.6\n",
                [R0_NEGATIVE, "sweep.T: must equal the duration 1.5 its shape covers, got 1.6"],
            ),
            # the sweep grid's own rules are reported with the other errors
            (
                CIRCULAR_CONFIG + "\n[space]\ndim = 1\n\n[sweep]\nmax_points = 2\ng0 = 0.05 0.1 0.2\n",
                ["space.dim: must be >= 2", "sweep: grid has 3 points, above max_points = 2"],
            ),
            (
                CIRCULAR_CONFIG.replace("n_steps = 65536", "n_steps = 1") + "\n[sweep]\nmax_points = 10\n",
                ["run.n_steps: must be >= 2", "sweep: at least one swept field is required"],
            ),
        ],
        ids=[
            "sampled-dt", "sampled-dt-and-values", "scan-dims", "scan-r0-values", "circular-g0", "sweep-fields",
            "sweep-shape-field", "sweep-values", "scan-dims-floor", "rwa-scan-dims", "truncation-scan-r0-values",
            "truncation-scan-dim", "no-pulse", "loops", "loops-with-T", "nu-zero", "nu-zero-with-T", "g0-negative",
            "g0-and-nu", "raman-omega_p", "raman-omega_s", "raman-omega_g", "raman-omega_c", "raman-omega_0",
            "raman-complex-r", "raman-overflow", "raman-modulus-g", "raman-modulus-r", "raman-detunings",
            "scan-dims-once", "g0-unparsed-and-loops", "sampled-dt-and-one-sample", "T-and-r0", "duration-and-r0",
            "sampled-span-and-r0", "sweep-after-failed-pulse", "sweep-duration-after-failed-pulse",
            "sweep-grid-and-dim", "sweep-no-field-and-n-steps",
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
            for key in ("rabi_p", "rabi_s", "rabi_g", "kappa_e", "delta_1", "delta_2")
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
    def test_value_error_from_the_engine_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise ValueError("x")

        monkeypatch.setattr(phase, "solve_loop", refused)
        cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
        assert cli.main(["phases", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", "config error: x\n")

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
    "g0,message",
    [("1e200", "too strong for double precision"), ("1e4", "; enlarge the Fock space\n")],
    ids=["1e200", "1e4"],
)
def test_overdriven_numeric_gate_is_refused_before_stepping(tmp_path, capsys, method, g0, message):
    # 1e200 squares past the float range and is refused before stepping; 1e4 is finite, so
    # the circle is propagated as one piece of about 23 squarings, and the cavity, far
    # outside dim 4, misses the vacuum. dt acts on no circle, so the advice names none
    text = CIRCULAR_CONFIG.replace("g0 = 0.1", f"g0 = {g0}").replace("r0 = 0", "r0 = 10")
    text = text.replace("[run]", f"[run]\nmethod = {method}") + "\n[space]\ndim = 4\n"
    cfg = write(tmp_path / "o.ini", text)
    assert cli.main(["gate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,pulse,count",
    [
        (["phases", "--steps", "10000000000000"], CIRCULAR_CONFIG, "10000000000001 trajectory samples"),
        # dt sets the steps of a sampled drive alone
        (["gate", "--dt", "1e-12", "--dim", "4"], SAMPLED_CONFIG, "2e+12 steps"),
    ],
    ids=["phases-steps", "gate-dt"],
)
def test_step_counts_past_the_limit_are_refused_before_allocating(tmp_path, capsys, argv, pulse, count):
    text = pulse.replace("[run]", "[run]\nmethod = numeric_rwa")
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
        ("phases", "g0 = 0.2\nnu = 1\nloops = 1e308\n", 1, "config error: pulse.T: must be finite and > 0, got inf"),
        ("gate", "g0 = 0.2\nnu = 1\nr0 = 1e308\n\n[run]\nmethod = numeric_rwa\ndt = 0.02\n", 0, ""),
        (
            "gate",
            "g0 = 0.2\nnu = 1\nr0 = 1e308\n\n[run]\nmethod = numeric_rotating\ndt = 0.02\n",
            2,
            "error: drive too strong for double precision: step generator norm nan",
        ),
        (
            "gate",
            "shape = sampled\ndt = 0.5\nvalues = 0.1 0.1j -0.1 -0.1j 0.1\nr0 = 1e300\n\n"
            "[run]\nmethod = numeric_rotating\ndt = 0.02\n",
            2,
            "error: dt * max(r0) = 2e+298 >= 0.1",
        ),
        ("sweep", "shape = sampled\ndt = 1e308\nvalues = 0.1 0.1j -0.1\n", 1, "config error: pulse.values: "),
        ("sweep", "shape = piecewise\nsegments = 1e308 0.1; 1e308 -0.1\n", 1, "config error: pulse.segments: "),
    ],
    ids=["loops", "r0-rwa", "r0-rotating", "r0-rotating-unresolved", "sampled-duration", "piecewise-duration"],
)
def test_values_near_the_float_limit_end_in_a_documented_exit_code(tmp_path, capsys, command, pulse, code, message):
    # found by the fuzz tests: an int overflow in the cycle time, a rotating-tier circle whose rest
    # frame turns past double precision, sampled-drive steps far too coarse for the fast 2*r0
    # oscillation, and drive durations that overflow while their grid is built
    cfg = write(tmp_path / "f.ini", "[space]\ndim = 6\n\n[sweep]\nr0 = 0\n\n[pulse]\n" + pulse)
    assert cli.main([command, "--config", cfg]) == code
    assert capsys.readouterr().err.startswith(message)


def test_oversized_rwa_scan_is_refused_before_the_first_gate(tmp_path, capsys):
    # 100 r0 values at dim 512 would step 100 rotating-tier gates of 1536 rows each
    r0_values = " ".join(str(r0) for r0 in range(1, 101))
    text = CIRCULAR_CONFIG + f"\n[scan]\nkind = rwa\nr0_values = {r0_values}\ndt = 0.0005\ndim = 512\n"
    cfg = write(tmp_path / "v.ini", text)
    assert cli.main(["validate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: 100 r0 values at dim 512: n_r0 * max(dim, 8)^2 = 26214400, "
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
        # dt * r0 = 0.2 on a sampled drive; a circle takes no step for the guard to judge
        scan = "[scan]\nkind = rwa\nr0_values = 2 40\ndt = 0.005\ndim = 4\n"
        cfg = write(tmp_path / "v.ini", SAMPLED_CONFIG.replace("[run]\n", scan))
        assert cli.main(["validate", "--config", cfg]) == 2
        circle = "[pulse]\nshape = circular\ng0 = 0.1\nnu = 1.0\nloops = 1\n\n"
        cfg = write(tmp_path / "c.ini", circle + scan)
        assert cli.main(["validate", "--config", cfg]) == 0

    def test_regression_exit_code(self, tmp_path, capsys, monkeypatch):
        fake = ValidationReport(
            rows=(ScanRow(1.0, 1e-4, 0.0, 0.0), ScanRow(2.0, 5e-4, 0.0, 0.0)),
            monotone_flag=False,
            kind="rwa",
        )
        monkeypatch.setattr(validate, "rwa_error_scan", lambda *a, **k: fake)
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
        assert capsys.readouterr().err == "config error: sweep: grid has 3 points, above max_points = 2\n"

    def test_points_set_each_field_on_its_owner_in_row_order(self, tmp_path):
        cfg = load_config(write(tmp_path / "s.ini", CIRCULAR_CONFIG + "\n[sweep]\ng0 = 0.05 0.1\nr0 = 0 2\n"))
        points = list(cfg.sweep.points(cfg.pulse))
        expected = [(g0, r0) for g0 in (0.05, 0.1) for r0 in (0.0, 2.0)]
        assert [values for values, _ in points] == [{"g0": g0, "r0": r0} for g0, r0 in expected]
        assert [(pulse.g_shape, pulse.r0) for _, pulse in points] == [
            (replace(cfg.pulse.g_shape, g0=g0), r0) for g0, r0 in expected
        ]
        # a sweep of pulse fields alone builds no new shape
        cfg = load_config(write(tmp_path / "r.ini", CIRCULAR_CONFIG + "\n[sweep]\nr0 = 0 2\n"))
        assert all(pulse.g_shape is cfg.pulse.g_shape for _, pulse in cfg.sweep.points(cfg.pulse))

    def test_bad_values_are_refused_before_any_grid_point(self, tmp_path, capsys, monkeypatch):
        def solved(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(phase, "solve_loop", solved)
        cfg = write(tmp_path / "s.ini", CIRCULAR_CONFIG + "\n[sweep]\ng0 = 0.1 -0.1\nr0 = 0 -1\n")
        assert cli.main(["sweep", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == ["sweep.g0", "sweep.r0"]

    @staticmethod
    def swept(monkeypatch, cfg):
        """The rows a sweep emits, as computed: no formatting."""
        rows = []
        monkeypatch.setattr(cli, "_emit_rows", lambda run_config, emitted, payload=None: rows.extend(emitted))
        assert cli.main(["sweep", "--config", cfg]) == 0
        return rows

    @staticmethod
    def assert_rows_match_point_solves(monkeypatch, cfg, rows):
        """Each row has the bits of a solve of its own point, with nothing left over from another point."""
        run_config = load_config(cfg)
        points = list(run_config.sweep.points(run_config.pulse))
        assert len(points) == len(rows)
        for row, (values, pulse) in zip(rows, points):
            assert values == {name: row[name] for name in values}
            monkeypatch.setattr(phase, "_last_phasor", (None, None))
            solution = phase.solve_loop(pulse, run_config.n_steps, require_closed=False)
            breakdown = solution.breakdown("++")
            solved = (breakdown.gamma_g, breakdown.gamma_d, breakdown.gamma_total, solution.closure_residual("++"))
            swept = tuple(row[key] for key in ("gamma_g", "gamma_d", "gamma_total", "closure_residual"))
            assert [bits(value) for value in swept] == [bits(value) for value in solved]

    def test_g0_points_share_one_phasor(self, tmp_path, monkeypatch):
        calls = []
        phasor = Circular.phasor

        def counted(self, t):
            calls.append(np.shape(t))
            return phasor(self, t)

        g0_values = " ".join(repr(0.05 + 0.01 * k) for k in range(12))
        cfg = write(tmp_path / "s.ini", CIRCULAR_CONFIG + f"\n[sweep]\ng0 = {g0_values}\n")
        monkeypatch.setattr(Circular, "phasor", counted)
        monkeypatch.setattr(phase, "_last_phasor", (None, None))
        rows = self.swept(monkeypatch, cfg)
        assert calls == [(65537,)]
        assert len(rows) == 12
        self.assert_rows_match_point_solves(monkeypatch, cfg, rows)

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
    # the README's piecewise and sampled drives, in place of the circular [pulse] lines
    OTHER_SHAPES = {
        "piecewise": "shape = piecewise\nsegments = 1.0 0.1+0j; 0.5 -0.2+0.1j; 1.0 -0.05j\n",
        "sampled": "shape = sampled\ndt = 0.5\nvalues = 0.1+0j 0.1j -0.1+0j -0.1j 0.1+0j\n",
    }

    def test_derives_pulse_defaults(self, tmp_path):
        cfg = write(tmp_path / "r.ini", RAMAN_CONFIG)
        pulse = load_config(cfg).pulse
        # r = -(2*1)/(-10) = 0.2, g = -(0.5*1)/5 = -0.1 -> g0 = 0.1, phase0 = pi
        assert pulse.r0 == pytest.approx(0.2)
        assert pulse.g_shape.g0 == pytest.approx(0.1)
        assert pulse.g_shape.phase0 == pytest.approx(math.pi)
        # a piecewise or sampled drive takes r0 from the couplings and keeps its own g(t)
        for name, lines in self.OTHER_SHAPES.items():
            text = RAMAN_CONFIG.replace("shape = circular\nnu = 0.2\n", lines)
            pulse = load_config(write(tmp_path / f"{name}.ini", text)).pulse
            alone = load_config(write(tmp_path / f"{name}_alone.ini", f"[pulse]\n{lines}")).pulse
            assert pulse.r0 == pytest.approx(0.2)
            assert alone.r0 == 0.0
            assert pulse.g_shape == alone.g_shape
            assert pulse.T == alone.T

    def test_negative_derived_r_is_diagnosed(self, tmp_path, capsys):
        text = RAMAN_CONFIG.replace("delta_1 = -10.0", "delta_1 = 10.0")
        cfg = write(tmp_path / "r.ini", text)
        assert cli.main(["phases", "--config", cfg]) == 1
        assert "negative" in capsys.readouterr().err
        # an explicit pulse.r0 wins over the negative derived r = -0.2
        cfg = write(tmp_path / "r0.ini", text.replace("nu = 0.2\n", "nu = 0.2\nr0 = 0.3\n"))
        assert load_config(cfg).pulse.r0 == 0.3


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
# numeric gates on the README drives: the RWA tier at dim 12 and the default dt, and the
# rotating tier at r0 = 20, dim 8 and dt = 0.002; their outputs were recorded before the
# numeric gate and the full propagator shared one stepping path, and dt acts on the
# sampled drive's alone
GOLDEN_CONFIGS.update(
    {
        f"{drive}_{tier}": fuzzed_config(GOLDEN_CONFIGS[drive], entries)
        for drive in ("circular", "piecewise", "sampled")
        for tier, entries in (
            ("rwa", [("space", "dim", "12"), ("run", "method", "numeric_rwa")]),
            (
                "rotating",
                [("pulse", "r0", "20"), ("space", "dim", "8"), ("run", "method", "numeric_rotating"), ("run", "dt", "0.002")],
            ),
        )
    }
)

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
# re-recorded to absorb a numerical change. One move is the exception: when
# circles and polygons came to be propagated exactly, with no time step,
# gate-circular_rwa, gate-circular_rotating and gate-piecewise_rotating were
# re-recorded once, each checked against scipy's expm of the same pieces
# (tests/test_evolve.py::rest_frame_gate) to 2.5e-12.
GOLDEN_OUTPUTS = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN_OUTPUTS))
def test_outputs_byte_identical_to_recorded(tmp_path, capsys, monkeypatch, key):
    command, drive, fmt = key.split("-")
    monkeypatch.setattr(validate, "rwa_error_scan", lambda *a, **k: FIXED_REPORTS["rwa"])
    monkeypatch.setattr(validate, "truncation_scan", lambda *a, **k: FIXED_REPORTS["truncation"])
    cfg = write(tmp_path / "g.ini", GOLDEN_CONFIGS[drive])
    assert cli.main([command, "--config", cfg, "--format", fmt]) == 0
    assert capsys.readouterr().out == GOLDEN_OUTPUTS[key]


@pytest.mark.parametrize("method", ["numeric_rwa", "numeric_rotating"])
@pytest.mark.parametrize("drive", ["circular", "piecewise"])
def test_circle_and_polygon_gates_do_not_depend_on_dt(tmp_path, capsys, drive, method):
    # propagated exactly, one piece per segment: a dt far too coarse to step with prints the same bytes
    text = fuzzed_config(GOLDEN_CONFIGS[drive], [("pulse", "r0", "20"), ("space", "dim", "8"), ("run", "method", method)])
    cfg = write(tmp_path / "g.ini", text)
    outputs = []
    for dt in ("0.002", "0.5"):
        assert cli.main(["gate", "--config", cfg, "--dt", dt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


_FUZZ_KEYS = (
    "shape", "g0", "nu", "phase0", "r0", "T", "loops", "segments", "dt", "values", "omega_p", "rabi_g",
    "dim", "method", "n_steps", "closure_tol", "path", "format", "kind", "r0_values", "dims", "max_points", "typo",
)
_FUZZ_VALUES = (
    "", "%", "a%b.csv", " ; ", "1 ; 2", "nan", "1e400", "2**3", "garbage", "1\n[broken", "0", "1", "-1", "0.1",
    "pi/2", "1e-300", "1e300", "1e308", "0.1+0.2j", "circular", "piecewise", "sampled", "0.05 0.1", "json", "analytic",
    "1.0 0.1+0j ; 0.5 -0.2+0.1j; 1.0 -0.05j", "0.1+0j 0.1j -0.1+0j -0.1j 0.1+0j",
)


FUZZ_ENTRIES = st.lists(
    st.tuples(
        st.sampled_from(["pulse", "raman", "space", "run", "output", "scan", "sweep", "extra"]),
        st.sampled_from(_FUZZ_KEYS),
        st.sampled_from(_FUZZ_VALUES),
    ),
    max_size=6,
)


CONFIG_ERROR_LINE = re.compile(r"config error: \w+(\.\w+)?: ")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def assert_documented_outcome(code, captured):
    """A documented exit code; finite numbers on exit 0, no output on exits 1 and 2, and one key per error line."""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.err
    if code == 0:
        assert not NON_FINITE.search(captured.out)
    if code in (1, 2):
        assert captured.out == ""
    if code == 1:
        assert all(CONFIG_ERROR_LINE.match(line) for line in captured.err.splitlines())


# hypothesis's failure report trips this deprecation; ignored as the outermost mark, a failure prints its example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    base=st.sampled_from(["circular", "piecewise", "sampled"]),
    entries=FUZZ_ENTRIES,
    command=st.sampled_from(["phases", "gate", "sweep"]),
)
def test_fuzzed_configs_end_in_a_documented_exit_code(tmp_path, monkeypatch, capsys, base, entries, command):
    # a README drive with entries set, added or replaced; outputs land in tmp_path
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    cfg = write(tmp_path / "f.ini", fuzzed_config(GOLDEN_CONFIGS[base], entries))
    try:
        load_config(cfg)
    except ConfigError:
        pass
    code = cli.main([command, "--config", cfg, "--steps", "64"])
    assert_documented_outcome(code, capsys.readouterr())


NUMERIC_FUZZ_PULSES = (
    "[pulse]\nshape = circular\ng0 = 0.2\nnu = 1\nr0 = 4\n\n",
    # four chords of that circle: the one shape dt steps
    "[pulse]\nshape = sampled\ndt = 1.5707963267948966\nvalues = 0.2 0.2j -0.2 -0.2j 0.2\nr0 = 4\n\n",
)

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


# hypothesis's failure report trips this deprecation; ignored as the outermost mark, a failure prints its example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pulse=st.sampled_from(NUMERIC_FUZZ_PULSES), base=st.sampled_from(sorted(NUMERIC_FUZZ_BASES)), entries=NUMERIC_FUZZ_ENTRIES
)
def test_fuzzed_numeric_configs_end_in_a_documented_exit_code(tmp_path, monkeypatch, capsys, pulse, base, entries):
    # a small circle (gamma = 0.08 pi), or four chords of it, on each numeric path; no input may warn or raise
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    command, tail = NUMERIC_FUZZ_BASES[base]
    text = pulse + tail
    cfg = write(tmp_path / "f.ini", fuzzed_config(text, entries))
    assert_documented_outcome(cli.main([command, "--config", cfg]), capsys.readouterr())


_BAD_EVERYWHERE = [
    *(("pulse", "r0", value) for value in ("-1", "nan", "2j")),
    *(("pulse", "T", value) for value in ("-1", "0", "abc")),
    *(("sweep", key, value) for key, value in (("r0", "0 -1"), ("T", "0"), ("T", "abc"), ("g0", "0.1 0"), ("nu", "0"))),
]
_BAD_CIRCLE = [
    *(("pulse", "nu", value) for value in ("0", "abc", "2j")),
    *(("pulse", "phase0", value) for value in ("abc", "1e400")),
    *(("pulse", "loops", value) for value in ("0", "1.5", "abc")),
]

# a valid config and entries each refused on its own, none of which the others' checks read: left out
# are the T a piecewise or sampled drive must match, the overflowing loops * 2 pi / |nu| and a complex
# derived r, whose checks read several keys
UNION_BASES = {
    "circular": (GOLDEN_CONFIGS["circular"], [*_BAD_EVERYWHERE, *_BAD_CIRCLE, *(
        ("pulse", "g0", value) for value in ("-1", "0", "abc", "1e400"))]),
    "piecewise": (GOLDEN_CONFIGS["piecewise"], [*_BAD_EVERYWHERE, *(
        ("pulse", "segments", value) for value in ("1 0.1; -1 0.1", "1 0.1; 1 nan", "1e308 0.1; 1e308 0.1", "x", "")
    )]),
    "sampled": (GOLDEN_CONFIGS["sampled"], [
        *_BAD_EVERYWHERE,
        *(("pulse", "dt", value) for value in ("0", "-0.5", "abc")),
        *(("pulse", "values", value) for value in ("0.1", "0.1 garbage", "")),
    ]),
    "raman": (RAMAN_CONFIG, [
        *_BAD_EVERYWHERE,
        *_BAD_CIRCLE,
        ("pulse", "g0", "-1"),
        *(("raman", key, value) for key, value in (("delta_1", "0"), ("delta_1", "abc"), ("delta_2", "0"),
                                                  ("rabi_p", "abc"), ("kappa_e", "1e400"))),
    ]),
}


def config_errors(tmp_path, text) -> set[str]:
    try:
        load_config(write(tmp_path / "u.ini", text))
    except ConfigError as exc:
        return set(exc.messages)
    return set()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_errors_of_two_bad_keys_hold_the_errors_of_each(tmp_path, data):
    # "every violated precondition, all at once": one bad key hides no other
    text, bad = UNION_BASES[data.draw(st.sampled_from(sorted(UNION_BASES)))]
    pair = data.draw(st.lists(st.sampled_from(bad), min_size=2, max_size=2, unique_by=lambda entry: entry[:2]))
    alone = [config_errors(tmp_path, fuzzed_config(text, [entry])) for entry in pair]
    assert all(alone)
    assert config_errors(tmp_path, fuzzed_config(text, pair)) >= alone[0] | alone[1]


def run_child(args, **env):
    """A fresh interpreter on this source tree; an env entry set to None is removed."""
    src = os.path.dirname(os.path.dirname(loopgate.__file__))
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        if value is None:
            child_env.pop(key, None)
        else:
            child_env[key] = value
    return subprocess.run([sys.executable, *args], env=child_env, capture_output=True, text=True)


def test_import_loads_no_scipy():
    # scipy brings its own BLAS thread pool and most of the start-up time; the
    # package exports load lazily, so importing it and the CLI loads no numpy either
    code = "import sys, loopgate, loopgate.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    result = run_child(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def imported_modules(importtime_stderr):
    """Module names in -X importtime output; a package is listed before any of its submodules."""
    lines = [line for line in importtime_stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


DESIGN_PI_2 = "[pulse]\nshape = circular\ng0 = 0.1\nnu = 0.2\nphase0 = 0.0\nr0 = 0.0\nT = 31.41592653589793\nloops = 1\n"


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["design", "pi/2", "--g0", "0.1"], 0, DESIGN_PI_2, ""),
        (
            ["phases"],
            1,
            "",
            "usage: loopgate phases [-h] --config CONFIG [--out OUT] [--format FORMAT]\n"
            "                       [--steps STEPS] [--allow-open]\n"
            "config error: the following arguments are required: --config\n",
        ),
    ],
    ids=["design", "usage-error"],
)
def test_commands_that_compute_nothing_load_no_numpy(argv, code, out, err):
    result = run_child(["-X", "importtime", "-m", "loopgate.cli", *argv], COLUMNS="80")
    assert (result.returncode, result.stdout) == (code, out)
    messages = [line for line in result.stderr.splitlines() if not line.startswith("import time:")]
    assert messages == err.splitlines()
    modules = imported_modules(result.stderr)
    assert "loopgate" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "command,section", [("phases", ""), ("sweep", "\n[sweep]\nr0 = 0 1\n")], ids=["phases", "sweep"]
)
def test_scalar_commands_load_no_matrix_engine(tmp_path, command, section):
    cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG + section)
    result = run_child(["-X", "importtime", "-m", "loopgate.cli", command, "--config", cfg])
    assert result.returncode == 0, result.stderr
    modules = imported_modules(result.stderr)
    assert "loopgate.phase" in modules
    assert "loopgate.evolve" not in modules
    # a CSV run does not load json
    assert "json" not in modules


# the names the package exported before its exports became lazy
PUBLIC_NAMES = (
    "BRANCHES", "Circular", "ConfigError", "FockSpace", "GateReport", "HamiltonianTier", "InfeasibleConstraintError",
    "LoopSolution", "NonUnitaryResultError", "NumericPropagation", "OpenLoopError", "PhaseBreakdown",
    "PiecewiseConstant", "PulseSpec", "RamanParams", "Sampled", "ScanRow", "SimulationGuard", "StepTooCoarseError",
    "TrivialTargetWarning", "TruncationGuardError", "ValidationReport", "annihilation", "branch_lambda", "creation",
    "design_circular_pulse", "effective_couplings", "entangling_check", "gate_fidelity", "gate_matrix",
    "ideal_gate", "nontriviality", "propagate_numeric", "rwa_error_scan", "sigma_x_basis_change", "solve_loop",
    "truncation_scan", "vacuum",
)


def test_every_public_name_still_imports():
    namespace = {}
    exec(f"from loopgate import {', '.join(PUBLIC_NAMES)}", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(loopgate.__all__) <= set(dir(loopgate))


def test_modules_resolve_as_attributes_after_a_bare_import():
    names = ("model", "evolve", "fock", "gate", "phase", "validate")
    code = f"import loopgate; print([getattr(loopgate, name).__name__ for name in {names!r}])"
    result = run_child(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str([f"loopgate.{name}" for name in names])


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        loopgate.no_such_name
    assert not hasattr(loopgate, "no_such_name")


# runs loopgate.cli as -m does and reports, at exit, the thread variable and the thread count
REPORT_THREADS = """\
import atexit, os, runpy, sys

def report():
    status = open("/proc/self/status").read() if os.path.exists("/proc/self/status") else "Threads: ?"
    threads = next(line.split()[1] for line in status.splitlines() if line.startswith("Threads:"))
    print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules, threads, file=sys.stderr)

atexit.register(report)
sys.argv[1:] = ["phases", "--config", sys.argv[1]]
runpy.run_module("loopgate.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("user_value,seen", [(None, "1"), ("3", "3")], ids=["unset", "user-set"])
def test_cli_defaults_one_blas_thread(tmp_path, user_value, seen):
    cfg = write(tmp_path / "c.ini", CIRCULAR_CONFIG)
    result = run_child(["-c", REPORT_THREADS, cfg], OPENBLAS_NUM_THREADS=user_value)
    assert result.returncode == 0, result.stderr
    value, numpy_loaded, threads = result.stderr.split()
    assert (value, numpy_loaded) == (seen, "True")
    if user_value is None and sys.platform.startswith("linux"):
        assert threads == "1"


def test_library_use_leaves_the_environment_alone():
    # neither the import, a library solve nor an in-process CLI command sets a thread variable
    code = (
        "import math, os, loopgate; before = dict(os.environ); "
        "loopgate.solve_loop(loopgate.PulseSpec(loopgate.Circular(0.1, 0.2), T=10 * math.pi), 1000); "
        "from loopgate import cli; cli.main(['design', 'pi/2', '--g0', '0.1']); "
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    result = run_child(["-c", code], OPENBLAS_NUM_THREADS=None)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True False"
