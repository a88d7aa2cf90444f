"""Command-line front-end.

Subcommands: phases, gate, design, validate, sweep. Outputs are CSV (primary,
headers always written) or JSON mirrors of the same data, formatted at 12
significant digits so identical configs produce byte-identical files.

Settings flags (--out, --format, --steps, --dt, --dim) override one config
entry each and are checked by load_config like the file's own entries.

Exit codes: 0 success, 1 configuration error (usage errors and unwritable
outputs included), 2 physics/precondition guard, 3 validation regression.
"""

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

from .config import RunConfig, _sweep_pulse, load_config, parse_int, parse_real
from .errors import ConfigError, OpenLoopError, SimulationGuard, TrivialTargetWarning
from .fock import FockSpace
from .gate import design_circular_pulse, gate_matrix
from .model import BRANCHES
from .phase import solve_loop
from .validate import rwa_error_scan, truncation_scan

OUT_DIR_ENV = "LOOPGATE_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_REGRESSION = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_ready(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(path: str | None, text: str) -> None:
    path = _resolve_out(path)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _emit_rows(cfg: RunConfig, rows: list[dict], payload: dict | None = None) -> None:
    """CSV with one column per row key, in insertion order, or the JSON payload.

    The payload defaults to {"rows": rows}.
    """
    if cfg.out_format == "csv":
        header = list(rows[0])
        lines = [",".join(header), *(",".join(_fmt(row[key]) for key in header) for row in rows)]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"rows": rows} if payload is None else payload
        text = json.dumps(_json_ready(payload), indent=2) + "\n"
    _emit(cfg.out_path, text)


def cmd_phases(args) -> int:
    cfg = load_config(args.config, args.overrides)
    solution = solve_loop(cfg.pulse, cfg.n_steps, require_closed=not args.allow_open)
    rows = []
    for branch in BRANCHES:
        breakdown = solution.breakdown(branch)
        try:
            area = solution.area(branch)
        except OpenLoopError:
            area = None
        rows.append(
            {
                "branch": branch,
                "gamma_g": breakdown.gamma_g,
                "gamma_d": breakdown.gamma_d,
                "gamma_total": breakdown.gamma_total,
                "closure_residual": solution.closure_residual(branch),
                "enclosed_area": area,
            }
        )
    _emit_rows(cfg, rows)
    return EXIT_OK


def cmd_gate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    report = gate_matrix(cfg.pulse, FockSpace(cfg.dim), method=cfg.method, dt=cfg.dt, n_steps=cfg.n_steps)
    summary = {
        "method": report.method,
        "extracted_gamma": report.extracted_gamma,
        "closure_residual": report.closure_residual,
        "diagonality_residual": report.diagonality_residual,
        "fidelity": report.fidelity,
        "nontrivial": report.nontrivial,
    }
    row = dict(summary)
    for i, j in itertools.product(range(4), repeat=2):
        row[f"m{i}{j}_re"] = report.matrix[i, j].real
        row[f"m{i}{j}_im"] = report.matrix[i, j].imag
    matrix = {"matrix_re": report.matrix.real.tolist(), "matrix_im": report.matrix.imag.tolist()}
    _emit_rows(cfg, [row], {**summary, **matrix})
    return EXIT_OK


def _pulse_config_text(pulse, loops: int) -> str:
    shape = pulse.g_shape
    lines = [
        "[pulse]",
        "shape = circular",
        f"g0 = {shape.g0!r}",
        f"nu = {shape.nu!r}",
        f"phase0 = {shape.phase0!r}",
        f"r0 = {pulse.r0!r}",
        f"T = {pulse.T!r}",
        f"loops = {loops}",
    ]
    return "\n".join(lines) + "\n"


def cmd_design(args) -> int:
    kwargs, errors = {}, []
    # every argument is parsed, so each bad one is reported under its own name
    for label, parse in (("target", parse_real), ("--g0", parse_real), ("--T", parse_real), ("--loops", parse_int)):
        name = label.lstrip("-")
        text = getattr(args, name)
        if text is not None:
            try:
                kwargs[name] = parse(text)
            except ValueError as exc:
                errors.append(f"{label}: {exc}")
    if errors:
        raise ConfigError(errors)
    target = kwargs.pop("target")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TrivialTargetWarning)
        pulse = design_circular_pulse(target, **kwargs)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    _emit(args.out, _pulse_config_text(pulse, kwargs.get("loops", 1)))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if cfg.scan is None:
        raise ConfigError("scan: section is required for the validate command")
    if cfg.scan.kind == "rwa":
        report = rwa_error_scan(cfg.pulse, cfg.scan.values, FockSpace(cfg.scan.dim), cfg.scan.dt)
        parameter = "r0"
    else:
        report = truncation_scan(cfg.pulse, cfg.scan.values, cfg.scan.dt)
        parameter = "dim"
    records = [asdict(row) for row in report.rows]
    # the CSV names the parameter column after the scanned quantity
    rows = [
        {parameter if key == "parameter_value" else key: value for key, value in record.items()}
        for record in records
    ]
    _emit_rows(cfg, rows, {"kind": report.kind, "monotone": report.monotone_flag, "rows": records})
    return EXIT_OK if report.monotone_flag else EXIT_REGRESSION


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if cfg.sweep is None:
        raise ConfigError("sweep: section is required for the sweep command")
    fields = list(cfg.sweep.fields)
    if not fields:
        raise ConfigError("sweep: at least one swept field is required")
    grids = [cfg.sweep.fields[name] for name in fields]
    total = math.prod(len(g) for g in grids)
    if total > cfg.sweep.max_points:
        raise ConfigError(
            f"sweep: grid has {total} points, above max_points = {cfg.sweep.max_points}"
        )
    rows = []
    for combo in itertools.product(*grids):
        pulse = cfg.pulse
        for name, value in zip(fields, combo):
            pulse = _sweep_pulse(pulse, name, value)
        solution = solve_loop(pulse, cfg.n_steps, require_closed=False)
        breakdown = solution.breakdown("++")
        rows.append(
            {
                **{name: value for name, value in zip(fields, combo)},
                "gamma_g": breakdown.gamma_g,
                "gamma_d": breakdown.gamma_d,
                "gamma_total": breakdown.gamma_total,
                "closure_residual": solution.closure_residual("++"),
            }
        )
    _emit_rows(cfg, rows)
    return EXIT_OK


# settings flags: each overrides one config entry, and a subcommand takes only those it reads
_SETTINGS_FLAGS = {
    "--out": ("output", "path", "output path (relative paths resolve against $LOOPGATE_OUT_DIR)"),
    "--format": ("output", "format", "output format"),
    "--steps": ("run", "n_steps", "analytic phase-engine step count"),
    "--dt": ("run", "dt", "numeric-method propagation step"),
    "--dim": ("space", "dim", "Fock dimension"),
}


class _Override(argparse.Action):
    """Collects a settings flag as a (section, key, raw_text) override for load_config."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.overrides = [*namespace.overrides, (*self.const, values)]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed command line is a configuration error (exit 1), not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopgate",
        description="Phase-space-loop two-qubit phase gates: phases, gates, pulse design, validation scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        for flag in ("--out", "--format", *flags):
            section, key, meaning = _SETTINGS_FLAGS[flag]
            p.add_argument(
                flag, action=_Override, const=(section, key), help=f"{meaning}; overrides {section}.{key}"
            )
        p.set_defaults(func=func, overrides=[])
        return p

    p_phases = add_command(
        "phases", cmd_phases, "per-branch phase breakdown of one drive cycle", "--steps"
    )
    p_phases.add_argument(
        "--allow-open",
        action="store_true",
        help="report open-loop residuals instead of failing on non-cyclic drives",
    )
    add_command("gate", cmd_gate, "build and grade the two-qubit gate", "--dt", "--dim", "--steps")

    p_design = sub.add_parser("design", help="solve a circular drive for a target phase")
    p_design.add_argument("target", help='target phase, e.g. "pi/2"')
    p_design.add_argument("--g0", help="fix the drive magnitude")
    p_design.add_argument("--T", help="fix the cycle duration")
    p_design.add_argument("--loops", help="number of phase-space loops (default 1)")
    p_design.add_argument("--out", help="write the pulse section here instead of stdout")
    p_design.set_defaults(func=cmd_design)

    add_command("validate", cmd_validate, "run a configured physics validation scan")
    add_command("sweep", cmd_sweep, "grid sweep of pulse parameters", "--steps")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
