"""Command-line front-end.

Subcommands: phases, gate, design, validate, sweep. Outputs are CSV (primary,
headers always written) or JSON mirrors of the same data, formatted at 12
significant digits so identical configs produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 physics/precondition guard,
3 validation regression.
"""

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import replace

from .config import RunConfig, load_config, parse_real
from .errors import ConfigError, OpenLoopError, SimulationGuard, TrivialTargetWarning
from .fock import FockSpace
from .gate import design_circular_pulse, gate_matrix
from .model import BRANCHES, Circular
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
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(_json_ready(payload), indent=2) + "\n"


def _emit_rows(cfg: RunConfig, rows: list[dict]) -> None:
    """CSV with one column per row key, in insertion order, or the JSON mirror."""
    header = list(rows[0])
    if cfg.out_format == "csv":
        _emit(cfg.out_path, _csv_text(header, [[_fmt(row[key]) for key in header] for row in rows]))
    else:
        _emit(cfg.out_path, _json_text({"rows": rows}))


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "dt", None) is not None:
        cfg.dt = args.dt
    if getattr(args, "dim", None) is not None:
        cfg.dim = args.dim
    if getattr(args, "steps", None) is not None:
        cfg.n_steps = args.steps
    if getattr(args, "out", None) is not None:
        cfg.out_path = args.out
    if getattr(args, "format", None) is not None:
        cfg.out_format = args.format
    return cfg


def cmd_phases(args) -> int:
    cfg = _load(args)
    solution = solve_loop(
        cfg.pulse, cfg.n_steps, closure_tol=cfg.closure_tol, require_closed=not args.allow_open
    )
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
    cfg = _load(args)
    report = gate_matrix(
        cfg.pulse,
        FockSpace(cfg.dim),
        method=cfg.method,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        closure_tol=cfg.closure_tol,
    )
    summary = {
        "method": report.method,
        "extracted_gamma": report.extracted_gamma,
        "closure_residual": report.closure_residual,
        "diagonality_residual": report.diagonality_residual,
        "fidelity": report.fidelity,
        "nontrivial": report.nontrivial,
    }
    if cfg.out_format == "csv":
        header = list(summary)
        row = [_fmt(v) for v in summary.values()]
        for i in range(4):
            for j in range(4):
                header.extend([f"m{i}{j}_re", f"m{i}{j}_im"])
                row.extend([_fmt(report.matrix[i, j].real), _fmt(report.matrix[i, j].imag)])
        _emit(cfg.out_path, _csv_text(header, [row]))
    else:
        payload = dict(summary)
        payload["matrix_re"] = [[report.matrix[i, j].real for j in range(4)] for i in range(4)]
        payload["matrix_im"] = [[report.matrix[i, j].imag for j in range(4)] for i in range(4)]
        _emit(cfg.out_path, _json_text(payload))
    return EXIT_OK


def _pulse_config_text(pulse) -> str:
    shape = pulse.g_shape
    if not isinstance(shape, Circular):
        raise ValueError("only circular pulses are printed in config syntax")
    loops = max(1, round(pulse.T * abs(shape.nu) / (2 * math.pi)))
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
    target = parse_real(args.target)
    kwargs = {"loops": args.loops}
    if args.g0 is not None:
        kwargs["g0"] = args.g0
    if args.T is not None:
        kwargs["T"] = args.T
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TrivialTargetWarning)
        pulse = design_circular_pulse(target, **kwargs)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    _emit(args.out, _pulse_config_text(pulse))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load(args)
    if cfg.scan is None:
        raise ConfigError("scan: section is required for the validate command")
    if cfg.scan.kind == "rwa":
        report = rwa_error_scan(
            cfg.pulse, cfg.scan.r0_values, FockSpace(cfg.scan.dim), cfg.scan.dt
        )
        parameter = "r0"
    else:
        report = truncation_scan(cfg.pulse, cfg.scan.dims, cfg.scan.dt)
        parameter = "dim"
    if cfg.out_format == "csv":
        header = [parameter, "infidelity", "diagonality_residual", "phase_error"]
        body = [
            [
                _fmt(row.parameter_value),
                _fmt(row.infidelity),
                _fmt(row.diagonality_residual),
                _fmt(row.phase_error),
            ]
            for row in report.rows
        ]
        _emit(cfg.out_path, _csv_text(header, body))
    else:
        payload = {
            "kind": report.kind,
            "monotone": report.monotone_flag,
            "rows": report.as_dicts(),
        }
        _emit(cfg.out_path, _json_text(payload))
    return EXIT_OK if report.monotone_flag else EXIT_REGRESSION


def _sweep_pulse(base, field: str, value: float):
    if field == "r0":
        return replace(base, r0=value)
    if field == "T":
        return replace(base, T=value)
    shape = base.g_shape
    if not isinstance(shape, Circular):
        raise ConfigError(f"sweep.{field}: only circular pulses expose this field")
    return replace(base, g_shape=replace(shape, **{field: value}))


def cmd_sweep(args) -> int:
    cfg = _load(args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopgate",
        description="Phase-space-loop two-qubit phase gates: phases, gates, pulse design, validation scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run configuration file")
        p.add_argument("--out", help="output path (relative paths resolve against $LOOPGATE_OUT_DIR)")
        p.add_argument("--format", choices=("csv", "json"), help="output format override")
        p.add_argument("--dt", type=float, help="numeric propagation step override")
        p.add_argument("--dim", type=int, help="Fock dimension override")
        p.add_argument("--steps", type=int, help="scalar phase-engine step count override")

    p_phases = sub.add_parser("phases", help="per-branch phase breakdown of one drive cycle")
    add_common(p_phases)
    p_phases.add_argument(
        "--allow-open",
        action="store_true",
        help="report open-loop residuals instead of failing on non-cyclic drives",
    )
    p_phases.set_defaults(func=cmd_phases)

    p_gate = sub.add_parser("gate", help="build and grade the two-qubit gate")
    add_common(p_gate)
    p_gate.set_defaults(func=cmd_gate)

    p_design = sub.add_parser("design", help="solve a circular drive for a target phase")
    p_design.add_argument("target", help='target phase, e.g. "pi/2"')
    p_design.add_argument("--g0", type=float, help="fix the drive magnitude")
    p_design.add_argument("--T", type=float, help="fix the cycle duration")
    p_design.add_argument("--loops", type=int, default=1, help="number of phase-space loops")
    p_design.add_argument("--out", help="write the pulse section here instead of stdout")
    p_design.set_defaults(func=cmd_design)

    p_validate = sub.add_parser("validate", help="run a configured physics validation scan")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="grid sweep of pulse parameters")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
