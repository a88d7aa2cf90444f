"""Run configuration: a flat INI file with one section per parameter group.

Numeric values accept literal ``pi`` arithmetic ("pi/2", "2pi", "3*pi/4").
Sections:

    [pulse]   shape = circular | piecewise | sampled, plus shape fields,
              r0, T (optional for circular: defaults to loops * 2*pi/|nu|)
    [raman]   optional channel parameters; derives r0 and, for circular
              shapes, g0/phase0 defaults from the effective couplings
    [space]   dim
    [run]     method, dt, n_steps
    [output]  path, format
    [scan]    kind = rwa (r0_values, dt, dim) | truncation (dims, dt)
    [sweep]   max_points plus one "field = value list" entry per swept field

Inline comments start with "#" only: ";" separates pulse segments, and "%" is
literal text. Every violated precondition is reported with its section.key
path, all at once, before any computation starts.
"""

import ast
import cmath
import configparser
import dataclasses
import math
import operator
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .gate import GATE_METHODS
from .model import Circular, PiecewiseConstant, PulseSpec, RamanParams, Sampled, effective_couplings
from .phase import DEFAULT_PHASE_STEPS

_ALLOWED_EXPR = re.compile(r"^[0-9pij+\-*/().eE\s]+$")
_BARE_PI = re.compile(r"(?<=[0-9.)])pi")

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}

FORMAT_CHOICES = ("csv", "json")

_SWEEPABLE = ("g0", "nu", "phase0", "r0", "T")
_CIRCULAR_ONLY = ("g0", "nu", "phase0")


def _evaluate(node: ast.expr):
    """Numbers, pi, the binary operators + - * / and unary signs; anything else is refused."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return float(node.value) if type(node.value) is int else node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed; use numbers, pi, j, + - * / and parentheses")


def parse_scalar(text: str):
    """Evaluate a numeric literal that may use pi arithmetic and complex j; it must be finite."""
    s = text.strip()
    if not s:
        raise ValueError("empty value")
    if not _ALLOWED_EXPR.match(s):
        raise ValueError(f"invalid numeric expression {text!r}")
    s = _BARE_PI.sub("*pi", s)
    try:
        value = _evaluate(ast.parse(s, mode="eval").body)
    except (SyntaxError, ArithmeticError, RecursionError, MemoryError) as exc:
        # the parser reports nesting too deep for its stack as MemoryError
        raise ValueError(f"cannot parse {text!r}: {exc}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_real(text: str) -> float:
    value = parse_scalar(text)
    if isinstance(value, complex):
        raise ValueError(f"{text!r} must be real")
    return float(value)


def parse_complex(text: str) -> complex:
    return complex(parse_scalar(text))


def parse_int(text: str) -> int:
    value = parse_scalar(text)
    if isinstance(value, complex) or value != int(value):
        raise ValueError(f"{text!r} must be an integer")
    return int(value)


def list_of(parse):
    """Converter for a whitespace-separated list whose entries ``parse`` reads."""
    return lambda text: [parse(tok) for tok in text.split()]


def parse_segments(text: str) -> list[tuple[float, complex]]:
    """Parse "duration value; duration value; ..." segment lists."""
    segments = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 2:
            raise ValueError(f"segment {chunk!r} must be 'duration value'")
        segments.append((parse_real(parts[0]), parse_complex(parts[1])))
    if not segments:
        raise ValueError("no segments given")
    return segments


# the one value list each scan kind reads: key, entry parser, exclusive floor, floor message
_SCAN_LISTS = {
    "rwa": ("r0_values", parse_real, 0, "must be positive"),
    "truncation": ("dims", parse_int, 1, "must be >= 2"),
}


@dataclass
class ScanConfig:
    """One scan: the r0 values of an rwa scan or the dims of a truncation scan, in ``values``."""

    kind: str
    values: list = field(default_factory=list)
    dt: float = 0.001
    dim: int = 16


@dataclass
class SweepConfig:
    fields: dict[str, list[float]]
    max_points: int = 4096


@dataclass
class RunConfig:
    pulse: PulseSpec
    dim: int = 32
    method: str = "analytic"
    dt: float | None = None
    n_steps: int = DEFAULT_PHASE_STEPS
    out_path: str | None = None
    out_format: str = "csv"
    scan: ScanConfig | None = None
    sweep: SweepConfig | None = None


class _Reader:
    """Pulls typed values out of one parsed INI file, collecting path-tagged errors.

    A value that fails to convert is reported once: later checks on its path are skipped.
    """

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.errors: list[str] = []
        self.seen: set[tuple[str, str]] = set()
        self.invalid: set[str] = set()

    def get(self, section, key, convert, default=None, required=False):
        self.seen.add((section, key))
        if not self.parser.has_option(section, key):
            if required:
                self.errors.append(f"{section}.{key}: required key is missing")
            return default
        raw = self.parser.get(section, key)
        try:
            return convert(raw)
        except ValueError as exc:
            self.errors.append(f"{section}.{key}: {exc}")
            self.invalid.add(f"{section}.{key}")
            return default

    def check(self, condition, path, message):
        if not condition and path not in self.invalid:
            self.errors.append(f"{path}: {message}")
        return condition

    def warn_unknown(self, section):
        if not self.parser.has_section(section):
            return
        for key in self.parser.options(section):
            if (section, key) not in self.seen:
                self.errors.append(f"{section}.{key}: unknown key")


def _build_pulse(reader: _Reader) -> PulseSpec | None:
    parser = reader.parser
    if not parser.has_section("pulse"):
        reader.errors.append("pulse: section is required")
        return None

    raman = None
    if parser.has_section("raman"):
        kwargs = {}
        for spec in dataclasses.fields(RamanParams):
            conv = parse_complex if spec.type is complex else parse_real
            kwargs[spec.name] = reader.get("raman", spec.name, conv, required=True)
        reader.warn_unknown("raman")
        if all(v is not None for v in kwargs.values()):
            try:
                raman = RamanParams(**kwargs)
            except ValueError as exc:
                reader.errors.append(f"raman: {exc}")

    derived_r0 = None
    derived_g = None
    if raman is not None:
        r, g = effective_couplings(raman)
        if abs(r.imag) > 1e-12 * max(1.0, abs(r)):
            reader.errors.append(
                "raman: derived classical coupling r is not real; "
                "gate operation requires a real constant classical drive"
            )
        elif r.real < 0 and not parser.has_option("pulse", "r0"):
            reader.errors.append(
                f"raman: derived classical coupling r = {r.real:.6g} is negative; "
                "flip a detuning sign or set pulse.r0 explicitly"
            )
        else:
            derived_r0 = r.real
        derived_g = g

    shape_name = reader.get("pulse", "shape", str.strip, default="circular")
    if not reader.check(
        shape_name in ("circular", "piecewise", "sampled"),
        "pulse.shape",
        f"must be circular, piecewise or sampled (got {shape_name!r})",
    ):
        return None

    r0 = reader.get("pulse", "r0", parse_real)
    if r0 is None:
        r0 = derived_r0 if derived_r0 is not None else 0.0

    shape = None
    T = reader.get("pulse", "T", parse_real)
    if shape_name == "circular":
        g0 = reader.get("pulse", "g0", parse_real)
        phase0 = reader.get("pulse", "phase0", parse_real)
        if g0 is None and derived_g is not None:
            g0 = abs(derived_g)
        if phase0 is None:
            phase0 = math.atan2(derived_g.imag, derived_g.real) if derived_g is not None else 0.0
        nu = reader.get("pulse", "nu", parse_real, required=True)
        loops = reader.get("pulse", "loops", parse_int, default=1)
        reader.check(g0 is not None, "pulse.g0", "required for circular shapes without a raman section")
        if None in (g0, nu, loops):
            reader.warn_unknown("pulse")
            return None
        if T is None:
            if reader.check(nu != 0, "pulse.nu", "must be nonzero") and reader.check(
                loops >= 1, "pulse.loops", "must be >= 1"
            ):
                # a float product overflows to inf, which PulseSpec refuses; an int one raises
                T = float(loops) * 2 * math.pi / abs(nu)
        try:
            shape = Circular(g0=g0, nu=nu, phase0=phase0)
        except ValueError as exc:
            reader.errors.append(f"pulse: {exc}")
    elif shape_name == "piecewise":
        segments = reader.get("pulse", "segments", parse_segments, required=True)
        if segments is not None:
            try:
                shape = PiecewiseConstant(segments=tuple(segments))
            except ValueError as exc:
                reader.errors.append(f"pulse.segments: {exc}")
            if shape is not None and T is None:
                T = shape.natural_duration()
    else:
        sample_dt = reader.get("pulse", "dt", parse_real, required=True)
        if sample_dt is not None and not reader.check(sample_dt > 0, "pulse.dt", "must be > 0"):
            sample_dt = None
        values = reader.get("pulse", "values", list_of(parse_complex), required=True)
        if sample_dt is not None and values is not None:
            try:
                shape = Sampled(dt=sample_dt, values=tuple(values))
            except ValueError as exc:
                reader.errors.append(f"pulse.values: {exc}")
            if shape is not None and T is None:
                T = shape.natural_duration()

    reader.warn_unknown("pulse")
    if shape is None or T is None:
        return None
    try:
        return PulseSpec(g_shape=shape, T=T, r0=r0)
    except ValueError as exc:
        reader.errors.append(f"pulse: {exc}")
        return None


def _build_scan(reader: _Reader) -> ScanConfig | None:
    if not reader.parser.has_section("scan"):
        return None
    kind = reader.get("scan", "kind", str.strip, required=True)
    dt = reader.get("scan", "dt", parse_real, default=ScanConfig.dt)
    reader.check(dt > 0, "scan.dt", "must be > 0")
    # the keys a scan accepts depend on its kind, so without one no key is flagged unknown
    if kind is None or not reader.check(kind in _SCAN_LISTS, "scan.kind", f"must be one of {tuple(_SCAN_LISTS)}"):
        return None
    key, parse, floor, floor_message = _SCAN_LISTS[kind]
    values = reader.get("scan", key, list_of(parse), default=[])
    reader.check(bool(values), f"scan.{key}", f"required for a {kind} scan")
    reader.check(all(b > a for a, b in zip(values, values[1:])), f"scan.{key}", "must be strictly ascending")
    reader.check(all(v > floor for v in values), f"scan.{key}", floor_message)
    scan = ScanConfig(kind=kind, values=values, dt=dt)
    if kind == "rwa":
        scan.dim = reader.get("scan", "dim", parse_int, default=scan.dim)
        reader.check(scan.dim >= 2, "scan.dim", "must be >= 2")
    reader.warn_unknown("scan")
    return scan


def _sweep_pulse(base: PulseSpec, key: str, value: float) -> PulseSpec:
    """base with one swept field set: r0 and T on the PulseSpec, the rest on its circular shape."""
    if key in _CIRCULAR_ONLY:
        return replace(base, g_shape=replace(base.g_shape, **{key: value}))
    return replace(base, **{key: value})


def _not_sweepable(text):
    raise ValueError(f"not a sweepable pulse field {_SWEEPABLE}")


def _build_sweep(reader: _Reader, pulse: PulseSpec | None) -> SweepConfig | None:
    parser = reader.parser
    if not parser.has_section("sweep"):
        return None
    max_points = reader.get("sweep", "max_points", parse_int, default=SweepConfig.max_points)
    fields: dict[str, list[float]] = {}
    for key in parser.options("sweep"):
        if key != "max_points":
            values = reader.get("sweep", key, list_of(parse_real) if key in _SWEEPABLE else _not_sweepable)
            if not reader.check(values, f"sweep.{key}", "needs at least one value"):
                continue
            # a pulse that failed to build has reported its own errors
            exposed = key not in _CIRCULAR_ONLY or pulse is None or isinstance(pulse.g_shape, Circular)
            if reader.check(exposed, f"sweep.{key}", "only circular pulses expose this field"):
                fields[key] = values
                for value in values if pulse is not None else ():
                    try:
                        _sweep_pulse(pulse, key, value)
                    except ValueError as exc:
                        reader.errors.append(f"sweep.{key}: {exc}")
                        break
    reader.check(max_points is None or max_points >= 1, "sweep.max_points", "must be >= 1")
    return SweepConfig(fields=fields, max_points=max_points)


def load_config(path: str, overrides=()) -> RunConfig:
    """Parse and validate a run configuration file; raises ConfigError with all problems.

    Each ``(section, key, raw_text)`` override replaces that entry of the file
    before anything is read, so it meets the same parsers and checks.
    """
    # '%' is literal text and ';' separates pulse segments, so neither may be special
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc.strerror or exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config: {exc}") from None
    for section, key, raw in overrides:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, raw)

    reader = _Reader(parser)
    pulse = _build_pulse(reader)

    dim = reader.get("space", "dim", parse_int, default=RunConfig.dim)
    reader.check(dim is None or dim >= 2, "space.dim", "must be >= 2")
    reader.warn_unknown("space")

    method = reader.get("run", "method", str.strip, default=RunConfig.method)
    reader.check(method in GATE_METHODS, "run.method", f"must be one of {GATE_METHODS}")
    dt = reader.get("run", "dt", parse_real)
    reader.check(dt is None or dt > 0, "run.dt", "must be > 0")
    n_steps = reader.get("run", "n_steps", parse_int, default=RunConfig.n_steps)
    reader.check(n_steps is None or n_steps >= 2, "run.n_steps", "must be >= 2")
    reader.warn_unknown("run")

    out_path = reader.get("output", "path", str.strip)
    out_format = reader.get("output", "format", str.strip, default=RunConfig.out_format)
    reader.check(
        out_format in FORMAT_CHOICES, "output.format", f"must be one of {FORMAT_CHOICES}"
    )
    reader.warn_unknown("output")

    scan = _build_scan(reader)
    sweep = _build_sweep(reader, pulse)

    for section in parser.sections():
        if section not in ("pulse", "raman", "space", "run", "output", "scan", "sweep"):
            reader.errors.append(f"{section}: unknown section")

    if reader.errors or pulse is None:
        raise ConfigError(reader.errors or ["pulse: could not build a pulse"])
    return RunConfig(
        pulse=pulse,
        dim=dim,
        method=method,
        dt=dt,
        n_steps=n_steps,
        out_path=out_path,
        out_format=out_format,
        scan=scan,
        sweep=sweep,
    )
