"""Run configuration: a flat INI file with one section per parameter group.

Numeric values accept literal ``pi`` arithmetic ("pi/2", "2pi", "3*pi/4").
Sections:

    [pulse]   shape = circular | piecewise | sampled, plus shape fields,
              r0, T (optional for circular: defaults to loops * 2*pi/|nu|)
    [raman]   optional rabi_p, rabi_s, rabi_g, kappa_e, delta_1, delta_2;
              derives r0 and, for circular shapes, g0/phase0 defaults from
              the effective couplings (two-photon resonance is assumed)
    [space]   dim
    [run]     method, dt, n_steps
    [output]  path, format
    [scan]    kind = rwa (r0_values, dt, dim) | truncation (dims, dt)
    [sweep]   max_points plus one "field = value list" entry per swept field

Inline comments start with "#" only: ";" separates pulse segments, and "%" is
literal text. Every violated precondition is reported with its section.key
path, all at once, before any computation starts: one line per key, and a key
that fails hides no other key's checks. The pulse dataclasses judge their own
fields (model), so a field they refuse is reported under pulse.<field> or
raman.<field>, even when it was derived: T from loops and nu, r0, g0 and
phase0 from [raman]. Each swept value meets the same checks, also when the
pulse itself fails, and the sweep grid's own rules (at least one swept field,
at most max_points points, 4096 by default) are reported with the rest.
"""

from __future__ import annotations

import ast
import cmath
import configparser
import dataclasses
import itertools
import math
import operator
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .design import DEFAULT_PHASE_STEPS, GATE_METHODS
from .errors import ConfigError, InvalidFields

if TYPE_CHECKING:
    from .model import GShape, PulseSpec

_ALLOWED_EXPR = re.compile(r"^[0-9pij+\-*/().eE\s]+$")
_BARE_PI = re.compile(r"(?<=[0-9.)])pi")

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}

FORMAT_CHOICES = ("csv", "json")

_SWEEPABLE = ("g0", "nu", "phase0", "r0", "T")


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
    """The swept pulse fields, each with its value list, in the order [sweep] gives them.

    load_config has judged every value and bounded the grid by sweep.max_points.
    """

    fields: dict[str, list[float]]

    def points(self, base: PulseSpec):
        """(values, pulse) for each grid point, the last field varying fastest.

        Each pulse is base with the point's shape fields set in one replace of its
        shape and the rest in one replace of the pulse; each replace re-runs its
        class's checks, and no shape is rebuilt when no shape field is swept.
        """
        on_shape = [name for name in self.fields if _has_field(base.g_shape, name)]
        for combo in itertools.product(*self.fields.values()):
            values = dict(zip(self.fields, combo))
            shape = base.g_shape
            if on_shape:
                shape = replace(shape, **{name: values[name] for name in on_shape})
            rest = {name: value for name, value in values.items() if name not in on_shape}
            yield values, replace(base, g_shape=shape, **rest)


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

    Each path is reported once: after its first failure, later checks on it are skipped.
    """

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.errors: list[str] = []
        self.seen: set[tuple[str, str]] = set()
        self.invalid: set[str] = set()

    def fail(self, path, message):
        if path not in self.invalid:
            self.errors.append(f"{path}: {message}")
            self.invalid.add(path)

    def get(self, section, key, convert, default=None, required=False):
        self.seen.add((section, key))
        if not self.parser.has_option(section, key):
            if required:
                self.fail(f"{section}.{key}", "required key is missing")
            return default
        raw = self.parser.get(section, key)
        try:
            return convert(raw)
        except ValueError as exc:
            self.fail(f"{section}.{key}", exc)
            return default

    def check(self, condition, path, message):
        if not condition:
            self.fail(path, message)
        return condition

    def build(self, cls, section, **fields):
        """cls(**fields), or None with each refused field reported as ``section.<field>``.

        A field passed as None is missing or failed to parse and has been reported;
        the class still judges the others, so one bad key hides no other.
        """
        given = {name: value for name, value in fields.items() if value is not None}
        if len(given) < len(fields):
            failures = cls.failures(**given)
        else:
            try:
                return cls(**given)
            except InvalidFields as exc:
                failures = exc.failures
        for name, message in failures:
            self.fail(f"{section}.{name}", message)
        return None

    def warn_unknown(self, section):
        if not self.parser.has_section(section):
            return
        for key in self.parser.options(section):
            if (section, key) not in self.seen:
                self.fail(f"{section}.{key}", "unknown key")


def _shapes() -> dict:
    """The drive class of each pulse.shape name; the classes load numpy, so they are imported on first use."""
    from .model import Circular, PiecewiseConstant, Sampled

    return {"circular": Circular, "piecewise": PiecewiseConstant, "sampled": Sampled}


def _has_field(cls, name: str) -> bool:
    return any(spec.name == name for spec in dataclasses.fields(cls))


def _build_pulse(reader: _Reader) -> tuple[str | None, GShape | None, PulseSpec | None]:
    """The shape name, the shape and the pulse, each None where the config did not give or build it."""
    parser = reader.parser
    if not parser.has_section("pulse"):
        reader.fail("pulse", "section is required")
        return None, None, None
    # the drive classes load numpy, so only a config that builds a pulse pays for it
    from .model import PulseSpec, RamanParams, effective_couplings

    derived_r0 = derived_g0 = None
    derived_phase0 = 0.0
    if parser.has_section("raman"):
        parse = {complex: parse_complex, float: parse_real}
        raman = reader.build(RamanParams, "raman", **{
            spec.name: reader.get("raman", spec.name, parse[spec.type], required=True)
            for spec in dataclasses.fields(RamanParams)
        })
        reader.warn_unknown("raman")
        if raman is not None:
            r, g = effective_couplings(raman)
            # abs() of a complex raises where its modulus is past double precision
            if abs(r.imag) > 1e-12 * max(1.0, abs(r.real)):
                reader.fail(
                    "raman",
                    "derived classical coupling r is not real; gate operation requires a real constant classical drive",
                )
            elif r.real < 0 and not parser.has_option("pulse", "r0"):
                reader.fail(
                    "raman",
                    f"derived classical coupling r = {r.real:.6g} is negative; "
                    "flip a detuning sign or set pulse.r0 explicitly",
                )
            else:
                derived_r0 = r.real
            try:
                derived_g0 = abs(g)
            except OverflowError:
                derived_g0 = math.inf
            derived_phase0 = math.atan2(g.imag, g.real)

    shape_name = reader.get("pulse", "shape", str.strip, default="circular")
    shape_cls = _shapes().get(shape_name)
    reader.check(shape_cls is not None, "pulse.shape", f"must be circular, piecewise or sampled (got {shape_name!r})")
    r0 = reader.get("pulse", "r0", parse_real, default=0.0 if derived_r0 is None else derived_r0)
    T = reader.get("pulse", "T", parse_real)
    shape = None
    if shape_name == "circular":
        g0 = reader.get("pulse", "g0", parse_real, default=derived_g0)
        phase0 = reader.get("pulse", "phase0", parse_real, default=derived_phase0)
        nu = reader.get("pulse", "nu", parse_real, required=True)
        loops = reader.get("pulse", "loops", parse_int, default=1)
        has_g0 = g0 is not None or parser.has_section("raman")
        reader.check(has_g0, "pulse.g0", "required for circular shapes without a raman section")
        shape = reader.build(shape_cls, "pulse", g0=g0, nu=nu, phase0=phase0)
        # loops and nu are checked even when T is given, where they derive nothing
        reader.check(loops >= 1, "pulse.loops", "must be >= 1")
        if T is None and reader.invalid.isdisjoint(("pulse.nu", "pulse.loops")):
            # a float product overflows to inf, which PulseSpec refuses; an int one raises
            T = float(loops) * 2 * math.pi / abs(nu)
    elif shape_name == "piecewise":
        segments = reader.get("pulse", "segments", parse_segments, required=True)
        shape = reader.build(shape_cls, "pulse", segments=segments)
    elif shape_name == "sampled":
        dt = reader.get("pulse", "dt", parse_real, required=True)
        values = reader.get("pulse", "values", list_of(parse_complex), required=True)
        shape = reader.build(shape_cls, "pulse", dt=dt, values=values)
    # without a known shape there is no list of known keys
    if shape_cls is not None:
        reader.warn_unknown("pulse")
    if T is None and shape is not None:
        T = shape.natural_duration()
    return shape_name, shape, reader.build(PulseSpec, "pulse", g_shape=shape, T=T, r0=r0)


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


def _not_sweepable(text):
    raise ValueError(f"not a sweepable pulse field {_SWEEPABLE}")


def _build_sweep(reader: _Reader, shape_name: str | None, shape: GShape | None) -> SweepConfig | None:
    parser = reader.parser
    if not parser.has_section("sweep"):
        return None
    from .model import PulseSpec

    shape_cls = _shapes().get(shape_name)
    max_points = reader.get("sweep", "max_points", parse_int, default=4096)
    keys = [key for key in parser.options("sweep") if key != "max_points"]
    # a sweep whose keys were all refused has had each reported under its own path
    reader.check(keys, "sweep", "at least one swept field is required")
    fields: dict[str, list[float]] = {}
    for key in keys:
        path = f"sweep.{key}"
        values = reader.get("sweep", key, list_of(parse_real) if key in _SWEEPABLE else _not_sweepable)
        owner = PulseSpec if _has_field(PulseSpec, key) else shape_cls
        if not reader.check(values, path, "needs at least one value") or owner is None:
            continue
        if reader.check(_has_field(owner, key), path, f"a {shape_name} pulse has no {key} field"):
            fields[key] = values
            # every value is judged, even when the pulse failed; the one check a swept value
            # meets that reads a second field is PulseSpec's match of T to the shape's duration
            context = {} if shape is None else {"g_shape": shape}
            for value in values:
                for _, message in owner.failures(**context, **{key: value}):
                    reader.fail(path, message)
    # a max_points that failed to parse bounds nothing
    if "sweep.max_points" not in reader.invalid and reader.check(max_points >= 1, "sweep.max_points", "must be >= 1"):
        total = math.prod(len(values) for values in fields.values())
        reader.check(total <= max_points, "sweep", f"grid has {total} points, above max_points = {max_points}")
    return SweepConfig(fields=fields)


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
        # configparser spreads its message over several lines; a config error is one line
        raise ConfigError(f"config: {' '.join(line.strip() for line in str(exc).splitlines())}") from None
    for section, key, raw in overrides:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, raw)

    reader = _Reader(parser)
    shape_name, shape, pulse = _build_pulse(reader)

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
    sweep = _build_sweep(reader, shape_name, shape)

    for section in parser.sections():
        if section not in ("pulse", "raman", "space", "run", "output", "scan", "sweep"):
            reader.fail(section, "unknown section")

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
