"""Spans around the calls into loopgate's modules, recorded from outside the program.

Public functions are wrapped by attribute on the modules that call them
(``loopgate.gate.propagate_states``, ``loopgate.cli.total_phase``, ...), so a
call made inside loopgate is seen without changing loopgate. The callable that
``hamiltonian_builder`` returns is wrapped too: one ``model.build`` span per
step. Spans stay in memory until the run ends.
"""

import functools
import time
from collections import defaultdict

# (module, attribute, span name); a module appears once per caller that imported the name
TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "alpha_trajectory", "evolve.alpha_trajectory"),
    ("phase", "alpha_trajectory", "evolve.alpha_trajectory"),
    ("gate", "alpha_trajectory", "evolve.alpha_trajectory"),
    ("validate", "alpha_trajectory", "evolve.alpha_trajectory"),
    ("cli", "total_phase", "phase.total_phase"),
    ("gate", "total_phase", "phase.total_phase"),
    ("phase", "drive_phase_integral", "phase.drive_phase_integral"),
    ("cli", "enclosed_area", "phase.enclosed_area"),
    ("evolve", "cumulative_drive_integral", "model.cumulative_drive_integral"),
    ("phase", "cumulative_drive_integral", "model.cumulative_drive_integral"),
    ("evolve", "hamiltonian_builder", "model.hamiltonian_builder"),
    ("gate", "propagate_states", "evolve.propagate_states"),
    ("evolve", "propagate_numeric", "evolve.propagate_numeric"),
    ("cli", "gate_matrix", "gate.gate_matrix"),
    ("validate", "gate_matrix", "gate.gate_matrix"),
    ("cli", "rwa_error_scan", "validate.rwa_error_scan"),
    ("cli", "truncation_scan", "validate.truncation_scan"),
    ("model", "annihilation", "fock.annihilation"),
    ("gate", "vacuum", "fock.vacuum"),
)

BUILD_SPAN = "model.build"
CPU_SPANS = frozenset({"evolve.propagate_numeric"})
STEPPERS = frozenset({"evolve.propagate_states", "evolve.propagate_numeric"})


def _sample_count(name, args, kwargs):
    if name == "evolve.alpha_trajectory":
        return args[2] if len(args) > 2 else kwargs["n_samples"]
    if name == "model.cumulative_drive_integral":
        return len(args[1] if len(args) > 1 else kwargs["times"])
    return None


class Recorder:
    """Collects spans (name, start, end, parent, op, cpu, samples) while its wrappers are installed."""

    def __init__(self):
        self.passes: list[list[tuple]] = []
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.op_id = None
        self.missing: set[str] = set()

    def wrap(self, name, fn):
        rec = self
        with_cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(index)
            cpu0 = time.process_time() if with_cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0 if with_cpu else None
                rec._stack.pop()
                rec.spans[index] = (
                    name, start, end, parent, rec.op_id, cpu, _sample_count(name, args, kwargs)
                )
            if name == "model.hamiltonian_builder":
                result = rec.wrap(BUILD_SPAN, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every target and start a new pass; span parents index into that pass."""
        self.spans = []
        self.passes.append(self.spans)
        for module_name, attribute, name in TARGETS:
            module = getattr(package, module_name)
            if not hasattr(module, attribute):
                self.missing.add(f"{module_name}.{attribute}")
                continue
            original = getattr(module, attribute)
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals.clear()

    def as_columns(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "cpu", "samples")
        return [{key: [span[i] for span in spans] for i, key in enumerate(keys)} for spans in self.passes]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def layer_of(name: str) -> str:
    """Layer a span is reported under; every fock function counts as one `fock` layer."""
    return "fock" if name.startswith("fock.") else name


def summarize(spans, op_kinds: dict, op_dims: dict) -> dict:
    """Per-layer calls, self time, CPU, samples and steps for one pass's spans."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for span, own in zip(spans, selfs):
        name, start, end, parent, op, cpu, samples = span
        layer = layer_of(name)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own
        if cpu is not None:
            out[f"{layer}.cpu_s"] += cpu
            out[f"{layer}.wall_s"] += end - start
        if samples is not None:
            out[f"{layer}.samples"] += samples
        if name == BUILD_SPAN:
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] not in STEPPERS:
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                stepper = spans[ancestor][0]
                out[f"{stepper}.steps"] += 1
                if stepper == "evolve.propagate_numeric":
                    out[f"{stepper}.flops_computed"] += 16 * (4 * op_dims[op]) ** 3
        if name == "evolve.alpha_trajectory" and op_kinds.get(op) == "phases":
            out["phases_op.alpha_trajectory_calls"] += 1
    phases_ops = sum(1 for kind in op_kinds.values() if kind == "phases")
    out["evolve.alpha_trajectory.per_op"] = (
        out.pop("phases_op.alpha_trajectory_calls", 0.0) / phases_ops if phases_ops else 0.0
    )
    wall = out.pop("evolve.propagate_numeric.wall_s", 0.0)
    out["evolve.propagate_numeric.cpu_per_wall"] = (
        out.get("evolve.propagate_numeric.cpu_s", 0.0) / wall if wall else 0.0
    )
    return dict(out)


def parse_importtime(stderr: str, root: str, packages) -> dict:
    """Cumulative import seconds of `root` and of each package, from ``python -X importtime``.

    Lines come in post-order (children first) with two spaces of indent per
    level. A package's cost is the sum over its entries that sit under no
    entry of any listed package, so a numpy module that scipy pulls in counts
    for scipy, and the package costs do not overlap.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))

    def owner(name):
        return next((p for p in packages if name == p or name.startswith(p + ".")), None)

    totals = {pkg: 0.0 for pkg in (root, *packages)}
    stack: list[str] = []
    for depth, name, seconds in reversed(entries):
        del stack[depth:]
        if name == root:
            totals[root] += seconds
        pkg = owner(name)
        if pkg is not None and not any(owner(a) for a in stack):
            totals[pkg] += seconds
        stack.append(name)
    return totals
