"""Benchmark of loopgate: three seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cli_analytic --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client: a pass runs a fixed list of
operations one after another, at most one loopgate child process at a time,
and passes repeat until the next one would overrun --seconds. With --trace 0
the CLI operations run as fresh processes and the end-to-end metrics are
printed; with --trace 1 they run in-process through ``loopgate.cli.main``,
untraced and traced passes alternate, and the per-layer metrics are printed.
The last line of standard output is one JSON object. Details (environment,
per-operation times and SHA-256 of every CLI output, spans) go to
perfbench/out/. No thread variable is set: BLAS threading is part of what is
measured.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from checks import Outcome, check_cli, check_unitary  # noqa: E402
from inputs import WORKLOADS, make_ops  # noqa: E402
from tracing import Recorder, parse_importtime, summarize  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
# a child still running after this is killed, so one run cannot hang
CHILD_TIMEOUT_S = 120

SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import loopgate, inputs; "
    "inputs.make_ops(sys.argv[3], int(sys.argv[4]))"
)

# which end-to-end metric each layer should move, and on which workload
LAYER_EXPECTATIONS = {
    "import.*": "setup_s on every workload; op_s.p50 and pass_s on cli_analytic; "
                "nothing beyond setup_s on library_unitary",
    "config.load_config, cli": "small on every workload; predicted not to change",
    "evolve.alpha_trajectory, phase.*, model.cumulative_drive_integral":
        "pass_s and op_s.p50 on cli_analytic; small on cli_numeric; zero on library_unitary",
    "model.hamiltonian_builder, model.build, evolve.propagate_states, gate.gate_matrix, "
    "validate.*": "pass_s and op_s.tail on cli_numeric; zero on cli_analytic",
    "evolve.propagate_numeric.*": "pass_s and cpu_s on library_unitary; zero on both CLI workloads",
    "fock": "close to zero today; shows work moved into fock",
}

PER_LAYER = (
    ("import.loopgate_s", "s"), ("import.numpy_s", "s"), ("import.scipy_s", "s"),
    ("config.load_config.calls", "count"), ("config.load_config.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("evolve.alpha_trajectory.calls", "count"), ("evolve.alpha_trajectory.self_s", "s"),
    ("evolve.alpha_trajectory.samples", "count"), ("evolve.alpha_trajectory.per_op", "count/op"),
    ("phase.total_phase.calls", "count"), ("phase.total_phase.self_s", "s"),
    ("phase.drive_phase_integral.calls", "count"), ("phase.drive_phase_integral.self_s", "s"),
    ("phase.enclosed_area.calls", "count"), ("phase.enclosed_area.self_s", "s"),
    ("model.cumulative_drive_integral.calls", "count"),
    ("model.cumulative_drive_integral.self_s", "s"),
    ("model.cumulative_drive_integral.samples", "count"),
    ("model.hamiltonian_builder.self_s", "s"),
    ("model.build.calls", "count"), ("model.build.self_s", "s"),
    ("evolve.propagate_states.calls", "count"), ("evolve.propagate_states.self_s", "s"),
    ("evolve.propagate_states.steps", "count"),
    ("gate.gate_matrix.self_s", "s"),
    ("validate.rwa_error_scan.self_s", "s"), ("validate.truncation_scan.self_s", "s"),
    ("evolve.propagate_numeric.calls", "count"), ("evolve.propagate_numeric.self_s", "s"),
    ("evolve.propagate_numeric.cpu_s", "s"), ("evolve.propagate_numeric.steps", "count"),
    ("evolve.propagate_numeric.cpu_per_wall", "ratio"),
    ("evolve.propagate_numeric.flops_computed", "flop"),
    ("fock.calls", "count"), ("fock.self_s", "s"),
    ("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"), ("trace.overhead_s", "s"),
    ("failed_frac", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment_record() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return {k: {"name": deps[k].get("name"), "version": deps[k].get("version")}
                    for k in ("blas", "lapack") if k in deps}
        except (TypeError, KeyError, AttributeError):
            return None

    source = hashlib.sha256()
    for path in sorted((SRC / "loopgate").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    thread_prefixes = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "GOTO", "NUMEXPR_")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: v for k, v in os.environ.items() if k.startswith(thread_prefixes)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def _wait_child(argv, stdout_path, stderr_path, env):
    """Run one child to completion; return (wall seconds, exit code, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def measure_setup(workload: str, seed: int, env) -> float:
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH_DIR), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = _wait_child(argv, OUT_DIR / "setup.out", OUT_DIR / "setup.err", env)
        if code != 0:
            raise RuntimeError("set-up child failed: " + (OUT_DIR / "setup.err").read_text()[-2000:])
        times.append(wall)
    return statistics.median(times)


def measure_imports(env) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", "import loopgate"]
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _ = _wait_child(argv, OUT_DIR / "import.out", OUT_DIR / "import.err", env)
        if code != 0:
            raise RuntimeError("import child failed")
        stderr = (OUT_DIR / "import.err").read_text()
        runs.append(parse_importtime(stderr, "loopgate", ("numpy", "scipy")))
    return {f"import.{pkg}_s": statistics.median(r[pkg] for r in runs) for pkg in runs[0]}


class Runner:
    """Runs one workload's operations and checks each result."""

    def __init__(self, workload, ops, env):
        import loopgate
        import loopgate.cli  # noqa: F401  (the traced run calls main by attribute)

        self.lg = loopgate
        self.workload = workload
        self.ops = ops
        self.env = env
        self.config_paths = {}
        for op in ops:
            if op.config is not None:
                path = OUT_DIR / f"{workload}-{op.op_id}.ini"
                path.write_text(op.config)
                self.config_paths[op.op_id] = str(path)
        self.digests: dict[str, set] = {op.op_id: set() for op in ops}
        self.failures: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.phase_err = 0.0
        self.gate_infidelity = 0.0

    def argv(self, op):
        args = list(op.argv)
        if op.op_id in self.config_paths:
            args += ["--config", self.config_paths[op.op_id]]
        return args

    def record(self, op, outcome, output: str | None = None):
        self.attempted += 1
        if output is not None:
            self.digests[op.op_id].add(hashlib.sha256(output.encode()).hexdigest())
            if len(self.digests[op.op_id]) > 1:
                outcome.problems.append("output differs between passes")
        if not outcome.ok:
            self.failed += 1
            self.failures.setdefault(op.op_id, outcome.problems)
        if outcome.phase_err is not None:
            self.phase_err = max(self.phase_err, outcome.phase_err)
        if outcome.gate_infidelity is not None:
            self.gate_infidelity = max(self.gate_infidelity, outcome.gate_infidelity)

    # --- one operation in each mode --------------------------------------------------

    def run_cli_process(self, op):
        argv = [sys.executable, "-m", "loopgate.cli", *self.argv(op)]
        wall, code, usage = _wait_child(argv, OUT_DIR / "op.out", OUT_DIR / "op.err", self.env)
        output = (OUT_DIR / "op.out").read_text()
        self.record(op, check_cli(op, code, output), output)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def run_cli_inprocess(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.lg.cli.main(self.argv(op))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
                self.record(op, Outcome([f"raised {exc!r}"]))
                return
        self.record(op, check_cli(op, code, stdout.getvalue()), stdout.getvalue())

    def run_unitary(self, op):
        lg, drive, spec = self.lg, op.drive, op.expect
        tier = {"rwa": lg.model.HamiltonianTier.RWA_EFFECTIVE,
                "rotating": lg.model.HamiltonianTier.ROTATING_FRAME}[spec["tier"]]
        start = time.perf_counter()
        try:
            pulse = build_pulse(lg, drive)
            result = lg.evolve.propagate_numeric(
                tier, pulse, lg.fock.FockSpace(spec["dim"]), 0.0, pulse.T, pulse.T / spec["steps"]
            )
        except Exception as exc:  # a program error is a failed operation, not a failed benchmark
            self.record(op, Outcome([f"raised {exc!r}"]))
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        self.record(op, check_unitary(result.unitary, spec))
        return wall

    # --- passes ----------------------------------------------------------------------

    def untraced_pass(self):
        """One pass as a user runs it: (pass wall, op walls, CPU, peak RSS in MB)."""
        walls, cpu, rss = [], 0.0, 0.0
        start = time.perf_counter()
        cpu0 = time.process_time()
        if self.workload == "library_unitary":
            walls = [self.run_unitary(op) for op in self.ops]
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            for op in self.ops:
                wall, op_cpu, op_rss = self.run_cli_process(op)
                walls.append(wall)
                cpu += op_cpu
                rss = max(rss, op_rss)
        cpu += time.process_time() - cpu0
        return time.perf_counter() - start, walls, cpu, rss

    def inprocess_pass(self, recorder=None):
        start = time.perf_counter()
        for op in self.ops:
            if recorder is not None:
                recorder.op_id = op.op_id
            if self.workload == "library_unitary":
                self.run_unitary(op)
            else:
                self.run_cli_inprocess(op)
        return time.perf_counter() - start


def build_pulse(lg, drive: dict):
    model = lg.model
    if drive["shape"] == "circular":
        shape = model.Circular(g0=drive["g0"], nu=drive["nu"], phase0=drive["phase0"])
    elif drive["shape"] == "piecewise":
        shape = model.PiecewiseConstant(segments=tuple(drive["segments"]))
    else:
        shape = model.Sampled(dt=drive["dt"], values=tuple(drive["values"]))
    return model.PulseSpec(g_shape=shape, T=drive["T"], r0=drive["r0"])


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, percentile, count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def repeat_until(deadline, step):
    """Call step() until another call would likely end past the deadline; at least once."""
    durations, results = [], []
    while True:
        start = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return results


def end_to_end(runner, seconds, setup_s):
    deadline = time.perf_counter() + seconds
    if runner.workload == "library_unitary":
        runner.inprocess_pass()  # warm-up: BLAS thread pool and first-call costs
        runner.attempted = runner.failed = 0
    passes = repeat_until(deadline, runner.untraced_pass)
    op_walls = [w for p in passes for w in p[1]]
    tail_value, tail_pct, tail_n = tail(op_walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p[0] for p in passes), "s"),
        "op_s.p50": (statistics.median(op_walls), "s"),
        "op_s.tail": (tail_value, "s"),
        "cpu_s": (statistics.median(p[2] for p in passes), "s"),
        "peak_rss_mb": (max(p[3] for p in passes), "MB"),
        "phase_err": (runner.phase_err, "rad"),
        "gate_infidelity": (runner.gate_infidelity, "1"),
    }
    details = {
        "passes": len(passes),
        "pass_walls": [p[0] for p in passes],
        "op_walls": {op.op_id: [p[1][i] for p in passes] for i, op in enumerate(runner.ops)},
        "op_s.tail": {"percentile": tail_pct, "samples": tail_n},
    }
    return metrics, details


def traced(runner, seconds, env):
    metrics = {name: (value, "s") for name, value in measure_imports(env).items()}
    deadline = time.perf_counter() + seconds
    recorder = Recorder()
    runner.inprocess_pass()  # warm-up, untimed
    runner.attempted = runner.failed = 0
    op_kinds = {op.op_id: op.kind for op in runner.ops}
    op_dims = {op.op_id: (op.expect or {}).get("dim") for op in runner.ops}
    per_pass = []

    def pair():
        untraced_s = runner.inprocess_pass()
        recorder.install(runner.lg)
        try:
            traced_s = runner.inprocess_pass(recorder)
        finally:
            recorder.uninstall()
        per_pass.append(summarize(recorder.spans, op_kinds, op_dims))
        return untraced_s, traced_s

    pairs = repeat_until(deadline, pair)
    untraced_s = statistics.median(p[0] for p in pairs)
    traced_s = statistics.median(p[1] for p in pairs)
    for name, unit in PER_LAYER:
        if name.startswith(("import.", "trace.")) or name == "failed_frac":
            continue
        metrics[name] = (statistics.median(s.get(name, 0.0) for s in per_pass), unit)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["failed_frac"] = (runner.failed / max(1, runner.attempted), "ratio")
    with gzip.open(OUT_DIR / f"spans-{runner.workload}.json.gz", "wt") as handle:
        json.dump(recorder.as_columns(), handle)
    details = {"pairs": len(pairs), "untraced_targets": sorted(recorder.missing)}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loopgate" / "__init__.py").is_file():
        print(f"error: no loopgate sources under {SRC}; run from a loopgate checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()

    setup_s = None if args.trace else measure_setup(args.workload, args.seed, env)
    runner = Runner(args.workload, make_ops(args.workload, args.seed), env)
    if Path(runner.lg.__file__).resolve().parent != SRC / "loopgate":
        print(f"error: imported loopgate from {runner.lg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, details = traced(runner, args.seconds, env)
    else:
        metrics, details = end_to_end(runner, args.seconds, setup_s)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_record(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / max(1, runner.attempted),
        "failures": runner.failures,
        "output_sha256": {k: sorted(v) for k, v in runner.digests.items() if v},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "layer_expectations": LAYER_EXPECTATIONS,
        **details,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for op_id, problems in runner.failures.items():
        print(f"FAILED {op_id}: {'; '.join(problems)}")
    if "op_s.tail" in details:
        tail_info = details["op_s.tail"]
        print(f"op_s.tail is p{tail_info['percentile']:.1f} of {tail_info['samples']} operations")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
