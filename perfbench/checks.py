"""Correctness checks of one operation's output against the numpy references.

Each check returns an Outcome. An operation passes only when every check
holds; a failed operation counts in `failed` and `failed_frac`. Phase error
and gate infidelity are collected only where the reference is exact: sampled
drives are held to the underlying circle, and the rotating tier to the
strong-driving limit, each within a tolerance of its own.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from inputs import GATE_HEADER, PHASES_HEADER, SCAN_COLUMNS, SWEEP_PHASE_COLUMNS, circle_law

# fidelity bar of the engine-agreement acceptance criterion
MIN_FIDELITY = 0.999
# the CLI prints 12 significant digits; moduli that close to 1 are taken as 1
PRINTED_MODULUS_RESOLUTION = 1e-11


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    phase_err: float | None = None
    gate_infidelity: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def note_phase(self, err: float) -> None:
        self.phase_err = err if self.phase_err is None else max(self.phase_err, err)


def wrapped(delta: float) -> float:
    return abs(math.remainder(delta, 2 * math.pi))


def gate_infidelity(diagonal, gamma: float, modulus_resolution: float = 0.0) -> float:
    """1 - |tr(ideal(gamma)^dag M)| / 4 for a gate whose diagonal is given, without cancellation.

    Uses 1 - |t|^2 = (1/4) sum(1 - |d_k|^2) + (1/16) sum_{j<k} |d_j - d_k|^2 with
    t = mean(d_k) and d_k = conj(ideal_kk) M_kk, so infidelities far below
    machine epsilon stay resolved.
    """
    corner = complex(math.cos(gamma), math.sin(gamma))
    d = np.conjugate(np.array([corner, 1, 1, corner])) * np.asarray(diagonal, dtype=complex)
    modulus = np.abs(d)
    d = np.where(np.abs(modulus - 1) <= modulus_resolution, d / modulus, d)
    pairs = sum(abs(d[j] - d[k]) ** 2 for j in range(4) for k in range(j + 1, 4))
    deficit = 0.25 * float(np.sum(1 - np.abs(d) ** 2)) + pairs / 16
    return deficit / (1 + abs(np.sum(d)) / 4)


def _csv(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _near(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * max(1.0, abs(target))


def _check_relations(out: Outcome, label: str, g_g: float, g_d: float, g_t: float, tol: float) -> None:
    out.require(abs(g_t + g_g) <= tol, f"{label}: gamma != -gamma_g ({g_t} vs {g_g})")
    out.require(abs(g_t - g_d / 2) <= tol, f"{label}: gamma != gamma_d/2 ({g_t} vs {g_d})")


def _relation_tol(drive: dict) -> float:
    return 1e-8 if drive["shape"] == "piecewise" else 1e-6


def check_phases(text: str, drive: dict, expect: dict) -> Outcome:
    out = Outcome()
    header, rows = _csv(text)
    out.require(header == PHASES_HEADER, f"phases header {header}")
    out.require([r[0] for r in rows] == ["++", "+-", "-+", "--"], "phases rows out of branch order")
    if not out.ok:
        return out
    for row in rows:
        g_g, g_d, g_t, residual = (float(v) for v in row[1:5])
        if row[0] in ("+-", "-+"):
            out.require((g_g, g_d, g_t) == (0.0, 0.0, 0.0), f"{row[0]}: nonzero phase")
            continue
        _check_relations(out, row[0], g_g, g_d, g_t, _relation_tol(drive))
        out.require(residual <= 1e-6, f"{row[0]}: closure residual {residual}")
        out.require(row[5] != "" and abs(g_t - 2 * float(row[5])) <= 1e-6 * max(1, abs(g_t)),
                    f"{row[0]}: gamma != 2*area")
        err = abs(g_t - expect["gamma"])
        out.require(err <= expect["tol"] * max(1.0, abs(expect["gamma"])),
                    f"{row[0]}: gamma {g_t} vs reference {expect['gamma']}")
        if drive["shape"] != "sampled":
            out.note_phase(err)
    return out


def check_gate(text: str, drive: dict, expect: dict) -> Outcome:
    out = Outcome()
    header, rows = _csv(text)
    out.require(header == GATE_HEADER, f"gate header {header}")
    out.require(len(rows) == 1, f"gate rows {len(rows)}")
    if not out.ok:
        return out
    row = dict(zip(header, rows[0]))
    out.require(row["method"] == expect["method"], f"method {row['method']}")
    out.require(row["nontrivial"] == "true", "gate reported trivial")
    diagonal = [complex(float(row[f"m{k}{k}_re"]), float(row[f"m{k}{k}_im"])) for k in range(4)]
    err = wrapped(float(row["extracted_gamma"]) - expect["gamma"])
    infidelity = gate_infidelity(diagonal, expect["gamma"], PRINTED_MODULUS_RESOLUTION)
    out.require(err <= expect["tol"], f"gate phase off reference by {err:.3e} > {expect['tol']:.3e}")
    out.require(1 - infidelity > MIN_FIDELITY, f"gate fidelity {1 - infidelity}")
    if expect["method"] != "numeric_rotating":
        out.note_phase(err)
        out.gate_infidelity = infidelity
    return out


def check_sweep(text: str, drive: dict, expect: dict) -> Outcome:
    out = Outcome()
    header, rows = _csv(text)
    out.require(header == [expect["field"]] + SWEEP_PHASE_COLUMNS, f"sweep header {header}")
    out.require(len(rows) == len(expect["values"]), f"sweep rows {len(rows)}")
    if not out.ok:
        return out
    for row, value, gamma in zip(rows, expect["values"], expect["gammas"]):
        swept, g_g, g_d, g_t, residual = (float(v) for v in row)
        label = f"sweep {expect['field']}={value}"
        out.require(_near(swept, value, 1e-11), f"{label}: row value {swept}")
        out.require(residual <= 1e-6, f"{label}: closure residual {residual}")
        _check_relations(out, label, g_g, g_d, g_t, _relation_tol(drive))
        err = abs(g_t - gamma)
        out.require(err <= expect["tol"] * max(1.0, abs(gamma)), f"{label}: gamma {g_t} vs {gamma}")
        out.note_phase(err)
    return out


def check_design(text: str, drive, expect: dict) -> Outcome:
    out = Outcome()
    fields = dict(line.split(" = ", 1) for line in text.splitlines()[1:] if " = " in line)
    out.require(text.startswith("[pulse]\n") and fields.get("shape") == "circular", "design output")
    if not out.ok:
        return out
    g0, nu, T = float(fields["g0"]), float(fields["nu"]), float(fields["T"])
    loops = int(fields["loops"])
    out.require(loops == expect["loops"] and g0 == expect["g0"], f"design fields {fields}")
    out.require(_near(circle_law(g0, nu, loops), expect["gamma"], 1e-12), "design misses the target phase")
    out.require(_near(T, loops * 2 * math.pi / abs(nu), 1e-12), "design duration is not whole loops")
    return out


def check_validate(text: str, drive, expect: dict) -> Outcome:
    out = Outcome()
    header, rows = _csv(text)
    out.require(header == [expect["column"]] + SCAN_COLUMNS, f"validate header {header}")
    out.require(len(rows) == len(expect["values"]), f"validate rows {len(rows)}")
    if not out.ok:
        return out
    values = np.array(rows, dtype=float)
    out.require(bool(np.all(np.isfinite(values))), "validate: non-finite entry")
    out.require(all(_near(v, w, 1e-11) for v, w in zip(values[:, 0], expect["values"])),
                "validate: scanned values differ from the config")
    if expect["column"] == "r0":
        out.require(bool(np.all(np.diff(values[:, 1]) <= 0)), "rwa scan infidelity not monotone")
    else:
        out.require(values[-1, 1] < 1e-8, "truncation scan not converged")
    return out


CLI_CHECKS = {
    "phases": check_phases,
    "gate": check_gate,
    "sweep": check_sweep,
    "design": check_design,
    "validate": check_validate,
}


def check_cli(op, returncode: int, stdout: str) -> Outcome:
    if returncode != 0:
        return Outcome([f"exit code {returncode}"])
    try:
        return CLI_CHECKS[op.kind](stdout, op.drive, op.expect)
    except (ValueError, KeyError, IndexError) as exc:
        return Outcome([f"unparseable output: {exc!r}"])


def branch_vacuum_columns(dim: int) -> np.ndarray:
    """|branch> (x) |0> columns in the bare qubit-qubit-Fock basis, branch order ++, +-, -+, --."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    vac = np.zeros((dim, 1), dtype=complex)
    vac[0, 0] = 1
    return np.kron(np.kron(h, h), vac)


def check_unitary(unitary: np.ndarray, expect: dict) -> Outcome:
    out = Outcome()
    cols = branch_vacuum_columns(expect["dim"])
    block = cols.conj().T @ unitary @ cols
    out.require(np.abs(np.diag(block)).min() >= 0.99, "cavity did not return to vacuum")
    if not out.ok:
        return out
    block = block / block[1, 1]
    err = wrapped(float(np.angle(block[0, 0])) - expect["gamma"])
    infidelity = gate_infidelity(np.diag(block), expect["gamma"])
    out.require(err <= expect["tol"], f"unitary phase off reference by {err:.3e} > {expect['tol']:.3e}")
    out.require(1 - infidelity > MIN_FIDELITY, f"unitary gate fidelity {1 - infidelity}")
    if expect["tier"] == "rwa":
        out.note_phase(err)
        out.gate_infidelity = infidelity
    return out
