"""Two-qubit phase-gate construction, quality metrics, and inverse pulse design.

A closed drive loop leaves every sigma_x branch where it started, multiplied
by a branch phase; the lambda = 0 middle branches acquire nothing, so the
cycle acts as diag(e^{i gamma}, 1, 1, e^{i gamma}) in the branch basis.
Gates are reported in the gauge where the middle entries are pinned to
exactly 1. The gate entangles product states iff gamma is not a multiple of
2*pi.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .design import GATE_METHODS, design_circle, nontriviality
from .errors import NonUnitaryResultError, StepTooCoarseError
from .evolve import UNITARITY_TOL, _embed_moving_rows, _step_moving_rows, step_count
from .fock import FockSpace
from .model import _MOVING_ROWS, Circular, HamiltonianTier, PulseSpec
from .phase import CLOSURE_STEPS, DEFAULT_PHASE_STEPS, solve_loop

# minimum vacuum-return amplitude for a trustworthy phase readout
_VACUUM_RETURN_MIN = 0.99

# largest rotating-tier dt * r0: about 30 steps per period pi / r0 of the fast e^{2i r0 t}
_STEP_RESOLUTION_LIMIT = 0.1


@dataclass(frozen=True)
class GateReport:
    """A 4x4 branch-basis gate with its extracted phase and quality residuals."""

    matrix: np.ndarray
    extracted_gamma: float
    diagonality_residual: float
    closure_residual: float
    fidelity: float
    nontrivial: bool
    method: str
    # numeric methods only: largest step-series order and norm drift of the stepped vacuum columns
    max_order: int = 0
    norm_drift: float = 0.0


def ideal_gate(gamma: float) -> np.ndarray:
    """diag(e^{i gamma}, 1, 1, e^{i gamma}) in branch order."""
    corner = cmath.exp(1j * gamma)
    return np.diag([corner, 1.0, 1.0, corner]).astype(complex)


def gate_fidelity(matrix: np.ndarray, reference: np.ndarray) -> float:
    """Normalized trace overlap |tr(ref^dag matrix)| / 4, global-phase insensitive."""
    return float(abs(np.trace(reference.conj().T @ matrix)) / 4.0)


def gate_matrix(
    pulse: PulseSpec,
    space: FockSpace,
    method: str = "analytic",
    dt: float | None = None,
    n_steps: int = DEFAULT_PHASE_STEPS,
) -> GateReport:
    """Build the cycle's gate either from accumulated branch phases or numerically.

    Every method first solves the ++ loop on CLOSURE_STEPS intervals: its
    |alpha(T)| is the reported closure residual, and that solve is the gate's
    one closure verdict: solve_loop refuses an open loop (gate phases are only
    defined for cyclic evolutions) or an overflowing drive. The analytic
    method is the ideal gate of the ++ total phase on n_steps intervals,
    solved without a second closure check. The numeric methods step the
    vacuum column of each moving row on the requested tier with step dt
    (T/4000 when None), read the 4x4 branch matrix off the vacuum rows of the
    stepped columns (every |branch> (x) |vacuum> amplitude that stays in
    vacuum), and report it gauged so the middle entries equal 1; the rotating
    tier raises StepTooCoarseError
    unless dt * r0 < 0.1 resolves its fast 2*r0 oscillation. dt applies only
    to the numeric methods and n_steps only to the analytic one.
    """
    if method not in GATE_METHODS:
        raise ValueError(f"method must be one of {GATE_METHODS}, got {method!r}")

    closure_residual = solve_loop(pulse, CLOSURE_STEPS).closure_residual("++")

    if method == "analytic":
        extracted = solve_loop(pulse, n_steps, require_closed=False).breakdown("++").gamma_total
        matrix = ideal_gate(extracted)
        diagonality = 0.0
        health = {}
    else:
        [(matrix, extracted, diagonality)], health = _numeric_gates([pulse], space, method, dt)

    fidelity = gate_fidelity(matrix, ideal_gate(extracted))
    return GateReport(
        matrix=matrix,
        extracted_gamma=extracted,
        diagonality_residual=diagonality,
        closure_residual=closure_residual,
        fidelity=fidelity,
        nontrivial=nontriviality(extracted),
        method=method,
        **health,
    )


def _numeric_gates(pulses, space, method, dt):
    """(matrix, gamma, diagonality) per pulse, and the largest max_order and norm_drift over the pulses.

    The pulses share T, dt and one step budget. Every precondition is judged
    before the first pulse is stepped; then the pulses are stepped one at a time.
    """
    tier = HamiltonianTier.RWA_EFFECTIVE if method == "numeric_rwa" else HamiltonianTier.ROTATING_FRAME
    T = pulses[0].T
    if dt is None:
        dt = T / 4000
    max_r0 = max(pulse.r0 for pulse in pulses)
    # only the rotating tier keeps the 2*r0 oscillation; "not <" refuses an overflowing product too
    if tier is HamiltonianTier.ROTATING_FRAME and not (dt * max_r0 < _STEP_RESOLUTION_LIMIT):
        raise StepTooCoarseError(
            f"dt * max(r0) = {dt * max_r0:.3g} >= {_STEP_RESOLUTION_LIMIT}; "
            "the 2*r0 oscillation would be unresolved; reduce dt"
        )
    step_count(0.0, T, dt, T, copies=len(pulses))
    # the vacuum column of each moving row: the ++ row on the RWA tier, the triplet rows otherwise
    rows = _MOVING_ROWS[tier]
    start = np.zeros((rows * space.dim, rows))
    start[:: space.dim] = np.eye(rows)
    gates, top, drift = [], 0, 0.0
    for pulse in pulses:
        moved, _, order = _step_moving_rows(tier, pulse, space, start, 0.0, T, dt)
        column_drift = float(np.max(np.abs(np.linalg.norm(moved, axis=0) - 1.0)))
        if not (column_drift <= UNITARITY_TOL):
            raise NonUnitaryResultError(
                f"state norms drifted by {column_drift:.3e}; reduce dt or enlarge the Fock space"
            )
        # the vacuum rows of the stepped columns, on all four branches; the RWA -- entry is
        # the ++ entry, since the vacuum has even parity
        matrix = _embed_moving_rows(moved[:: space.dim], 1, np.eye(4))
        returns = np.abs(np.diag(matrix))
        if not (returns.min() >= _VACUUM_RETURN_MIN):
            raise NonUnitaryResultError(
                f"cavity failed to return to vacuum (min overlap {returns.min():.4f}); "
                "enlarge the Fock space or reduce dt"
            )
        matrix = matrix / matrix[1, 1]
        off = matrix - np.diag(np.diag(matrix))
        gates.append((matrix, float(np.angle(matrix[0, 0])), float(np.abs(off).max())))
        top, drift = max(top, order), max(drift, column_drift)
    return gates, {"max_order": top, "norm_drift": drift}


def design_circular_pulse(
    target_gamma: float,
    g0: float | None = None,
    T: float | None = None,
    loops: int = 1,
) -> PulseSpec:
    """The circular drive :func:`loopgate.design.design_circle` solves for, with phase0 = 0 and r0 = 0."""
    g0, nu, T = design_circle(target_gamma, g0, T, loops)
    return PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=0.0), T=T)


def entangling_check(report: GateReport) -> float:
    """Entanglement entropy (base 2) the gate generates from the uniform product state.

    Applies the gate to (|+> + |->)(|+> + |->)/2 and returns the von Neumann
    entropy of either reduced qubit; positive exactly when the gate phase is
    not a multiple of 2*pi.
    """
    psi = report.matrix @ (np.ones(4, dtype=complex) / 2.0)
    block = psi.reshape(2, 2)
    rho = block @ block.conj().T
    rho = rho / np.trace(rho).real
    probs = np.linalg.eigvalsh(rho)
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


__all__ = [
    "GATE_METHODS",
    "GateReport",
    "design_circular_pulse",
    "entangling_check",
    "gate_fidelity",
    "gate_matrix",
    "ideal_gate",
    "nontriviality",
]
