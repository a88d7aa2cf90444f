"""Two-qubit phase-gate construction, quality metrics, and inverse pulse design.

A closed drive loop leaves every sigma_x branch where it started, multiplied
by a branch phase; the lambda = 0 middle branches acquire nothing, so the
cycle acts as diag(e^{i gamma}, 1, 1, e^{i gamma}) in the branch basis.
Gates are reported in the gauge where the middle entries are pinned to
exactly 1. The gate entangles product states iff gamma is not a multiple of
2*pi.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraintError, NonUnitaryResultError, OpenLoopError, TrivialTargetWarning
from .evolve import alpha_trajectory, propagate_states
from .fock import FockSpace, vacuum
from .model import Circular, HamiltonianTier, PulseSpec, sigma_x_basis_change
from .phase import closure_tolerance, solve_loop

GATE_METHODS = ("analytic", "numeric_rwa", "numeric_rotating")

DEFAULT_NONTRIVIALITY_TOL = 1e-6

# minimum vacuum-return amplitude for a trustworthy phase readout
_VACUUM_RETURN_MIN = 0.99


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
    # numeric methods only: largest step-series order and state-norm drift
    max_order: int = 0
    norm_drift: float = 0.0


def ideal_gate(gamma: float) -> np.ndarray:
    """diag(e^{i gamma}, 1, 1, e^{i gamma}) in branch order."""
    corner = cmath.exp(1j * gamma)
    return np.diag([corner, 1.0, 1.0, corner]).astype(complex)


def gate_fidelity(matrix: np.ndarray, reference: np.ndarray) -> float:
    """Normalized trace overlap |tr(ref^dag matrix)| / 4, global-phase insensitive."""
    return float(abs(np.trace(reference.conj().T @ matrix)) / 4.0)


def nontriviality(gamma: float, tol: float = DEFAULT_NONTRIVIALITY_TOL) -> bool:
    """True iff gamma sits further than tol from every multiple of 2*pi."""
    wrapped = math.remainder(gamma, 2 * math.pi)
    return abs(wrapped) > tol


def gate_matrix(
    pulse: PulseSpec,
    space: FockSpace,
    method: str = "analytic",
    dt: float | None = None,
    n_steps: int | None = None,
    closure_tol: float | None = None,
) -> GateReport:
    """Build the cycle's gate either from accumulated branch phases or numerically.

    The analytic method assembles diag(e^{i gamma_++}, 1, 1, e^{i gamma_--})
    from the scalar phase engine (n_steps controls its resolution; a given
    dt maps to round(T/dt) steps). The numeric methods propagate the full
    composite system on the requested tier from every |branch> (x) |vacuum>
    state, project the final cavity state back on vacuum, and report the
    measured 4x4 branch matrix, gauged so the middle entries equal 1.
    """
    if method not in GATE_METHODS:
        raise ValueError(f"method must be one of {GATE_METHODS}, got {method!r}")

    traj = alpha_trajectory(pulse, "++", 20001)
    closure_residual = float(abs(traj.alphas[-1]))
    if not (closure_residual <= closure_tolerance(traj.alphas, closure_tol)):
        raise OpenLoopError(
            f"drive loop does not close: |alpha(T)| = {closure_residual:.6e}; "
            "gate phases are only defined for cyclic evolutions"
        )

    if method == "analytic":
        if n_steps is None:
            n_steps = max(2, round(pulse.T / dt)) if dt is not None else 200_000
        solution = solve_loop(pulse, n_steps, closure_tol=closure_tol)
        plus, minus = solution.breakdown("++"), solution.breakdown("--")
        matrix = np.diag(
            [cmath.exp(1j * plus.gamma_total), 1.0, 1.0, cmath.exp(1j * minus.gamma_total)]
        ).astype(complex)
        extracted = plus.gamma_total
        diagonality = 0.0
        health = {}
    else:
        [(matrix, extracted, diagonality)], result = _numeric_gates([pulse], space, method, dt)
        health = {"max_order": result.max_order, "norm_drift": result.norm_drift}

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
    """(matrix, gamma, diagonality) per pulse, stepped as one stack, and the propagation."""
    tier = HamiltonianTier.RWA_EFFECTIVE if method == "numeric_rwa" else HamiltonianTier.ROTATING_FRAME
    if dt is None:
        dt = pulses[0].T / 4000
    columns = np.kron(sigma_x_basis_change(), vacuum(space).reshape(-1, 1))
    result = propagate_states(tier, pulses, space, columns, 0.0, pulses[0].T, dt)
    gates = []
    for final in result.states:
        matrix = columns.conj().T @ final
        returns = np.abs(np.diag(matrix))
        if not (returns.min() >= _VACUUM_RETURN_MIN):
            raise NonUnitaryResultError(
                f"cavity failed to return to vacuum (min overlap {returns.min():.4f}); "
                "enlarge the Fock space or reduce dt"
            )
        matrix = matrix / matrix[1, 1]
        off = matrix - np.diag(np.diag(matrix))
        gates.append((matrix, float(np.angle(matrix[0, 0])), float(np.abs(off).max())))
    return gates, result


def design_circular_pulse(
    target_gamma: float,
    g0: float | None = None,
    T: float | None = None,
    loops: int = 1,
    r0: float = 0.0,
) -> PulseSpec:
    """Solve loops * 2*pi * g0^2 / nu^2 = target_gamma for a circular drive.

    Exactly one of g0 or T fixes the remaining freedom. Targets that are
    multiples of 2*pi are solvable but produce an identity gate; a
    TrivialTargetWarning is emitted for those.
    """
    if target_gamma <= 0 or not math.isfinite(target_gamma):
        raise InfeasibleConstraintError(f"target phase must be positive, got {target_gamma}")
    if loops < 1 or int(loops) != loops:
        raise InfeasibleConstraintError(f"loops must be a positive integer, got {loops}")
    loops = int(loops)
    if (g0 is None) == (T is None):
        raise InfeasibleConstraintError("exactly one of g0 or T must be fixed")
    if g0 is not None:
        if g0 <= 0:
            raise InfeasibleConstraintError(f"g0 must be > 0, got {g0}")
        nu = g0 * math.sqrt(2 * math.pi * loops / target_gamma)
        T = loops * 2 * math.pi / nu
    else:
        if T <= 0:
            raise InfeasibleConstraintError(f"T must be > 0, got {T}")
        nu = loops * 2 * math.pi / T
        g0 = nu * math.sqrt(target_gamma / (2 * math.pi * loops))
    if not nontriviality(target_gamma):
        warnings.warn(
            f"target phase {target_gamma:.6g} is a multiple of 2*pi; the gate will be trivial",
            TrivialTargetWarning,
            stacklevel=2,
        )
    return PulseSpec(g_shape=Circular(g0=g0, nu=nu, phase0=0.0), T=T, r0=r0)


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
