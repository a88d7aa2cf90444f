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
from .evolve import _stepped, step_count
from .fock import FockSpace
from .model import Circular, HamiltonianTier, PulseSpec, Sampled
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
    # numeric methods only: largest step-series order and unitarity defect max|X^dag X - I|
    # of the stepped vacuum columns X
    max_order: int = 0
    unitarity_defect: float = 0.0


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
    solved without a second closure check. A numeric method is one job on its
    tier for the numeric gate path (:func:`_numeric_gates`). dt applies only to
    the numeric methods on a sampled drive, the one drive stepped in time
    (T/4000 when None), where the rotating tier raises StepTooCoarseError
    unless dt * r0 < 0.1 resolves its fast 2*r0 oscillation; n_steps applies
    only to the analytic method.
    """
    if method not in GATE_METHODS:
        raise ValueError(f"method must be one of {GATE_METHODS}, got {method!r}")

    closure_residual = solve_loop(pulse, CLOSURE_STEPS).closure_residual("++")

    if method == "analytic":
        extracted = solve_loop(pulse, n_steps, require_closed=False).breakdown("++").gamma_total
        matrix, diagonality, max_order, defect = ideal_gate(extracted), 0.0, 0, 0.0
    else:
        tier = HamiltonianTier.RWA_EFFECTIVE if method == "numeric_rwa" else HamiltonianTier.ROTATING_FRAME
        [(matrix, extracted, diagonality, max_order, defect)] = _numeric_gates([(tier, pulse, space)], dt)

    return GateReport(
        matrix=matrix,
        extracted_gamma=extracted,
        diagonality_residual=diagonality,
        closure_residual=closure_residual,
        fidelity=gate_fidelity(matrix, ideal_gate(extracted)),
        nontrivial=nontriviality(extracted),
        method=method,
        max_order=max_order,
        unitarity_defect=defect,
    )


def _numeric_gates(jobs, dt):
    """(matrix, gamma, diagonality, max_order, unitarity_defect) of each (tier, pulse, space) job, in order.

    The one home of every numeric gate's preconditions. The jobs share T and
    dt (T/4000 when None), which acts on sampled drives alone: before the
    first job is propagated, every rotating-tier job on a sampled drive must
    resolve its 2*r0 oscillation, and the steps of all the sampled-drive jobs
    together must fit MAX_SAMPLES. Then the jobs are propagated one at a time:
    each propagates the vacuum column of each moving row, under the unitarity
    guard of :func:`loopgate.evolve._stepped`, refuses a cavity that does not
    return to vacuum, and gauges the 4x4 branch-basis vacuum block so the
    middle entries equal 1.
    """
    T = jobs[0][1].T
    dt = T / 4000 if dt is None else dt
    # only sampled drives are stepped in time, and only the rotating tier keeps the 2*r0
    # oscillation; "not <" refuses an overflowing product too
    stepped = [(tier, pulse) for tier, pulse, _ in jobs if isinstance(pulse.g_shape, Sampled)]
    rotating_r0 = [pulse.r0 for tier, pulse in stepped if tier is HamiltonianTier.ROTATING_FRAME]
    if rotating_r0 and not (dt * max(rotating_r0) < _STEP_RESOLUTION_LIMIT):
        raise StepTooCoarseError(
            f"dt * max(r0) = {dt * max(rotating_r0):.3g} >= {_STEP_RESOLUTION_LIMIT}; "
            "the 2*r0 oscillation would be unresolved; reduce dt"
        )
    if stepped:
        step_count(T, dt, copies=len(stepped))
    gates = []
    for tier, pulse, space in jobs:
        matrix, order, defect = _stepped(tier, pulse, space, 0.0, T, dt, vacuum=True)
        returns = np.abs(np.diag(matrix))
        if not (returns.min() >= _VACUUM_RETURN_MIN):
            raise NonUnitaryResultError(
                f"cavity failed to return to vacuum (min overlap {returns.min():.4f}); "
                "enlarge the Fock space" + (" or reduce dt" if isinstance(pulse.g_shape, Sampled) else "")
            )
        matrix = matrix / matrix[1, 1]
        off = matrix - np.diag(np.diag(matrix))
        gates.append((matrix, float(np.angle(matrix[0, 0])), float(np.abs(off).max()), order, defect))
    return gates


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

