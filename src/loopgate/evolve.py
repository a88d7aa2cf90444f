"""Propagation engines: numeric time-ordered products and scalar displacement composition.

The numeric engine approximates the time-ordered evolution of any tier as a
product of short-time exponentials with midpoint sampling (second order in
the step for continuous drives). The analytic engine never touches matrices:
on the strong-driving tier each sigma_x branch evolves as a product of small
cavity displacements D(dalpha) with dalpha = -(i/2) * lambda * conj(g) * dt,
so the whole evolution reduces to an accumulated composition phase
Im(sum conj(alpha) dalpha) plus a residual displacement that vanishes for a
closed loop. The analytic engine is the precision reference for phases.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryResultError, SimulationGuard
from .fock import FockSpace, annihilation, creation
from .model import HamiltonianTier, PulseSpec, branch_lambda, cumulative_drive_integral
from .model import hamiltonian_table, sigma_x_basis_change

# the step product stays unitary to roundoff; anything above this signals misuse
UNITARITY_TOL = 1e-8

# a step series still above roundoff after this many terms is rejected
SERIES_TERMS = 29
# past this generator norm the last series term may still exceed the state itself
_STEP_NORM_LIMIT = math.factorial(SERIES_TERMS) ** (1 / SERIES_TERMS)


@dataclass(frozen=True)
class NumericPropagation:
    unitary: np.ndarray
    method: str
    step_count: int
    max_order: int
    unitarity_defect: float


@dataclass(frozen=True)
class StatePropagation:
    states: np.ndarray
    step_count: int
    max_order: int
    norm_drift: float


@dataclass(frozen=True)
class DisplacementPropagation:
    phase: float
    residual_displacement: complex
    step_count: int
    branch: str
    method: str = "displacement"


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space path of the cavity amplitude for one branch."""

    times: np.ndarray
    alphas: np.ndarray
    branch: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        alphas = np.asarray(self.alphas, dtype=complex)
        if times.ndim != 1 or times.shape != alphas.shape:
            raise ValueError("times and alphas must be 1-D arrays of equal length")
        if len(times) < 2:
            raise ValueError("a trajectory needs at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if alphas[0] != 0:
            raise ValueError("trajectories start at alpha = 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "alphas", alphas)


def _step_blocks(operators, weights, h, blocks):
    """Apply exp(-i h sum_j weights[k, b, j] operators[j]) for k = 0, 1, ... to blocks (B, m, N).

    Each step acts through a truncated Taylor series; returns the blocks and
    the largest series order used.
    """
    coeffs = (-1j * h) * weights
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.max(np.abs(coeffs) @ np.linalg.norm(operators, ord=2, axis=(1, 2))))
    if not math.isfinite(bound * bound):  # the convergence test below squares term norms
        raise SimulationGuard(f"drive too strong for double precision: step generator norm {bound:.3g}")
    if not (bound <= _STEP_NORM_LIMIT):
        raise NonUnitaryResultError(f"step generator norm {bound:.3g} outruns the step series; reduce dt")
    blocks = np.array(blocks, dtype=complex)
    # a column of norm s has an entry of modulus >= s / sqrt(m), and steps keep
    # norms, so |term|^2 < tol is never looser than max|term| < 1e-16 max(1, max|block|)
    tol = 1e-32 * max(1.0, float(np.max(np.linalg.norm(blocks, axis=1))) ** 2 / blocks.shape[1])
    # the operators are sparse: each step rewrites only the entries they touch
    support = np.flatnonzero(np.any(operators, axis=0))
    values = operators.reshape(len(operators), -1)[:, support]
    gen = np.zeros((len(blocks), *operators.shape[1:]), dtype=complex)
    top = 0
    for step in coeffs:
        gen.reshape(len(blocks), -1)[:, support] = step @ values
        term = blocks
        for order in range(1, SERIES_TERMS + 1):
            term = gen @ term
            term *= 1.0 / order
            blocks += term
            if np.vdot(term, term).real < tol:
                break
        else:
            raise NonUnitaryResultError("step series failed to converge; reduce dt")
        top = max(top, order)
    return blocks, top


def propagate_states(
    tier: HamiltonianTier,
    pulse: PulseSpec | list[PulseSpec],
    space: FockSpace,
    states: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> StatePropagation:
    """Apply the midpoint-sampled short-time product over [t0, t1] to a block of state columns.

    dt is rounded so the window divides into uniform steps; halving it reduces
    the error at second order for continuous drives. ``pulse`` may also be a
    sequence of pulses, stepped as one stack: the states then gain a leading
    pulse axis.
    """
    pulses = (pulse,) if isinstance(pulse, PulseSpec) else tuple(pulse)
    if not (dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    T = min(p.T for p in pulses)
    if not (0 <= t0 < t1 <= T * (1 + 1e-12) + 1e-12):
        raise ValueError(f"need 0 <= t0 < t1 <= T, got t0={t0}, t1={t1}, T={T}")
    n = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n
    tables = [hamiltonian_table(tier, p, space, t0 + (np.arange(n) + 0.5) * h) for p in pulses]
    operators, weights = tables[0][0], np.stack([w for _, w in tables], axis=1)
    columns = np.asarray(states, dtype=complex).reshape(len(states), -1)
    stack = np.broadcast_to(columns, (len(pulses), *columns.shape))
    if tier is HamiltonianTier.RWA_EFFECTIVE:
        # (sigma1_x + sigma2_x) (x) a is diag(2, 0, 0, -2) (x) a in the branch basis
        rows = sigma_x_basis_change() @ stack.reshape(len(pulses), 4, -1)
        lam_weights = weights[:, :, None, :] * np.array([[2.0], [-2.0]])
        outer, top = _step_blocks(
            np.array([annihilation(space), creation(space)]),
            lam_weights.reshape(n, -1, weights.shape[-1]),
            h,
            rows[:, [0, 3]].reshape(-1, space.dim, columns.shape[1]),
        )
        rows[:, [0, 3]] = outer.reshape(len(pulses), 2, -1)
        final = (sigma_x_basis_change() @ rows).reshape(stack.shape)
    else:
        final, top = _step_blocks(operators, weights, h, stack)
    drift = float(np.max(np.abs(np.linalg.norm(final, axis=1) - np.linalg.norm(columns, axis=0))))
    if not (drift <= UNITARITY_TOL):
        raise NonUnitaryResultError(f"state norms drifted by {drift:.3e}; reduce dt or enlarge the Fock space")
    shape = np.shape(states) if isinstance(pulse, PulseSpec) else (len(pulses), *np.shape(states))
    return StatePropagation(final.reshape(shape), n, top, drift)


def propagate_numeric(
    tier: HamiltonianTier,
    pulse: PulseSpec,
    space: FockSpace,
    t0: float,
    t1: float,
    dt: float,
) -> NumericPropagation:
    """The full propagator over [t0, t1]: :func:`propagate_states` of the identity columns."""
    result = propagate_states(tier, pulse, space, np.eye(4 * space.dim), t0, t1, dt)
    unitary = result.states
    defect = float(np.abs(unitary.conj().T @ unitary - np.eye(len(unitary))).max())
    if not (defect <= UNITARITY_TOL):
        raise NonUnitaryResultError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}; "
            "reduce dt or enlarge the Fock space"
        )
    return NumericPropagation(unitary, tier.value, result.step_count, result.max_order, defect)


def propagate_displacement(pulse: PulseSpec, branch: str, n_steps: int) -> DisplacementPropagation:
    """Compose the branch evolution out of n_steps small displacements.

    Returns the accumulated composition phase, the discrete form of
    Im(integral of conj(alpha) dalpha), and the residual displacement
    sum(dalpha), which tends to zero for a closed loop.
    """
    lam = branch_lambda(branch)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if lam == 0:
        return DisplacementPropagation(0.0, 0j, n_steps, branch)
    h = pulse.T / n_steps
    t_mid = (np.arange(n_steps) + 0.5) * h
    dalpha = -0.5j * lam * np.conjugate(pulse.g(t_mid)) * h
    partial = np.empty(n_steps, dtype=complex)
    partial[0] = 0.0
    np.cumsum(dalpha[:-1], out=partial[1:])
    phase = float(np.sum((np.conjugate(partial) * dalpha).imag))
    residual = complex(np.sum(dalpha))
    return DisplacementPropagation(phase, residual, n_steps, branch)


def alpha_trajectory(pulse: PulseSpec, branch: str, n_samples: int) -> Trajectory:
    """Cavity amplitude alpha(t) = -(i/2) * lambda * integral of conj(g) on a uniform grid."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    lam = branch_lambda(branch)
    times = np.linspace(0.0, pulse.T, n_samples)
    if lam == 0:
        return Trajectory(times, np.zeros(n_samples, dtype=complex), branch)
    alphas = -0.5j * lam * np.conjugate(cumulative_drive_integral(pulse, times))
    return Trajectory(times, alphas, branch)

