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

from .errors import NonUnitaryResultError
from .fock import FockSpace
from .model import HamiltonianTier, PulseSpec, branch_lambda, cumulative_drive_integral, hamiltonian_builder

# step exponentials are built from Hermitian eigendecompositions, so the
# product stays unitary to roundoff; anything above this signals misuse
UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class NumericPropagation:
    unitary: np.ndarray
    method: str
    step_count: int


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


def propagate_numeric(
    tier: HamiltonianTier,
    pulse: PulseSpec,
    space: FockSpace,
    t0: float,
    t1: float,
    dt: float,
) -> NumericPropagation:
    """Product of midpoint-sampled short-time exponentials over [t0, t1].

    The requested dt is rounded so the window divides into uniform steps.
    Halving dt reduces the deviation from the exact evolution at second
    order for continuous drives.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not (0 <= t0 < t1 <= pulse.T * (1 + 1e-12) + 1e-12):
        raise ValueError(f"need 0 <= t0 < t1 <= T, got t0={t0}, t1={t1}, T={pulse.T}")
    build = hamiltonian_builder(tier, pulse, space)
    n = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n
    dim = 4 * space.dim
    unitary = np.eye(dim, dtype=complex)
    for k in range(n):
        ham = build(t0 + (k + 0.5) * h)
        w, v = np.linalg.eigh(ham)
        step = (v * np.exp(-1j * w * h)) @ v.conj().T
        unitary = step @ unitary
    defect = np.abs(unitary.conj().T @ unitary - np.eye(dim)).max()
    if defect > UNITARITY_TOL:
        raise NonUnitaryResultError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}; "
            "reduce dt or enlarge the Fock space"
        )
    return NumericPropagation(unitary=unitary, method=tier.value, step_count=n)


def propagate_states(
    tier: HamiltonianTier,
    pulse: PulseSpec,
    space: FockSpace,
    states: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> np.ndarray:
    """Apply the midpoint short-time product to a block of state columns.

    Same stepping as :func:`propagate_numeric`, but each step exponential
    acts on the columns through a truncated series (the step generators have
    tiny norm, so a handful of terms reaches roundoff). Orders of magnitude
    cheaper than forming the full unitary when only a few initial states
    matter.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not (0 <= t0 < t1 <= pulse.T * (1 + 1e-12) + 1e-12):
        raise ValueError(f"need 0 <= t0 < t1 <= T, got t0={t0}, t1={t1}, T={pulse.T}")
    states = np.asarray(states, dtype=complex)
    block = states.reshape(len(states), -1).copy()
    norms = np.linalg.norm(block, axis=0)
    build = hamiltonian_builder(tier, pulse, space)
    n = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n
    for k in range(n):
        gen = (-1j * h) * build(t0 + (k + 0.5) * h)
        term = block
        for order in range(1, 30):
            term = (gen @ term) / order
            block = block + term
            if np.abs(term).max() < 1e-16 * max(1.0, np.abs(block).max()):
                break
        else:
            raise NonUnitaryResultError("step series failed to converge; reduce dt")
    drift = np.abs(np.linalg.norm(block, axis=0) - norms).max()
    if drift > UNITARITY_TOL:
        raise NonUnitaryResultError(
            f"state norms drifted by {drift:.3e} during propagation; "
            "reduce dt or enlarge the Fock space"
        )
    return block.reshape(states.shape)


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

