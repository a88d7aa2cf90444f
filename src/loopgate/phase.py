"""Phase bookkeeping along the cavity's phase-space loop.

For each sigma_x branch the coherent trajectory alpha(t) picks up

* a geometric phase   (i/2) integral of (conj(alpha) d/dt alpha - c.c.) dt,
  equal to minus twice the signed area enclosed by the loop,
* a dynamical phase   minus the time integral of the coherent-state energy
  expectation, which reduces to (i/4) lambda^2 integral of G(t) dt with
  G(t) = g(t) * integral(conj(g)) - conj(g(t)) * integral(g).

For a closed loop the total phase obeys gamma = -gamma_g = gamma_d / 2, so
the dynamical part carries the same loop-area dependence as the geometric
part and no cancellation step is needed. Phases are reported unwrapped so
multi-loop drives show additivity; reduction mod 2*pi happens only in the
gate-level nontriviality test.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OpenLoopError, SimulationGuard
from .evolve import Trajectory, alpha_trajectory
from .model import PiecewiseConstant, PulseSpec, branch_lambda, cumulative_drive_integral

DEFAULT_PHASE_STEPS = 200_000

_CLOSURE_REL_TOL = 1e-6


def closure_tolerance(alphas: np.ndarray, closure_tol: float | None = None) -> float:
    """Default closure tolerance, scaled to the loop size so large loops are not misflagged."""
    if closure_tol is not None:
        return closure_tol
    return _CLOSURE_REL_TOL * max(1.0, float(np.abs(alphas).max()))


@dataclass(frozen=True)
class PhaseBreakdown:
    """Geometric, dynamical and total phase for one branch, unwrapped."""

    gamma_g: float
    gamma_d: float
    gamma_total: float
    branch: str


def drive_phase_integral(pulse: PulseSpec, n_steps: int = DEFAULT_PHASE_STEPS) -> complex:
    """Integral of G(t) over the cycle; exact segment sums for piecewise drives."""
    shape = pulse.g_shape
    if isinstance(shape, PiecewiseConstant):
        durations = np.array([d for d, _ in shape.segments])
        values = np.array([g for _, g in shape.segments])
        prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(values * durations)))[:-1]
        g_vals = values * prefix.conjugate() - values.conjugate() * prefix
        return complex(np.sum(g_vals * durations))
    grid = np.linspace(0.0, pulse.T, n_steps + 1)
    run = cumulative_drive_integral(pulse, grid)
    g_vals = np.asarray(pulse.g(grid))
    integrand = g_vals * run.conjugate() - g_vals.conjugate() * run
    return complex(np.sum(np.diff(grid) * (integrand[1:] + integrand[:-1]) / 2.0))


@dataclass(frozen=True)
class LoopSolution:
    """One drive cycle solved on the ++ branch, with every other branch derived from it.

    Branch lambda traces (lambda/2) times the ++ loop, so its closure residual
    scales with |lambda/2| and its phases and area with (lambda/2)^2: the --
    branch repeats the ++ numbers and the lambda = 0 branches report +0.0.
    """

    trajectory: Trajectory
    loop_sum: float
    drive_integral: complex
    closure_tol: float

    def breakdown(self, branch: str) -> PhaseBreakdown:
        """Geometric, dynamical and total phase of one branch, unwrapped."""
        lam = branch_lambda(branch)
        if lam == 0:
            return PhaseBreakdown(0.0, 0.0, 0.0, branch)
        gamma_g = -self.loop_sum * (lam * lam / 4)
        gamma_d = (0.25j * lam * lam * self.drive_integral).real
        return PhaseBreakdown(gamma_g, gamma_d, gamma_g + gamma_d, branch)

    def closure_residual(self, branch: str) -> float:
        """|alpha(T)| of one branch; zero marks a cyclic evolution."""
        return abs(branch_lambda(branch) / 2) * float(abs(self.trajectory.alphas[-1]))

    def area(self, branch: str) -> float:
        """Shoelace signed area of the branch loop, positive for counterclockwise paths.

        Raises OpenLoopError when the loop does not close within the tolerance.
        """
        lam = branch_lambda(branch)
        if lam == 0:
            return 0.0
        alphas = self.trajectory.alphas
        residual = self.closure_residual(branch)
        if not (residual <= self.closure_tol):
            raise OpenLoopError(
                f"trajectory for branch {branch} is not closed: |alpha(T) - alpha(0)| = {residual:.6e}"
            )
        closing = float((np.conjugate(alphas[-1]) * alphas[0]).imag)
        return (lam * lam / 4) * 0.5 * (self.loop_sum + closing)


def solve_loop(
    pulse: PulseSpec,
    n_steps: int = DEFAULT_PHASE_STEPS,
    closure_tol: float | None = None,
    require_closed: bool = True,
) -> LoopSolution:
    """Sample the ++ loop on n_steps intervals and integrate G once, for every branch.

    Raises OpenLoopError when the loop fails to close and require_closed is
    set; the closed-loop proportionality relations are meaningless for open
    paths. Raises SimulationGuard when the loop sum or the G integral is not
    finite: the drive is too strong for double precision.
    """
    traj = alpha_trajectory(pulse, "++", n_steps + 1)
    tol = closure_tolerance(traj.alphas, closure_tol)
    residual = float(abs(traj.alphas[-1]))
    if require_closed and not (residual <= tol):
        raise OpenLoopError(f"trajectory for branch ++ does not close: |alpha(T)| = {residual:.6e}")
    # discrete Im(integral of conj(alpha) dalpha) along the sampled path
    loop_sum = float(np.sum((np.conjugate(traj.alphas[:-1]) * traj.alphas[1:]).imag))
    drive_integral = drive_phase_integral(pulse, n_steps)
    if not (math.isfinite(loop_sum) and cmath.isfinite(drive_integral)):
        raise SimulationGuard(
            "phase sums over the drive cycle are not finite; "
            "the drive is too strong for double-precision arithmetic"
        )
    return LoopSolution(traj, loop_sum, drive_integral, tol)


def total_phase(
    pulse: PulseSpec,
    branch: str,
    n_steps: int = DEFAULT_PHASE_STEPS,
    closure_tol: float | None = None,
    require_closed: bool = True,
) -> PhaseBreakdown:
    """Geometric plus dynamical phase for one branch of a closed-loop drive; see solve_loop."""
    return solve_loop(pulse, n_steps, closure_tol, require_closed).breakdown(branch)
