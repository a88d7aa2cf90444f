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

from dataclasses import dataclass

import numpy as np

from .errors import OpenLoopError
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


def big_g(pulse: PulseSpec, t: float, n_steps: int = 4096) -> complex:
    """G(t) = g(t)*I*(t) - conj(g(t))*I(t) with I(t) the running drive integral.

    Purely imaginary up to quadrature error; the real part is a useful
    leakage diagnostic.
    """
    if t < 0 or t > pulse.T * (1 + 1e-12) + 1e-12:
        raise ValueError(f"t must lie in [0, T], got {t} with T={pulse.T}")
    if t == 0:
        return 0j
    grid = np.linspace(0.0, t, n_steps + 1)
    run = cumulative_drive_integral(pulse, grid)[-1]
    g_t = complex(pulse.g(t))
    return g_t * run.conjugate() - g_t.conjugate() * run


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


def _loop_phase(alphas: np.ndarray) -> float:
    """Discrete Im(integral of conj(alpha) dalpha) along the sampled path."""
    return float(np.sum((np.conjugate(alphas[:-1]) * alphas[1:]).imag))


def geometric_phase(pulse: PulseSpec, branch: str, n_steps: int = DEFAULT_PHASE_STEPS) -> float:
    """Quadrature of (i/2)(conj(alpha) d/dt alpha - c.c.) along the branch trajectory."""
    lam = branch_lambda(branch)
    if lam == 0:
        return 0.0
    traj = alpha_trajectory(pulse, branch, n_steps + 1)
    return -_loop_phase(traj.alphas)


def dynamical_phase(pulse: PulseSpec, branch: str, n_steps: int = DEFAULT_PHASE_STEPS) -> float:
    """Minus the integrated coherent-state energy, (i/4) lambda^2 integral of G."""
    lam = branch_lambda(branch)
    if lam == 0:
        return 0.0
    return (0.25j * lam * lam * drive_phase_integral(pulse, n_steps)).real


def total_phase(
    pulse: PulseSpec,
    branch: str,
    n_steps: int = DEFAULT_PHASE_STEPS,
    closure_tol: float | None = None,
    require_closed: bool = True,
) -> PhaseBreakdown:
    """Geometric plus dynamical phase for one branch of a closed-loop drive.

    Raises OpenLoopError when the trajectory fails to close and
    require_closed is set; the closed-loop proportionality relations are
    meaningless for open paths.
    """
    lam = branch_lambda(branch)
    traj = alpha_trajectory(pulse, branch, n_steps + 1)
    residual = float(abs(traj.alphas[-1]))
    if require_closed and not (residual <= closure_tolerance(traj.alphas, closure_tol)):
        raise OpenLoopError(
            f"trajectory for branch {branch} does not close: |alpha(T)| = {residual:.6e}"
        )
    if lam == 0:
        return PhaseBreakdown(0.0, 0.0, 0.0, branch)
    gamma_g = -_loop_phase(traj.alphas)
    gamma_d = (0.25j * lam * lam * drive_phase_integral(pulse, n_steps)).real
    return PhaseBreakdown(gamma_g, gamma_d, gamma_g + gamma_d, branch)


def enclosed_area(traj: Trajectory, closure_tol: float | None = None) -> float:
    """Shoelace signed area of the sampled loop, positive for counterclockwise paths."""
    alphas = traj.alphas
    residual = float(abs(alphas[-1] - alphas[0]))
    if not (residual <= closure_tolerance(alphas, closure_tol)):
        raise OpenLoopError(
            f"trajectory for branch {traj.branch} is not closed: |alpha(T) - alpha(0)| = {residual:.6e}"
        )
    closing = (np.conjugate(alphas[-1]) * alphas[0]).imag
    return 0.5 * (_loop_phase(alphas) + float(closing))
