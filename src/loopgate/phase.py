"""The scalar loop engine: phase bookkeeping along the cavity's phase-space loop.

For each sigma_x branch the coherent trajectory alpha(t) picks up

* a geometric phase   (i/2) integral of (conj(alpha) d/dt alpha - c.c.) dt,
  equal to minus twice the signed area enclosed by the loop,
* a dynamical phase   minus the time integral of the coherent-state energy
  expectation, which reduces to (i/4) lambda^2 integral of G(t) dt with
  G(t) = g(t) * integral(conj(g)) - conj(g(t)) * integral(g).

Branch lambda follows alpha = -(i/2) lambda conj(I) with I(t) the running
integral of the drive, so :func:`sample_loop` samples I once and
:func:`solve_loop` derives every branch's phases, closure residual and area
from it. For a closed loop the total phase obeys gamma = -gamma_g = gamma_d / 2,
so the dynamical part carries the same loop-area dependence as the geometric
part and no cancellation step is needed. Phases are reported unwrapped so
multi-loop drives show additivity; reduction mod 2*pi happens only in the
gate-level nontriviality test.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .design import DEFAULT_PHASE_STEPS
from .errors import OpenLoopError, SimulationGuard
from .model import Circular, PiecewiseConstant, PulseSpec, branch_lambda, cumulative_drive_integral

# longest time grid of one solve_loop, of one sampled-drive propagation, and of the
# sampled-drive gates of one command together (gate._numeric_gates): measured peak RSS
# grows by about 260 bytes per step of a sampled drive's rotating-tier gate at dim 4, and
# 90 bytes per solve_loop sample of a circular drive, 16 of them the unit phasor kept for
# the next solve on the grid (numpy 2.4, x86-64 Linux), so a run at the limit stays under
# 1 GB. Circles and polygons take no time steps: they count against this limit in the
# units of evolve.SUBSTEP_NORM instead, one exact piece per segment
MAX_SAMPLES = 2_000_000

# the resolution of every gate's closure verdict, numeric scans included
CLOSURE_STEPS = 20_000

_CLOSURE_REL_TOL = 1e-6


# the unit phasor of the last circular drive sampled, keyed by the bits of its grid (T and the
# sample count), nu and phase0, so 0.0 and -0.0 are different keys; the next solve on that
# grid, such as the next point of a g0 sweep, reuses it. One grid is kept, and its array is
# read-only
_last_phasor: tuple = (None, None)


def _phasor(shape: Circular, T: float, times: np.ndarray) -> np.ndarray:
    """Circular.phasor on the grid times = linspace(0, T, len(times)), computed once per grid."""
    global _last_phasor
    key = (len(times), *(float(x).hex() for x in (T, shape.nu, shape.phase0)))
    cached, phasor = _last_phasor
    if cached != key:
        phasor = shape.phasor(times)
        phasor.flags.writeable = False
        _last_phasor = (key, phasor)
    return phasor


def sample_loop(pulse: PulseSpec, n_samples: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Uniform grid over the cycle, the drive samples g(t), the running integral I of g, and the ++ loop.

    The ++ loop is alpha = -i conj(I); I and alpha both start at 0. The drive is
    evaluated once, and a circular drive's unit phasor at most once per grid;
    piecewise drives integrate exactly by segments and sample no g, so theirs
    comes back None.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise SimulationGuard(
            f"{n_samples} trajectory samples requested, above the limit of {MAX_SAMPLES}; lower the step count"
        )
    times = np.linspace(0.0, pulse.T, n_samples)
    # a drive too strong for double precision overflows to inf or nan here; the
    # closure and finiteness guards downstream turn that into a SimulationGuard
    with np.errstate(over="ignore", invalid="ignore"):
        shape = pulse.g_shape
        if isinstance(shape, PiecewiseConstant):
            g_vals = None
        elif isinstance(shape, Circular):
            g_vals = shape.g0 * _phasor(shape, pulse.T, times)
        else:
            g_vals = np.asarray(pulse.g(times))
        run = cumulative_drive_integral(pulse, times, g_vals)
        alphas = -0.5j * branch_lambda("++") * np.conjugate(run)
    return times, g_vals, run, alphas


@dataclass(frozen=True)
class PhaseBreakdown:
    """Geometric, dynamical and total phase for one branch, unwrapped."""

    gamma_g: float
    gamma_d: float
    gamma_total: float
    branch: str


@dataclass(frozen=True)
class LoopSolution:
    """One drive cycle solved on the ++ branch, with every other branch derived from it.

    Branch lambda traces (lambda/2) times the ++ loop, so its closure residual
    scales with |lambda/2| and its phases and area with (lambda/2)^2: the --
    branch repeats the ++ numbers and the lambda = 0 branches report +0.0.
    """

    alpha_T: complex
    loop_sum: float
    drive_integral: complex
    # the resolved closure tolerance and the largest |alpha| of the ++ loop it scales with
    closure_tol: float
    excursion: float

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
        return abs(branch_lambda(branch) / 2) * float(abs(self.alpha_T))

    def area(self, branch: str) -> float:
        """Shoelace signed area of the branch loop, positive for counterclockwise paths.

        The loop starts at alpha = 0, so the closing edge adds nothing to the
        loop sum. Raises OpenLoopError when the loop does not close within the
        tolerance.
        """
        lam = branch_lambda(branch)
        if lam == 0:
            return 0.0
        residual = self.closure_residual(branch)
        if not (residual <= self.closure_tol):
            raise OpenLoopError(
                f"trajectory for branch {branch} is not closed: |alpha(T) - alpha(0)| = {residual:.6e}"
            )
        return (lam * lam / 4) * 0.5 * self.loop_sum


def solve_loop(pulse: PulseSpec, n_steps: int = DEFAULT_PHASE_STEPS, require_closed: bool = True) -> LoopSolution:
    """Sample the ++ loop on n_steps intervals and integrate G once, for every branch.

    One running integral I(t) of the drive gives the loop alpha = -i conj(I),
    its excursion max|alpha|, closure residual and loop sum, and the trapezoid
    integral of G = g conj(I) - conj(g) I; piecewise drives integrate G by
    exact segment sums instead. The loop counts as closed when |alpha(T)| <=
    1e-6 * max(1, max|alpha|), a tolerance that scales with the loop so large
    loops are not misflagged. Raises OpenLoopError when the loop fails to
    close and require_closed is set; the closed-loop proportionality relations
    are meaningless for open paths. Raises SimulationGuard when the loop sum or
    the G integral is not finite: the drive is too strong for double precision.
    """
    times, g_vals, run, alphas = sample_loop(pulse, n_steps + 1)
    excursion = float(np.abs(alphas).max())
    tol = _CLOSURE_REL_TOL * max(1.0, excursion)
    residual = float(abs(alphas[-1]))
    if require_closed and not (residual <= tol):
        raise OpenLoopError(f"trajectory for branch ++ does not close: |alpha(T)| = {residual:.6e}")
    # sums that overflow are caught by the finiteness guard below
    with np.errstate(over="ignore", invalid="ignore"):
        # discrete Im(integral of conj(alpha) dalpha) along the sampled path
        loop_sum = float(np.sum((np.conjugate(alphas[:-1]) * alphas[1:]).imag))
        alpha_T = alphas[-1]
        # the loop's samples are not read past here; freed before G is formed, they lower a
        # solve's peak by 16 bytes per sample, so it maps fewer fresh pages
        del alphas
        shape = pulse.g_shape
        if isinstance(shape, PiecewiseConstant):
            durations = np.array([d for d, _ in shape.segments])
            values = np.array([g for _, g in shape.segments])
            prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(values * durations)))[:-1]
            integrand = values * prefix.conjugate() - values.conjugate() * prefix
            drive_integral = complex(np.sum(integrand * durations))
        else:
            integrand = g_vals * run.conjugate() - g_vals.conjugate() * run
            drive_integral = complex(np.sum(np.diff(times) * (integrand[1:] + integrand[:-1]) / 2.0))
    if not (math.isfinite(loop_sum) and cmath.isfinite(drive_integral)):
        raise SimulationGuard(
            "phase sums over the drive cycle are not finite; "
            "the drive is too strong for double precision"
        )
    return LoopSolution(alpha_T, loop_sum, drive_integral, tol, excursion)
