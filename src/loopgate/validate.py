"""Cross-tier physics validation scans.

Two numerical hygiene checks on the gate (the 4x4 object after cavity
projection, which is what the library delivers):

* how fast the strong-driving approximation becomes exact as the classical
  drive r0 grows, measured as gate infidelity between the rotating-frame
  tier and the strong-driving tier, and
* how quickly reported gate quantities converge as the Fock truncation is
  enlarged.
"""

import math
from dataclasses import dataclass, replace

from .errors import SimulationGuard, TruncationGuardError
from .fock import FockSpace
from .gate import _numeric_gates, gate_fidelity, ideal_gate
from .model import PulseSpec
from .phase import CLOSURE_STEPS, solve_loop

_CONVERGENCE_THRESHOLD = 1e-8

# largest n_r0 * dim^2 of an rwa scan. Its rotating-tier gates are stepped one at a
# time, each as three vacuum columns of the 3 dim triplet rows, so the scan's memory is
# that of one gate and its time grows with the number of gates; below dim 8 the fixed
# cost of each gate (about 0.4 ms) dominates, so dim counts as 8 there. Measured at the
# limit on a one-loop circle with T = 1 (numpy 2.4, x86-64 Linux, 2 vCPUs, one BLAS
# thread): 7 r0 values at dim 512 take 5.3 s and peak at 0.30 GB RSS stepping the
# columns through the series with 20 steps each, and 66 s and 0.30 GB with 400 (the
# series serves up to 512 steps there), and 49 s and 0.41 GB through step matrices
# with 600; 31 250 at dim 8 take 13-19 s and peak at 56 MB with 1, 6, 8, 9 or 64 steps
# each (64 is MAX_SAMPLES steps in all)
MAX_SCAN_SIZE = 2_000_000


@dataclass(frozen=True)
class ScanRow:
    parameter_value: float
    infidelity: float
    diagonality_residual: float
    phase_error: float


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ScanRow, ...]
    monotone_flag: bool
    kind: str


def _wrapped_phase_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2 * math.pi))


def rwa_error_scan(
    pulse: PulseSpec,
    r0_values: list[float],
    space: FockSpace,
    dt: float,
) -> ValidationReport:
    """Rotating-frame gate versus strong-driving gate across classical drive strengths.

    One solve_loop on CLOSURE_STEPS intervals is the closure verdict of every
    gate: it refuses an open or overflowing loop before anything is stepped.
    The rotating-frame gates come next, through the numeric gate path: it
    refuses the scan unless dt * max(r0) < 0.1 and their steps together fit
    MAX_SAMPLES, and only then steps them one at a time. The strong-driving
    gate does not depend on r0 and is stepped last, once.
    monotone_flag records whether infidelity never increases along the scan.
    """
    values = [float(v) for v in r0_values]
    if not values:
        raise ValueError("r0_values must be nonempty")
    if any(v <= 0 for v in values):
        raise ValueError("r0_values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("r0_values must be strictly ascending")
    size = len(values) * max(space.dim, 8) ** 2
    if size > MAX_SCAN_SIZE:
        raise SimulationGuard(
            f"{len(values)} r0 values at dim {space.dim}: n_r0 * max(dim, 8)^2 = {size}, "
            f"above the limit of {MAX_SCAN_SIZE}; scan fewer r0 values or lower dim"
        )
    # the closure verdict of every gate below, judged before anything is stepped
    solve_loop(pulse, CLOSURE_STEPS)
    # every r0 shares T and dt, and the rotating-frame gates share one step budget
    gates, _ = _numeric_gates([replace(pulse, r0=r0) for r0 in values], space, "numeric_rotating", dt)
    [(reference, reference_gamma, _)], _ = _numeric_gates([pulse], space, "numeric_rwa", dt)
    rows = [
        ScanRow(
            parameter_value=r0,
            infidelity=1.0 - gate_fidelity(matrix, reference),
            diagonality_residual=diagonality,
            phase_error=_wrapped_phase_distance(gamma, reference_gamma),
        )
        for r0, (matrix, gamma, diagonality) in zip(values, gates)
    ]
    monotone = all(b.infidelity <= a.infidelity for a, b in zip(rows, rows[1:]))
    return ValidationReport(rows=tuple(rows), monotone_flag=monotone, kind="rwa")


def truncation_scan(pulse: PulseSpec, dims: list[int], dt: float) -> ValidationReport:
    """Gate-fidelity drift between consecutive Fock truncations.

    Row i reports |fidelity(dim_i) - fidelity(dim_{i-1})| in the infidelity
    column (0 for the first row) plus each gate's diagonality residual and
    the phase drift from the previous dim. One solve_loop on CLOSURE_STEPS
    intervals is the closure verdict of every dim's RWA-tier gate, and its
    max|alpha| sets the floor every dim must meet: dim >= 4 * max|alpha|^2.
    monotone_flag records whether the final drift is below the convergence
    threshold.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("dims must be nonempty")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly ascending")
    excursion = solve_loop(pulse, CLOSURE_STEPS).excursion
    # a float power raises OverflowError where a product gives inf
    floor = 4.0 * excursion * excursion
    if any(d < floor for d in dims):
        raise TruncationGuardError(
            f"every dim must be >= 4 * max|alpha|^2 = {floor:.3g}; got {dims}"
        )
    spaces = [FockSpace(d) for d in dims]
    gates = []
    for space in spaces:
        [(matrix, gamma, diagonality)], _ = _numeric_gates([pulse], space, "numeric_rwa", dt)
        # the fidelity gate_matrix reports: the overlap with the ideal gate of its own phase
        gates.append((gate_fidelity(matrix, ideal_gate(gamma)), gamma, diagonality))
    # the first dim is compared with itself, which gives exactly 0 for both drifts
    rows = [
        ScanRow(
            parameter_value=float(d),
            infidelity=abs(fidelity - previous[0]),
            diagonality_residual=diagonality,
            phase_error=_wrapped_phase_distance(gamma, previous[1]),
        )
        for d, (fidelity, gamma, diagonality), previous in zip(dims, gates, [gates[0], *gates])
    ]
    converged = len(rows) < 2 or rows[-1].infidelity < _CONVERGENCE_THRESHOLD
    return ValidationReport(rows=tuple(rows), monotone_flag=converged, kind="truncation")
