"""Gate arithmetic in plain floats, so the ``design`` command and the config checks load no numpy.

A circular drive g0 * exp(i*(phase0 - nu*t)) run for ``loops`` full turns of
2*pi/nu traces a closed loop whose ++ total phase is the circle law
gamma = loops * 2*pi * g0^2 / nu^2; :func:`design_circle` inverts it.
"""

import math
import warnings

from .errors import InfeasibleConstraintError, TrivialTargetWarning

GATE_METHODS = ("analytic", "numeric_rwa", "numeric_rotating")

# the analytic phase engine's interval count when none is given
DEFAULT_PHASE_STEPS = 100_000

_NONTRIVIALITY_TOL = 1e-6


def nontriviality(gamma: float) -> bool:
    """True iff gamma sits further than 1e-6 from every multiple of 2*pi."""
    wrapped = math.remainder(gamma, 2 * math.pi)
    return abs(wrapped) > _NONTRIVIALITY_TOL


def design_circle(
    target_gamma: float,
    g0: float | None = None,
    T: float | None = None,
    loops: int = 1,
) -> tuple[float, float, float]:
    """Solve loops * 2*pi * g0^2 / nu^2 = target_gamma for a circular drive's (g0, nu, T).

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
        if not (0 < g0 < math.inf):
            raise InfeasibleConstraintError(f"g0 must be finite and > 0, got {g0}")
        given = f"g0 = {g0}"
        nu = g0 * math.sqrt(2 * math.pi * loops / target_gamma)
        T = loops * 2 * math.pi / nu if nu > 0 else math.inf
    else:
        if not (0 < T < math.inf):
            raise InfeasibleConstraintError(f"T must be finite and > 0, got {T}")
        given = f"T = {T}"
        nu = loops * 2 * math.pi / T
        g0 = nu * math.sqrt(target_gamma / (2 * math.pi * loops))
    # extreme inputs can overflow or underflow the derived values
    for name, value in (("nu", nu), ("T", T), ("g0", g0)):
        if not (0 < value < math.inf):
            raise InfeasibleConstraintError(f"{given} gives {name} = {value}; it must be finite and > 0")
    if not nontriviality(target_gamma):
        warnings.warn(
            f"target phase {target_gamma:.6g} is a multiple of 2*pi; the gate will be trivial",
            TrivialTargetWarning,
            stacklevel=2,
        )
    return g0, nu, T
