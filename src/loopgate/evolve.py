"""Numeric time-ordered propagation: the matrix engine.

The numeric engine approximates the time-ordered evolution of any tier as a
product of short-time exponentials with midpoint sampling (second order in
the step for continuous drives), for a block of state columns
(:func:`propagate_states`) or the full propagator (:func:`propagate_numeric`).
Both go through one step of the rows that move: on the rotating and full
tiers the 3 dim exchange-symmetric (triplet) rows, on the RWA tier the dim
cavity rows of the |++> branch alone. There the |--> rows ride in the same
block as their parity mirror: P = (-1)^n flips the sign of a, so the |-->
generator is P times the |++> generator times P, and P maps the stepped
columns back exactly. The singlet rows, and on the RWA tier both middle
branches, come back unchanged. The full propagator is the stepped identity
of the moving rows, placed in the 4 dim space through their small qubit
factor, so no product with a 4 dim side is formed.
It refuses more than MAX_SAMPLES steps before building any array; the scalar
loop engine in :mod:`loopgate.phase` needs no matrices and shares that budget.

The steps are walked in runs of consecutive steps with exactly equal weights.
A run of L steps on an m x N block goes through one step matrix, the step
series on the m x m identity applied L times, when L N > m, which costs fewer
flops than L series on the block; every other run steps the block through
the series at each step. A piecewise drive on the RWA and full tiers is one
run per segment. A circular drive is stepped in its rest frame
(:func:`loopgate.model.rest_frame`), where every midpoint generator is that
of the first midpoint, so its whole window is one run. Sampled drives, and
piecewise drives on the rotating tier, whose fast phase turns at every step,
take a new generator at each step. A step whose generator norm bound exceeds
SUBSTEP_NORM is split into equal substeps, which count against MAX_SAMPLES
and are a run of their own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryResultError, SimulationGuard
from .fock import FockSpace, annihilation, creation
from .model import (
    HamiltonianTier,
    PulseSpec,
    hamiltonian_operators,
    hamiltonian_weights,
    rest_frame,
    sigma_x_basis_change,
    triplet_rows,
)

# longest time grid, summed over stacked pulses: measured peak RSS grows by about
# 250 bytes per step on the rotating tier, for a circular or a sampled drive, and
# 100 bytes per phase.solve_loop sample (numpy 2.4, x86-64 Linux), so a run at the
# limit stays under 1 GB
MAX_SAMPLES = 2_000_000

# the step product stays unitary to roundoff; anything above this signals misuse
UNITARITY_TOL = 1e-8

# a step series still above roundoff after this many terms is rejected
SERIES_TERMS = 29
# a step whose generator norm bound x exceeds this is split into ceil(x / SUBSTEP_NORM)
# equal substeps, and the series then converges on every block: its tolerance asks
# for a last term below 1e-16 / sqrt(m N) of an m x N block with N <= m (a wider one
# goes through a step matrix, whose series runs on the m x m identity), and
# 2.5^29 / 29! = 3.9e-20 is below 1e-16 / m for every m <= 3 MAX_DIM
SUBSTEP_NORM = 2.5


@dataclass(frozen=True)
class NumericPropagation:
    """The full propagator, and the health of the block that was stepped.

    ``unitarity_defect`` is max|X^dag X - I| over the stepped identity X of the
    moving rows (the 3 dim triplet rows, or the dim |++> rows on the RWA tier,
    whose |--> mirror has the same defect); every other row is exactly the
    identity.
    """

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


def _series(gen, blocks, tol):
    """Add the Taylor terms of exp(gen) blocks to blocks, up to the first of squared norm below tol.

    Returns that term's order.
    """
    term = blocks
    for order in range(1, SERIES_TERMS + 1):
        term = gen @ term
        term *= 1.0 / order
        blocks += term
        if np.vdot(term, term).real < tol:
            return order
    raise NonUnitaryResultError("step series failed to converge; reduce dt")


def _step_blocks(operators, norms, weights, h, blocks, frame=None):
    """Apply exp(-i h sum_j weights[k, b, j] operators[j]) for k = 0, 1, ... to blocks (B, m, N).

    ``norms`` holds the operators' 2-norms, which bound every step generator's
    norm x_k before the first step; a step with x_k above SUBSTEP_NORM is
    split into ceil(x_k / SUBSTEP_NORM) equal substeps, and all substeps count
    against MAX_SAMPLES. The steps are walked in runs of consecutive steps
    with exactly equal weights. A run of L (sub)steps goes through one step
    matrix, the series on the m x m identity applied L times, when L N > m;
    every other run steps the blocks through the series at each (sub)step.
    ``frame``, when given, is the (B, m) diagonal D of each block's rest frame:
    its weights are those of the first midpoint, each step is followed by
    exp(-i h D), and exp(i n h D) after the last step brings the product back.
    Returns the blocks and the largest series order used; a step matrix's
    order is that of its series on the identity.
    """
    coeffs = (-1j * h) * weights
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.max(np.abs(coeffs) @ norms, axis=1)
    bound = float(np.max(bounds))
    if not math.isfinite(bound * bound):  # nan, inf, or a norm no substep budget could split
        raise SimulationGuard(f"drive too strong for double precision: step generator norm {bound:.3g}")
    turn = 0.0 if frame is None else len(weights) * h * float(np.max(np.abs(frame)))
    if not math.isfinite(turn):
        raise SimulationGuard(f"drive too fast for double precision: rest frame turns by {turn:.3g}")
    substeps = np.maximum(1.0, np.ceil(bounds / SUBSTEP_NORM))
    if not (substeps.sum() * len(blocks) <= MAX_SAMPLES):
        raise SimulationGuard(
            f"{substeps.sum() * len(blocks):.4g} substeps needed for step generator norms up to {bound:.3g}, "
            f"above the limit of {MAX_SAMPLES}; weaken the drive"
        )
    blocks = np.array(blocks, dtype=complex)
    count, m, width = blocks.shape
    # a column of norm s has an entry of modulus >= s / sqrt(m), and steps keep
    # norms, so |term|^2 < tol is never looser than max|term| < 1e-16 max(1, max|block|)
    tol = 1e-32 * max(1.0, float(np.max(np.linalg.norm(blocks, axis=1))) ** 2 / m)
    # the operators are sparse: each run rewrites only the entries they touch
    support = np.flatnonzero(np.any(operators, axis=0))
    values = operators.reshape(len(operators), -1)[:, support]
    gen = np.zeros((count, m, m), dtype=complex)
    spin = None if frame is None else np.exp(-1j * h * frame)[:, :, None]
    # a run: consecutive steps with exactly equal weights, which share one generator
    starts = np.flatnonzero(np.concatenate(([True], np.any(weights[1:] != weights[:-1], axis=(1, 2)))))
    top = 0
    for start, end in zip(starts, np.append(starts[1:], len(weights))):
        parts = int(substeps[start])
        step = coeffs[start] if parts == 1 else coeffs[start] / parts
        gen.reshape(count, -1)[:, support] = step @ values
        if (end - start) * parts * width > m:
            # one step matrix per block serves the whole run, one matmul per step
            for b in range(count):
                matrix = np.eye(m, dtype=complex)
                top = max(top, _series(gen[b], matrix, 1e-32 / m))  # tol's rule on the identity
                matrix = np.linalg.matrix_power(matrix, parts)
                if spin is not None:
                    matrix *= spin[b]
                block, spare = blocks[b], np.empty_like(blocks[b])
                for _ in range(end - start):
                    np.matmul(matrix, block, out=spare)
                    block, spare = spare, block
                blocks[b] = block
        else:
            for _ in range(end - start):
                for _ in range(parts):
                    top = max(top, _series(gen, blocks, tol))
                if spin is not None:
                    blocks *= spin
    if frame is not None:
        blocks *= np.exp(1j * (len(weights) * h) * frame)[:, :, None]
    return blocks, top


def _step_moving_rows(tier, pulses, space, start, t0, t1, dt):
    """Step ``start`` (moving row, column) over [t0, t1] under each pulse's generator.

    The moving rows are the dim |++> cavity rows on the RWA tier and the 3 dim
    triplet rows on the rotating and full tiers. Returns the stepped blocks,
    with a leading pulse axis, the step count and the largest series order used.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    T = min(p.T for p in pulses)
    if not (0 <= t0 < t1 <= T * (1 + 1e-12) + 1e-12):
        raise ValueError(f"need 0 <= t0 < t1 <= T, got t0={t0}, t1={t1}, T={T}")
    steps = (t1 - t0) / dt
    if not (steps * len(pulses) <= MAX_SAMPLES):
        raise SimulationGuard(
            f"{steps * len(pulses):.4g} steps requested, above the limit of {MAX_SAMPLES}; raise dt"
        )
    n = max(1, math.ceil(steps - 1e-9))
    h = (t1 - t0) / n
    times = t0 + (np.arange(n) + 0.5) * h
    # a pulse with a rest frame is stepped there, under the weights of its first midpoint
    frames = [rest_frame(tier, p, space) for p in pulses]
    weights = np.stack(
        [hamiltonian_weights(tier, p, times if f is None else np.full(n, times[0])) for p, f in zip(pulses, frames)],
        axis=1,
    )
    if tier is HamiltonianTier.RWA_EFFECTIVE:
        # (sigma1_x + sigma2_x) (x) a is diag(2, 0, 0, -2) (x) a in the branch basis
        operators = np.array([annihilation(space), creation(space)])
        norms = np.full(2, math.sqrt(space.dim - 1))  # ||a|| = ||a^dag||
        weights = 2.0 * weights
        # the ++ rows lead the triplet rows; the P x-- columns share their generator, so their frame
        frames = [None if frame is None else frame[: space.dim] for frame in frames]
    else:
        operators, norms = hamiltonian_operators(tier, space, triplet=True)
    # a pulse without a rest frame sits in the lab frame, D = 0, within a stack that has one
    frame = None
    if any(f is not None for f in frames):
        frame = np.array([np.zeros(len(start)) if f is None else f for f in frames])
    blocks = np.broadcast_to(start, (len(pulses), *start.shape))
    moved, top = _step_blocks(operators, norms, weights, h, blocks, frame)
    return moved, n, top


def _parity(space: FockSpace) -> np.ndarray:
    """The diagonal of the Fock parity P = (-1)^n."""
    return (-1.0) ** np.arange(space.dim)


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
    columns = np.asarray(states, dtype=complex).reshape(len(states), -1)
    width = columns.shape[1]
    if tier is HamiltonianTier.RWA_EFFECTIVE:
        # the -- columns ride with the ++ columns as P x--, and P maps them back exactly
        parity = _parity(space)[:, None]
        branches = (sigma_x_basis_change() @ columns.reshape(4, -1)).reshape(4, space.dim, width)
        start = np.concatenate([branches[0], parity * branches[3]], axis=1)
        moved, n, top = _step_moving_rows(tier, pulses, space, start, t0, t1, dt)
        rows = np.broadcast_to(branches, (len(pulses), *branches.shape)).copy()
        rows[:, 0] = moved[:, :, :width]
        rows[:, 3] = parity * moved[:, :, width:]
        final = (sigma_x_basis_change() @ rows.reshape(len(pulses), 4, -1)).reshape(len(pulses), *columns.shape)
    else:
        # the singlet rows never move: step the triplet coordinates x = W^dag columns
        # alone and add W (x_final - x_initial), so unmoved components return bit for bit
        triplet = triplet_rows()
        start = (triplet.conj().T @ columns.reshape(4, -1)).reshape(3 * space.dim, -1)
        moved, n, top = _step_moving_rows(tier, pulses, space, start, t0, t1, dt)
        shift = triplet @ (moved - start).reshape(len(pulses), 3, -1)
        final = columns + shift.reshape(len(pulses), *columns.shape)
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
    """The full propagator over [t0, t1]: I + Q (X - I) Q^dag.

    X is the stepped identity of the moving rows and Q their 4 x m qubit
    factor; the sum runs over the qubit indices of reshaped arrays.
    """
    rwa = tier is HamiltonianTier.RWA_EFFECTIVE
    eye = np.eye((1 if rwa else 3) * space.dim)
    stepped, n, top = _step_moving_rows(tier, (pulse,), space, eye, t0, t1, dt)
    block = stepped[0]
    if rwa:
        # the -- block is P (++ block) P; its defect is the same, since P only flips signs
        parity = _parity(space)
        moved = np.zeros((2, space.dim, 2, space.dim), dtype=complex)
        moved[0, :, 0] = block - eye
        moved[1, :, 1] = parity[:, None] * block * parity - eye
        qubit = sigma_x_basis_change()[:, [0, 3]]
    else:
        moved = (block - eye).reshape(3, space.dim, 3, space.dim)
        qubit = triplet_rows()
    defect = float(np.abs(block.conj().T @ block - eye).max())
    if not (defect <= UNITARITY_TOL):
        raise NonUnitaryResultError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}; "
            "reduce dt or enlarge the Fock space"
        )
    unitary = np.einsum("am,minj,bn->aibj", qubit, moved, qubit.conj()).reshape(4 * space.dim, -1)
    unitary += np.eye(4 * space.dim)
    return NumericPropagation(unitary, tier.value, n, top, defect)
