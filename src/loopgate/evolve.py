"""Numeric time-ordered propagation: the matrix engine.

The numeric engine approximates the time-ordered evolution of any tier under
one pulse as a product of short-time exponentials with midpoint sampling
(second order in the step for continuous drives). It steps a block of the rows
that move, on one path for every tier: the tier's operators on its moving
rows, from :func:`loopgate.model.hamiltonian_operators`, whose qubit factors
are built once per tier. The moving rows are the 3 dim exchange-symmetric
(triplet) rows on the rotating and full tiers, and the dim cavity rows of the
|++> branch alone on the RWA tier, where the operators are 2 a and 2 a^dag.
There the |--> rows are the parity mirror of the |++> rows: P = (-1)^n flips
the sign of a, so the |--> generator is P times the |++> generator times P.
The singlet rows, and on the RWA tier both middle branches, never move. The
full propagator (:func:`propagate_numeric`) is the stepped identity of the
moving rows, and the numeric gate (:mod:`loopgate.gate`) their stepped vacuum
columns. Both take one path, which refuses a stepped block X whose unitarity
defect max|X^dag X - I| exceeds UNITARITY_TOL, and places X on all four qubit
rows by one embedding, I + Q (X - I) Q^dag, so no product with a 4 dim side
is formed.
It refuses more than MAX_SAMPLES steps, over one propagation or over all the
numeric gates of one command together, before building any array
(:func:`step_count`); the budget is that of the scalar loop engine in
:mod:`loopgate.phase`, which needs no matrices.

The steps are walked in runs of consecutive steps with exactly equal weights.
A run of L steps on an m x N block goes through one step matrix W, the step
series on the m x m identity, when L N > m, which costs fewer flops than L
series on the block; every other run steps the block through the series at
each step. W^L reaches the block by repeated squaring: while L is even and
L N > 2 m, W is squared and L halved, otherwise W is applied once and L drops
by one, so a run costs O(log L) products. A piecewise drive on the RWA and
full tiers is one run per segment. A circular drive is stepped in its rest
frame (:func:`loopgate.model.rest_frame`), where every midpoint generator is
that of the first midpoint, so its whole window is one run through one weight
row. Sampled drives, and piecewise drives on the rotating tier, whose fast
phase turns at every step, take a new generator at each step. A step whose
generator norm bound exceeds SUBSTEP_NORM is split into equal substeps, which
count against MAX_SAMPLES and are a run of their own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryResultError, SimulationGuard
from .fock import FockSpace
from .model import (
    _MOVING_ROWS,
    _TRIPLET,
    HamiltonianTier,
    PulseSpec,
    hamiltonian_operators,
    hamiltonian_weights,
    rest_frame,
    sigma_x_basis_change,
)
from .phase import MAX_SAMPLES

# the step product stays unitary to roundoff; anything above this signals misuse
UNITARITY_TOL = 1e-8

# a step series still above roundoff after this many terms is rejected
SERIES_TERMS = 29
# a step whose generator norm bound x exceeds this is split into ceil(x / SUBSTEP_NORM)
# equal substeps, so that SERIES_TERMS terms always suffice. The series on a block B
# stops at the first term of squared Frobenius norm below its tolerance, and the term
# of order k has norm at most x^k / k! |B|. At x <= 2.5, (2.5^29 / 29!)^2 = 1.54e-39:
# on the m x m identity of a step matrix (|B|^2 = m), whose tolerance is 1e-32 / m,
# that suffices for m < 2548, above 3 MAX_DIM = 1536; on N unit columns (|B|^2 = N),
# whose tolerance is 1e-32, for N < 6.5e6
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
    max_order: int
    unitarity_defect: float


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


def _apply_power(matrix, block, length):
    """Return matrix^length @ block for an m x m matrix and an m x N block; block may be overwritten.

    One greedy loop: while length is even and length N > 2 m, the matrix is
    squared (m^3 flops, where the length / 2 products it saves cost m^2 N each)
    and length halves; otherwise the matrix is applied to the block once and
    length drops by one. So a long run costs O(log length) products, and a run
    with length N <= 2 m throughout takes exactly length products.
    """
    width = block.shape[1]
    spare = np.empty_like(block)
    while length:
        if length % 2 == 0 and length * width > 2 * len(matrix):
            matrix = matrix @ matrix
            length //= 2
        else:
            np.matmul(matrix, block, out=spare)
            block, spare = spare, block
            length -= 1
    return block


def _step_blocks(operators, norms, weights, h, block, frame=None, repeats=None):
    """Apply exp(-i h sum_j weights[k, j] operators[j]) for k = 0, 1, ... to an m x N block.

    Row k of ``weights`` serves ``repeats[k]`` consecutive steps, one each when
    ``repeats`` is None. ``norms`` holds the operators' 2-norms, which bound
    every step generator's norm x_k before the first step; a step with x_k
    above SUBSTEP_NORM is split into ceil(x_k / SUBSTEP_NORM) equal substeps,
    and all substeps count against MAX_SAMPLES. The steps are walked in runs of
    consecutive steps with exactly equal weights, which share one m x m
    generator. A run of L (sub)steps goes through one step matrix W, the series
    on the m x m identity, when L N > m, and reaches W^L by repeated squaring
    (:func:`_apply_power`); every other run steps the block through the series
    at each (sub)step. ``frame``, when given, is the (m,) diagonal D of the
    block's rest frame: its weights are those of the first midpoint, each step
    is followed by exp(-i h D), and exp(i n h D) after the last step brings the
    product back. Returns the block and the largest series order used; a step
    matrix's order is that of its series on the identity.
    """
    repeats = np.ones(len(weights), dtype=int) if repeats is None else np.asarray(repeats)
    n = int(repeats.sum())
    coeffs = (-1j * h) * weights
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.abs(coeffs) @ norms
    bound = float(np.max(bounds))
    if not math.isfinite(bound * bound):  # nan, inf, or a norm no substep budget could split
        raise SimulationGuard(f"drive too strong for double precision: step generator norm {bound:.3g}")
    turn = 0.0 if frame is None else n * h * float(np.max(np.abs(frame)))
    if not math.isfinite(turn):
        raise SimulationGuard(f"drive too fast for double precision: rest frame turns by {turn:.3g}")
    substeps = np.maximum(1.0, np.ceil(bounds / SUBSTEP_NORM))
    total = (substeps * repeats).sum()
    if not (total <= MAX_SAMPLES):
        raise SimulationGuard(
            f"{total:.4g} substeps needed for step generator norms up to {bound:.3g}, "
            f"above the limit of {MAX_SAMPLES}; weaken the drive"
        )
    block = np.array(block, dtype=complex)
    m, width = block.shape
    # a column of norm s has an entry of modulus >= s / sqrt(m), and steps keep
    # norms, so |term|^2 < tol is never looser than max|term| < 1e-16 max(1, max|block|)
    tol = 1e-32 * max(1.0, float(np.max(np.linalg.norm(block, axis=0))) ** 2 / m)
    # the operators are sparse: each run rewrites only the entries they touch
    support = np.flatnonzero(np.any(operators, axis=0))
    values = operators.reshape(len(operators), -1)[:, support]
    generator = np.zeros((m, m), dtype=complex)
    spin = None if frame is None else np.exp(-1j * h * frame)[:, None]
    # a run: consecutive steps with exactly equal weights, which share one generator
    starts = np.flatnonzero(np.concatenate(([True], np.any(weights[1:] != weights[:-1], axis=1))))
    top = 0
    for start, length in zip(starts, np.add.reduceat(repeats, starts)):
        parts = int(substeps[start])
        generator.reshape(-1)[support] = (coeffs[start] if parts == 1 else coeffs[start] / parts) @ values
        if length * parts * width > m:
            # one step matrix serves the whole run
            matrix = np.eye(m, dtype=complex)
            # 1e-32 / m: m times below tol's rule for the identity's unit columns (see SUBSTEP_NORM)
            top = max(top, _series(generator, matrix, 1e-32 / m))
            matrix = np.linalg.matrix_power(matrix, parts)
            if spin is not None:
                matrix *= spin
            block = _apply_power(matrix, block, int(length))
        else:
            for _ in range(length):
                for _ in range(parts):
                    top = max(top, _series(generator, block, tol))
                if spin is not None:
                    block *= spin
    if frame is not None:
        block *= np.exp(1j * (n * h) * frame)[:, None]
    return block, top


def step_count(t0, t1, dt, T, copies=1):
    """The number of uniform steps of about dt over [t0, t1], within a drive cycle of length T.

    Refuses a window outside [0, T], and more than MAX_SAMPLES steps over
    ``copies`` such windows, before anything is built.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    if not (0 <= t0 < t1 <= T * (1 + 1e-12) + 1e-12):
        raise ValueError(f"need 0 <= t0 < t1 <= T, got t0={t0}, t1={t1}, T={T}")
    steps = (t1 - t0) / dt
    if not (steps * copies <= MAX_SAMPLES):
        raise SimulationGuard(f"{steps * copies:.4g} steps requested, above the limit of {MAX_SAMPLES}; raise dt")
    return max(1, math.ceil(steps - 1e-9))


def _embed_moving_rows(block, size, basis):
    """I + Q (X - I) Q^dag: the (4 size)^2 matrix that acts as X on the moving rows and as I elsewhere.

    X is the stepped block of the moving rows over ``size`` Fock levels (dim
    for the propagator, 1 for its vacuum block): (3 size)^2 on the triplet rows,
    or size^2 on the |++> rows of the RWA tier, whose |--> block is P X P with
    P = (-1)^n, since P flips the sign of a and so mirrors the |++> generator.
    ``basis`` holds the sigma_x branches as columns of the result's basis
    (:func:`loopgate.model.sigma_x_basis_change` for the bare basis, the 4 x 4
    identity for the branch basis), and Q is the moving rows written in it.
    The sum runs over the qubit indices of reshaped arrays.
    """
    eye = np.eye(len(block))
    if len(block) == size:
        parity = (-1.0) ** np.arange(size)
        moved = np.zeros((2, size, 2, size), dtype=complex)
        moved[0, :, 0] = block - eye
        moved[1, :, 1] = parity[:, None] * block * parity - eye
        qubit = basis[:, [0, 3]]
    else:
        moved = (block - eye).reshape(3, size, 3, size)
        qubit = basis @ _TRIPLET
    matrix = np.einsum("am,minj,bn->aibj", qubit, moved, qubit.conj()).reshape(4 * size, -1)
    matrix += np.eye(4 * size)
    return matrix


def _stepped(tier, pulse, space, t0, t1, dt, vacuum=False):
    """Step the moving rows over [t0, t1]: the matrix, the largest series order and the unitarity defect.

    The stepped block X is the identity of the moving rows, or with ``vacuum``
    the vacuum column of each moving row; every tier takes its operators on
    them, and its rest frame, from :mod:`loopgate.model` alike. A unitarity
    defect max|X^dag X - I| above UNITARITY_TOL is refused; the -- block P X P
    of the RWA tier has the same defect, since P only flips signs. The matrix
    is X placed by :func:`_embed_moving_rows`: the full bare-basis propagator,
    or with ``vacuum`` the 4 x 4 branch-basis block of the vacuum rows (every
    |branch> (x) |vacuum> amplitude that stays in vacuum), whose RWA -- entry
    is the ++ entry, since the vacuum has even parity.
    """
    block = np.eye(_MOVING_ROWS[tier] * space.dim)
    if vacuum:
        # a copy: a view would keep the whole identity alive while its columns are stepped
        block = block[:, :: space.dim].copy()
    n = step_count(t0, t1, dt, pulse.T)
    h = (t1 - t0) / n
    # a pulse with a rest frame is stepped there, where the weights of its first
    # midpoint serve all n steps
    frame = rest_frame(tier, pulse, space)
    if frame is None:
        weights, repeats = hamiltonian_weights(tier, pulse, t0 + (np.arange(n) + 0.5) * h), None
    else:
        weights, repeats = hamiltonian_weights(tier, pulse, np.array([t0 + 0.5 * h])), [n]
    block, top = _step_blocks(*hamiltonian_operators(tier, space), weights, h, block, frame, repeats)
    defect = float(np.abs(block.conj().T @ block - np.eye(block.shape[1])).max())
    if not (defect <= UNITARITY_TOL):
        raise NonUnitaryResultError(
            f"unitarity defect {defect:.3e} of the stepped block exceeds {UNITARITY_TOL:.1e}; "
            "reduce dt or enlarge the Fock space"
        )
    if vacuum:
        return _embed_moving_rows(block[:: space.dim], 1, np.eye(4)), top, defect
    return _embed_moving_rows(block, space.dim, sigma_x_basis_change()), top, defect


def propagate_numeric(
    tier: HamiltonianTier,
    pulse: PulseSpec,
    space: FockSpace,
    t0: float,
    t1: float,
    dt: float,
) -> NumericPropagation:
    """The full propagator over [t0, t1]: the stepped identity of the moving rows, on all four qubit rows."""
    return NumericPropagation(*_stepped(tier, pulse, space, t0, t1, dt))
