"""Numeric time-ordered propagation: the matrix engine.

The numeric engine builds the time-ordered evolution of any tier under one
pulse as a product of exponentials, one per piece of the window. It steps a
block of the rows that move, on one path for every tier: the tier's operators
on its moving rows, from :func:`loopgate.model.hamiltonian_operators`, whose
qubit factors are built once per tier. The moving rows are the 3 dim
exchange-symmetric (triplet) rows on the rotating and full tiers, and the dim
cavity rows of the |++> branch alone on the RWA tier, where the operators are
2 a and 2 a^dag. There the |--> rows are the parity mirror of the |++> rows:
P = (-1)^n flips the sign of a, so the |--> generator is P times the |++>
generator times P. The singlet rows, and on the RWA tier both middle branches,
never move. The full propagator (:func:`propagate_numeric`) is the propagated
identity of the moving rows, and the numeric gate (:mod:`loopgate.gate`) their
propagated vacuum columns. Both take one path, which refuses a block X whose
unitarity defect max|X^dag X - I| exceeds UNITARITY_TOL, and places X on all
four qubit rows by one embedding, I + Q (X - I) Q^dag, so no product with a
4 dim side is formed.

Circles and polygons are propagated exactly, with no time step. In the rest
frame D of :func:`loopgate.model.rest_frame`, H(t + s) = e^{isD} H(t) e^{-isD}
holds over a circle's whole window and within each segment of a polygon, so
the propagator over a piece [t, t + tau] is e^{i tau D} e^{-i tau (H(t) + D)}.
A circle's window is one piece, and a polygon's window is cut at its corners.
Sampled drives alone are stepped in time: pieces of about dt, each the
exponential of the generator at its midpoint (second order in the step), and
no more than MAX_SAMPLES of them, over one propagation or over all the numeric
gates of one command together (:func:`step_count`); the budget is that of the
scalar loop engine in :mod:`loopgate.phase`, which needs no matrices. A piece
whose generator norm bound exceeds SUBSTEP_NORM is reached by scaling and
squaring, and the pieces of every drive count against MAX_SAMPLES in units of
SUBSTEP_NORM.
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
# a piece whose generator norm bound x is at most this is one series on the block. The
# series on a block B stops at the first term of squared Frobenius norm below its
# tolerance, and the term of order k has norm at most x^k / k! |B|. At x <= 2.5,
# (2.5^29 / 29!)^2 = 1.54e-39: on N unit columns (|B|^2 = N), whose tolerance is 1e-32,
# SERIES_TERMS terms suffice for N < 6.5e6. Any other piece is split into 2^s substeps of
# bound at most SUBSTEP_NORM / 16, whose series on the m x m identity (tolerance 1e-32 / m)
# stops after about 10 terms, and is squared s times. Measured on the README circle's
# rotating-tier propagator (r0 = 20, dim 12; numpy 2.4, x86-64 Linux, one BLAS thread):
# 0.65 ms with a unitarity defect of 6e-12, where substeps of bound up to SUBSTEP_NORM
# (about 25 terms) took 0.83 ms with 1e-12. A piece counts ceil(x / SUBSTEP_NORM) against
# MAX_SAMPLES, as a midpoint step of a sampled drive counts one; a rotating-tier circle at
# that limit squares 25 times and keeps a defect below 5e-9
SUBSTEP_NORM = 2.5


@dataclass(frozen=True)
class NumericPropagation:
    """The full propagator, and the health of the block that was propagated.

    ``unitarity_defect`` is max|X^dag X - I| over the propagated identity X of the
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
    raise NonUnitaryResultError("step series failed to converge")


def _step_blocks(operators, norms, weights, lengths, block, frame=None):
    """Apply exp(i t_k D) exp(-i t_k (sum_j weights[k, j] operators[j] + D)) for k = 0, 1, ... to an m x N block.

    Piece k lasts t_k = lengths[k], and D is the (m,) diagonal ``frame``, 0 when
    None. ``norms`` holds the operators' 2-norms, so x_k = t_k (|weights[k]| .
    norms + max|D|) bounds piece k's generator norm before the first piece. A
    piece with x_k <= SUBSTEP_NORM is one series on the block; any other is
    split into 2^s equal substeps, s the least with x_k <= 2^s SUBSTEP_NORM / 16,
    whose series on the m x m identity is squared s times and then applied to
    the block. Piece k counts max(1, ceil(x_k / SUBSTEP_NORM)) against
    MAX_SAMPLES. Returns the block and the largest series order used.
    """
    coeffs = (-1j * lengths)[:, None] * weights
    reach = 0.0 if frame is None else float(np.max(np.abs(frame)))
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.abs(coeffs) @ norms + lengths * reach
    bound = float(np.max(bounds))
    if not math.isfinite(bound * bound):  # nan, inf, or a norm no substep budget could split
        raise SimulationGuard(f"drive too strong for double precision: step generator norm {bound:.3g}")
    total = np.maximum(1.0, np.ceil(bounds / SUBSTEP_NORM)).sum()
    if not (total <= MAX_SAMPLES):
        raise SimulationGuard(
            f"{total:.4g} substeps needed for step generator norms up to {bound:.3g}, "
            f"above the limit of {MAX_SAMPLES}; weaken the drive"
        )
    block = np.array(block, dtype=complex)
    m = len(block)
    # a column of norm s has an entry of modulus >= s / sqrt(m), and steps keep
    # norms, so |term|^2 < tol is never looser than max|term| < 1e-16 max(1, max|block|)
    tol = 1e-32 * max(1.0, float(np.max(np.linalg.norm(block, axis=0))) ** 2 / m)
    # the operators are sparse, and D sits on the diagonal: each piece rewrites only those entries
    touched = np.any(operators, axis=0)
    if frame is not None:
        touched |= np.eye(m, dtype=bool)
    support = np.flatnonzero(touched)
    values = operators.reshape(len(operators), -1)[:, support]
    generator = np.zeros((m, m), dtype=complex)
    top = 0
    for coeff, length, x in zip(coeffs, lengths, bounds):
        halvings = 0 if x <= SUBSTEP_NORM else math.ceil(math.log2(16 * x / SUBSTEP_NORM))
        scale = 0.5**halvings
        generator.reshape(-1)[support] = (coeff * scale if halvings else coeff) @ values
        if frame is not None:
            generator.reshape(-1)[:: m + 1] += (-1j * length * scale) * frame
        if halvings:
            matrix = np.eye(m, dtype=complex)
            # 1e-32 / m: m times below tol's rule for the identity's unit columns
            top = max(top, _series(generator, matrix, 1e-32 / m))
            for _ in range(halvings):
                matrix = matrix @ matrix
            block = matrix @ block
        else:
            top = max(top, _series(generator, block, tol))
        if frame is not None:
            block *= np.exp(1j * length * frame)[:, None]
    return block, top


def step_count(span, dt, copies=1):
    """The number of uniform midpoint steps of about dt over a window of length span.

    Refuses more than MAX_SAMPLES steps over ``copies`` such windows before
    anything is built.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    steps = span / dt
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
    """Propagate the moving rows over [t0, t1]: the matrix, the largest series order and the unitarity defect.

    The propagated block X is the identity of the moving rows, or with
    ``vacuum`` the vacuum column of each moving row; every tier takes its
    operators on them, and its rest frame, from :mod:`loopgate.model` alike. A
    circle is one exact piece, and a polygon one per segment, each with the
    generator at its start; a sampled drive takes midpoint steps of about dt.
    A unitarity defect max|X^dag X - I| above UNITARITY_TOL is refused; the --
    block P X P of the RWA tier has the same defect, since P only flips signs.
    The matrix is X placed by :func:`_embed_moving_rows`: the full bare-basis
    propagator, or with ``vacuum`` the 4 x 4 branch-basis block of the vacuum
    rows (every |branch> (x) |vacuum> amplitude that stays in vacuum), whose
    RWA -- entry is the ++ entry, since the vacuum has even parity.
    """
    if not (0 <= t0 < t1 <= pulse.T * (1 + 1e-12) + 1e-12):
        raise ValueError(f"need 0 <= t0 < t1 <= T, got t0={t0}, t1={t1}, T={pulse.T}")
    block = np.eye(_MOVING_ROWS[tier] * space.dim)
    if vacuum:
        # a copy: a view would keep the whole identity alive while its columns are propagated
        block = block[:, :: space.dim].copy()
    frame = rest_frame(tier, pulse, space)
    if frame is None:
        n = step_count(t1 - t0, dt)
        h = (t1 - t0) / n
        # each step's generator is taken at its midpoint, each exact piece's at its start
        times, lengths = t0 + (np.arange(n) + 0.5) * h, np.full(n, h)
    else:
        corners = pulse.g_shape.corners()
        cuts = np.concatenate(([t0], corners[(t0 < corners) & (corners < t1)], [t1]))
        times, lengths = cuts[:-1], np.diff(cuts)
    weights = hamiltonian_weights(tier, pulse, times)
    block, top = _step_blocks(*hamiltonian_operators(tier, space), weights, lengths, block, frame)
    defect = float(np.abs(block.conj().T @ block - np.eye(block.shape[1])).max())
    if not (defect <= UNITARITY_TOL):
        raise NonUnitaryResultError(
            f"unitarity defect {defect:.3e} of the propagated block exceeds {UNITARITY_TOL:.1e}; "
            "enlarge the Fock space" + (" or reduce dt" if frame is None else "")
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
