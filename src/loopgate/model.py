"""Drive pulses, effective Raman couplings, and the tiered two-atom/cavity Hamiltonians.

Two identical atoms sit in one cavity mode. Each atom sees two two-photon
drive channels: a purely classical one with effective strength r (held real
and constant here) and one involving the quantized mode with effective
strength g(t). Working with hbar = 1 and all rates in units of a common
reference frequency, three model tiers share the composite Hilbert space
qubit_1 (x) qubit_2 (x) Fock(dim):

* ``FULL_EFFECTIVE``   -- lab-frame effective model: classical flips plus
  g(t) a sigma^+ exchange terms.
* ``ROTATING_FRAME``   -- interaction picture with respect to the classical
  drive; the exchange terms split into static pieces and pieces oscillating
  at 2*r0.
* ``RWA_EFFECTIVE``    -- the 2*r0 oscillations dropped (valid for r0 >> |g|),
  leaving (1/2)[g(t) a + conj(g) a^dag] (sigma1_x + sigma2_x), which is
  diagonal in the sigma_x product basis and drives each branch as a pure
  cavity displacement.

Branch order everywhere is ("++", "+-", "-+", "--") in the sigma_x product
basis |+-> = (|g> +- |e>)/sqrt(2).
"""

import cmath
import functools
import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from .fock import FockSpace, annihilation

BRANCHES = ("++", "+-", "-+", "--")

_LAMBDAS = {"++": 2, "+-": 0, "-+": 0, "--": -2}

_DURATION_RTOL = 1e-12

# 2x2 blocks in the bare {|g>, |e>} basis
_SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
# |+><-| and |-><+| written out in the bare basis
_PLUS_MINUS = 0.5 * np.array([[1, -1], [1, -1]], dtype=complex)
_MINUS_PLUS = _PLUS_MINUS.conj().T


def branch_lambda(branch: str) -> int:
    if branch not in _LAMBDAS:
        raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    return _LAMBDAS[branch]


class HamiltonianTier(Enum):
    FULL_EFFECTIVE = "full"
    ROTATING_FRAME = "rotating"
    RWA_EFFECTIVE = "rwa"


@dataclass(frozen=True)
class RamanParams:
    """Frequencies, drive amplitudes and detunings of the two Raman channels.

    The amplitude fields hold the scalar dipole-field products directly; both
    channels must satisfy two-photon resonance with the qubit splitting
    omega_0, and both single-photon detunings must be nonzero.
    """

    omega_p: float
    omega_s: float
    omega_g: float
    omega_c: float
    omega_0: float
    rabi_p: complex
    rabi_s: complex
    rabi_g: complex
    kappa_e: complex
    delta_1: float
    delta_2: float

    def __post_init__(self):
        if not all(cmath.isfinite(value) for value in astuple(self)):
            raise ValueError("RamanParams fields must be finite")
        scale = max(
            1.0,
            abs(self.omega_p),
            abs(self.omega_s),
            abs(self.omega_g),
            abs(self.omega_c),
            abs(self.omega_0),
        )
        if abs((self.omega_p - self.omega_s) - self.omega_0) > 1e-12 * scale:
            raise ValueError("classical channel off two-photon resonance: omega_p - omega_s != omega_0")
        if abs((self.omega_g - self.omega_c) - self.omega_0) > 1e-12 * scale:
            raise ValueError("cavity channel off two-photon resonance: omega_g - omega_c != omega_0")
        if self.delta_1 == 0:
            raise ValueError("delta_1 must be nonzero")
        if self.delta_2 == 0:
            raise ValueError("delta_2 must be nonzero")


def effective_couplings(params: RamanParams) -> tuple[complex, complex]:
    """Effective classical and quantum couplings (r, g) of the two Raman channels."""
    r = -(complex(params.rabi_p) * complex(params.rabi_s).conjugate()) / params.delta_1
    g = -(complex(params.rabi_g) * complex(params.kappa_e).conjugate()) / params.delta_2
    return r, g


@dataclass(frozen=True)
class Circular:
    """Constant-magnitude rotating drive g(t) = g0 * exp(i*(phase0 - nu*t)).

    Closes a phase-space loop whenever the total duration is an integer
    multiple of 2*pi/|nu|.
    """

    g0: float
    nu: float
    phase0: float = 0.0

    def __post_init__(self):
        if not (self.g0 > 0 and math.isfinite(self.g0)):
            raise ValueError(f"Circular.g0 must be finite and > 0, got {self.g0}")
        if not (self.nu != 0 and math.isfinite(self.nu)):
            raise ValueError(f"Circular.nu must be finite and nonzero, got {self.nu}")
        if not math.isfinite(self.phase0):
            raise ValueError(f"Circular.phase0 must be finite, got {self.phase0}")

    def g(self, t):
        return self.g0 * np.exp(1j * (self.phase0 - self.nu * np.asarray(t, dtype=float)))

    def natural_duration(self) -> float | None:
        return None


@dataclass(frozen=True)
class PiecewiseConstant:
    """Drive held constant over an ordered list of (duration, value) segments.

    Evaluation is right-continuous: at a boundary the starting segment's
    value applies.
    """

    segments: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        segs = tuple((float(d), complex(g)) for d, g in self.segments)
        if not segs:
            raise ValueError("PiecewiseConstant needs at least one segment")
        if not all(d > 0 and math.isfinite(d) and cmath.isfinite(g) for d, g in segs):
            raise ValueError("segment durations must be finite and positive, and values finite")
        if not math.isfinite(sum(d for d, _ in segs)):
            raise ValueError("segment durations must add up to a finite total")
        object.__setattr__(self, "segments", segs)
        bounds = np.concatenate(([0.0], np.cumsum([d for d, _ in segs])))
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_values", np.array([g for _, g in segs]))

    def g(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._bounds[1:], t, side="right")
        idx = np.minimum(idx, len(self._values) - 1)
        out = self._values[idx]
        return out if out.ndim else complex(out)

    def natural_duration(self) -> float:
        return float(self._bounds[-1])

    def cumulative_integral(self, times: np.ndarray) -> np.ndarray:
        """Exact integral of g from 0 to each requested time."""
        prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(self._values * np.diff(self._bounds))))
        idx = np.searchsorted(self._bounds[1:], times, side="right")
        idx = np.minimum(idx, len(self._values) - 1)
        return prefix[idx] + self._values[idx] * (times - self._bounds[idx])


@dataclass(frozen=True)
class Sampled:
    """Drive given on a uniform grid with spacing dt, linearly interpolated.

    Samples sit at t = 0, dt, ..., (len(values)-1)*dt, so the covered
    duration is (len(values)-1)*dt.
    """

    dt: float
    values: tuple[complex, ...]

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"Sampled.dt must be finite and > 0, got {self.dt}")
        vals = tuple(complex(v) for v in self.values)
        if len(vals) < 2:
            raise ValueError("Sampled needs at least two samples")
        if not all(cmath.isfinite(v) for v in vals):
            raise ValueError("Sampled values must be finite")
        if not math.isfinite(self.dt * (len(vals) - 1)):
            raise ValueError(f"Sampled covers a duration of {len(vals) - 1} x {self.dt}, which is not finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_grid", self.dt * np.arange(len(vals)))
        object.__setattr__(self, "_array", np.array(vals))

    def g(self, t):
        t = np.asarray(t, dtype=float)
        re = np.interp(t, self._grid, self._array.real)
        im = np.interp(t, self._grid, self._array.imag)
        out = re + 1j * im
        return out if out.ndim else complex(out)

    def natural_duration(self) -> float:
        return float(self._grid[-1])


GShape = Circular | PiecewiseConstant | Sampled


@dataclass(frozen=True)
class PulseSpec:
    """One gate cycle: drive envelope g(t), classical drive strength r0, duration T.

    r0 is restricted to a real nonnegative constant; the rotating-frame tier
    is only the exact interaction picture for time-independent r.
    """

    g_shape: GShape
    T: float
    r0: float = 0.0

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"PulseSpec.T must be finite and > 0, got {self.T}")
        if not (self.r0 >= 0 and math.isfinite(self.r0)):
            raise ValueError(f"PulseSpec.r0 must be finite and >= 0, got {self.r0}")
        natural = self.g_shape.natural_duration()
        if natural is not None and abs(natural - self.T) > _DURATION_RTOL * max(1.0, abs(self.T)):
            raise ValueError(
                f"shape covers duration {natural!r} but PulseSpec.T is {self.T!r}"
            )

    def g(self, t):
        """Drive envelope at time t (scalar or array)."""
        return self.g_shape.g(t)


def cumulative_drive_integral(pulse: PulseSpec, times: np.ndarray, values=None) -> np.ndarray:
    """Integral of g from 0 to each grid time.

    Exact per-segment sums for piecewise-constant shapes; cumulative
    trapezoid on the given grid otherwise, over ``values`` when the caller
    already holds the drive samples g(times).
    """
    times = np.asarray(times, dtype=float)
    if isinstance(pulse.g_shape, PiecewiseConstant):
        return pulse.g_shape.cumulative_integral(times)
    vals = np.asarray(pulse.g(times) if values is None else values)
    out = np.empty(len(times), dtype=complex)
    out[0] = 0.0
    out[1:] = np.cumsum(np.diff(times) * (vals[1:] + vals[:-1]) / 2.0)
    return out


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)
_BASIS_CHANGE = np.kron(_HADAMARD, _HADAMARD) / 2


def sigma_x_basis_change() -> np.ndarray:
    """Self-inverse unitary between the bare and the sigma_x product basis; entries exactly +-1/2."""
    return _BASIS_CHANGE.copy()


# the exchange-symmetric (triplet) states |++>, (|+-> + |-+>)/sqrt(2), |-->,
# written in the sigma_x product basis
_TRIPLET = np.array([[1, 0, 0], [0, math.sqrt(0.5), 0], [0, math.sqrt(0.5), 0], [0, 0, 1]])


@functools.cache
def _triplet_rows() -> np.ndarray:
    """The bare-basis triplet columns, built on first use, since importing makes no BLAS call."""
    return _BASIS_CHANGE @ _TRIPLET


def triplet_rows() -> np.ndarray:
    """Orthonormal bare-basis columns of the three exchange-symmetric two-qubit states.

    Every tier treats the two atoms alike, so it keeps their span and never
    moves the singlet (|+-> - |-+>)/sqrt(2).
    """
    return _triplet_rows().copy()


# J, the number of + atoms on each triplet row: |++>, (|+-> + |-+>)/sqrt(2), |-->
_PLUS_COUNT = np.array([2.0, 1.0, 0.0])

# the moving rows of each tier: its leading triplet rows. The RWA generator is diagonal
# in the sigma_x basis, and its |--> rows are the parity mirror of the |++> rows
# (evolve), so it moves |++> alone
_MOVING_ROWS = {HamiltonianTier.RWA_EFFECTIVE: 1, HamiltonianTier.ROTATING_FRAME: 3, HamiltonianTier.FULL_EFFECTIVE: 3}

# Each term of each tier, listed once: (two-atom operator, Fock factor, weight). A weight
# is a function of the halved drive samples g(t)/2, the fast phase e^{2 i r0 t} and r0.
# H(t) is the sum of weight * kron(op_1 + op_2, Fock factor) over the terms plus the
# adjoint of every term.
_TIER_TERMS = {
    HamiltonianTier.RWA_EFFECTIVE: ((_SIGMA_X, "a", lambda half, fast, r0: half),),
    HamiltonianTier.ROTATING_FRAME: (
        (_SIGMA_X, "a", lambda half, fast, r0: half),
        (_PLUS_MINUS, "a", lambda half, fast, r0: half * fast),
        (_MINUS_PLUS, "a", lambda half, fast, r0: -half * fast.conj()),
    ),
    HamiltonianTier.FULL_EFFECTIVE: (
        (_SIGMA_PLUS, "a", lambda half, fast, r0: 2 * half),
        # the classical flips r0 (sigma1_x + sigma2_x) split into two equal halves
        (_SIGMA_X, "1", lambda half, fast, r0: np.full(half.shape, 0.5 * r0)),
    ),
}


@functools.cache
def _terms(tier: HamiltonianTier) -> tuple:
    """The tier's constant table: ((bare factor, 2-norm), (factor on the moving rows, 2-norm), Fock factor, weight).

    The bare factor of a term is op_1 + op_2; the moving one is restricted to
    the tier's moving rows, and is [[2]] on the RWA tier. The table is built on
    the first call for each tier and kept, so no gate rebuilds it. It is not
    built at import, because the analytic commands make no BLAS or LAPACK call
    and so never load those libraries' pages.
    """
    rows = _TRIPLET[:, : _MOVING_ROWS[tier]]
    table = []
    for op, fock, weight in _TIER_TERMS[tier]:
        # op_1 + op_2 on the two-qubit factor, bare-basis ordering (gg, ge, eg, ee)
        bare = np.kron(op, np.eye(2)) + np.kron(np.eye(2), op)
        # through the sigma_x basis, where the factors have entries 0, +-1/2, +-1 and +-2,
        # so every zero of the restricted factor comes out exact
        moving = rows.T @ (_BASIS_CHANGE @ bare @ _BASIS_CHANGE) @ rows
        # the 2-norm of each small factor: its largest singular value, from its Gram matrix
        bare_norm, moving_norm = (math.sqrt(np.linalg.eigvalsh(q.conj().T @ q)[-1]) for q in (bare, moving))
        table.append(((bare, bare_norm), (moving, moving_norm), fock, weight))
    return tuple(table)


def rest_frame(tier: HamiltonianTier, pulse: PulseSpec, space: FockSpace) -> np.ndarray | None:
    """The diagonal D on the tier's moving rows in which the pulse's generator stands still, or None.

    A circular drive turns every Fock factor a of the tier's terms at e^{-i nu t},
    and the rotating tier's fast phase turns its sigma^+- pieces (|+><-| raises J by
    one) at e^{+-2 i r0 t}, while sigma_x and the identity keep J. So with
    D = nu n + 2 r0 J on the rotating tier and D = nu n on the RWA and full tiers,
    H(t + s) = e^{i s D} H(t) e^{-i s D}. D has length 3 dim on the triplet rows, and
    dim on the RWA tier's |++> rows. No other drive shape has such a frame.
    """
    if not isinstance(pulse.g_shape, Circular):
        return None
    fast = 2.0 * pulse.r0 if tier is HamiltonianTier.ROTATING_FRAME else 0.0
    # a rate past double precision comes out inf or nan, which the stepper refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return (fast * _PLUS_COUNT[: _MOVING_ROWS[tier], None] + pulse.g_shape.nu * np.arange(space.dim)).ravel()


def hamiltonian_weights(tier: HamiltonianTier, pulse: PulseSpec, times) -> np.ndarray:
    """Weights of the tier's operators at each time, shape (len(times), 2 * terms).

    The drive is sampled once for all times; the adjoint operators, which
    follow the terms, carry the conjugate weights, so every H(t) is Hermitian.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    half = 0.5 * np.asarray(pulse.g(times), dtype=complex)
    # a fast phase past double precision comes out nan, which the step-norm guard refuses
    with np.errstate(over="ignore", invalid="ignore"):
        fast = np.exp(2j * pulse.r0 * times)
    weights = np.stack([weight(half, fast, pulse.r0) for *_, weight in _TIER_TERMS[tier]], axis=-1)
    return np.concatenate([weights, weights.conj()], axis=-1)


def hamiltonian_operators(
    tier: HamiltonianTier, space: FockSpace, moving: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The tier's fixed operators kron(qubit factor, Fock factor) and their 2-norms; each term precedes its adjoint.

    H(t_k) = sum_j hamiltonian_weights(...)[k, j] * operators[j]. With
    ``moving`` every qubit factor is restricted to the tier's moving rows: the
    columns of :func:`triplet_rows` on the rotating and full tiers, so the
    operators are (3 dim)^2 instead of (4 dim)^2, and the |++> column alone on
    the RWA tier, where they are 2 a and 2 a^dag. The qubit factors and their
    2-norms come from the tier's table, built once, so only the Fock factor
    is placed here. The 2-norm of a Kronecker product is the product of its
    factors' 2-norms, and ||a|| = sqrt(dim - 1), so no norm of a full operator
    is computed.
    """
    terms = _terms(tier)
    fock = {"a": (annihilation(space), math.sqrt(space.dim - 1)), "1": (np.eye(space.dim), 1.0)}
    rows = _MOVING_ROWS[tier] if moving else 4
    operators = np.empty((2 * len(terms), rows * space.dim, rows * space.dim), dtype=complex)
    norms = np.empty(2 * len(terms))
    for j, (bare, restricted, factor, _) in enumerate(terms):
        qubit, qubit_norm = restricted if moving else bare
        matrix, norm = fock[factor]
        # the Kronecker product written in place: no second (rows dim)^2 array is made
        np.multiply(
            qubit[:, None, :, None],
            matrix[None, :, None, :],
            out=operators[j].reshape(rows, space.dim, rows, space.dim),
        )
        np.conjugate(operators[j].T, out=operators[len(terms) + j])
        norms[j] = norms[len(terms) + j] = norm * qubit_norm
    return operators, norms
