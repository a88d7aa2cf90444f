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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidFields
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


def _finite(value):
    return cmath.isfinite(value) or f"must be finite, got {value}"


def _finite_positive(value):
    return value > 0 and math.isfinite(value) or f"must be finite and > 0, got {value}"


def _finite_nonzero(value):
    return value != 0 and math.isfinite(value) or f"must be finite and nonzero, got {value}"


class _Judged:
    """A frozen dataclass whose fields its ``_CHECKS`` table judges, on construction or by ``failures``.

    Each check is (the space-separated names of the fields it reads, a test that
    returns the failure message when they fail it); the message is reported under
    the last field read. A field fails at most once, and a check runs only when
    every field it reads is given and has passed, so any subset of the fields can
    be judged.
    """

    @classmethod
    def failures(cls, **fields) -> list[tuple[str, str]]:
        """(field, message) for each given field that fails, in the order of the checks."""
        failed = {}
        for names, test in cls._CHECKS:
            names = names.split()
            args = [fields[name] for name in names if name in fields and name not in failed]
            if len(args) == len(names) and isinstance(verdict := test(*args), str):
                failed[names[-1]] = verdict
        return list(failed.items())

    def __post_init__(self):
        if failures := self.failures(**vars(self)):
            raise InvalidFields(type(self).__name__, failures)


@dataclass(frozen=True)
class RamanParams(_Judged):
    """Rabi amplitudes and single-photon detunings of the two Raman channels.

    The amplitude fields hold the scalar dipole-field products directly, and
    both single-photon detunings must be nonzero. These are all that the
    effective couplings read: adiabatic elimination of the excited state takes
    each channel as two-photon resonant with the qubit splitting, so resonance
    is an assumption of the effective model, not an input.
    """

    rabi_p: complex
    rabi_s: complex
    rabi_g: complex
    kappa_e: complex
    delta_1: float
    delta_2: float

    _CHECKS = (
        ("rabi_p", _finite), ("rabi_s", _finite), ("rabi_g", _finite), ("kappa_e", _finite),
        ("delta_1", _finite_nonzero), ("delta_2", _finite_nonzero),
    )


def effective_couplings(params: RamanParams) -> tuple[complex, complex]:
    """Effective classical and quantum couplings (r, g) of the two Raman channels.

    r = -rabi_p conj(rabi_s) / delta_1 and g = -rabi_g conj(kappa_e) / delta_2,
    the second-order couplings left once the excited state is eliminated from
    two-photon resonant channels.
    """
    r = -(complex(params.rabi_p) * complex(params.rabi_s).conjugate()) / params.delta_1
    g = -(complex(params.rabi_g) * complex(params.kappa_e).conjugate()) / params.delta_2
    return r, g


@dataclass(frozen=True)
class Circular(_Judged):
    """Constant-magnitude rotating drive g(t) = g0 * exp(i*(phase0 - nu*t)).

    Closes a phase-space loop whenever the total duration is an integer
    multiple of 2*pi/|nu|.
    """

    g0: float
    nu: float
    phase0: float = 0.0

    _CHECKS = (("g0", _finite_positive), ("nu", _finite_nonzero), ("phase0", _finite))

    def phasor(self, t):
        """The unit phasor exp(i*(phase0 - nu*t)): g0 times it is g(t), bit for bit."""
        return np.exp(1j * (self.phase0 - self.nu * np.asarray(t, dtype=float)))

    def g(self, t):
        return self.g0 * self.phasor(t)

    def natural_duration(self) -> float | None:
        return None

    def corners(self) -> np.ndarray:
        """The times at which g jumps: none."""
        return np.empty(0)


@dataclass(frozen=True)
class PiecewiseConstant(_Judged):
    """Drive held constant over an ordered list of (duration, value) segments.

    Evaluation is right-continuous: at a boundary the starting segment's
    value applies.
    """

    segments: tuple[tuple[float, complex], ...]

    _CHECKS = (
        ("segments", lambda segs: len(segs) > 0 or "must hold at least one segment"),
        ("segments", lambda segs: all(d > 0 and math.isfinite(d) and cmath.isfinite(g) for d, g in segs)
         or "must have finite positive durations and finite values"),
        ("segments", lambda segs: math.isfinite(sum(d for d, _ in segs)) or "must have durations with a finite sum"),
    )

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple((float(d), complex(g)) for d, g in self.segments))
        super().__post_init__()
        bounds = np.concatenate(([0.0], np.cumsum([d for d, _ in self.segments])))
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_values", np.array([g for _, g in self.segments]))

    def g(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._bounds[1:], t, side="right")
        idx = np.minimum(idx, len(self._values) - 1)
        out = self._values[idx]
        return out if out.ndim else complex(out)

    def natural_duration(self) -> float:
        return float(self._bounds[-1])

    def corners(self) -> np.ndarray:
        """The times at which g jumps: the inner segment bounds."""
        return self._bounds[1:-1]

    def cumulative_integral(self, times: np.ndarray) -> np.ndarray:
        """Exact integral of g from 0 to each requested time."""
        prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(self._values * np.diff(self._bounds))))
        idx = np.searchsorted(self._bounds[1:], times, side="right")
        idx = np.minimum(idx, len(self._values) - 1)
        return prefix[idx] + self._values[idx] * (times - self._bounds[idx])


@dataclass(frozen=True)
class Sampled(_Judged):
    """Drive given on a uniform grid with spacing dt, linearly interpolated.

    Samples sit at t = 0, dt, ..., (len(values)-1)*dt, so the covered
    duration is (len(values)-1)*dt.
    """

    dt: float
    values: tuple[complex, ...]

    _CHECKS = (
        ("dt", _finite_positive),
        ("values", lambda values: len(values) >= 2 or "must hold at least two samples"),
        ("values", lambda values: all(cmath.isfinite(v) for v in values) or "must be finite"),
        ("dt values", lambda dt, values: math.isfinite(dt * (len(values) - 1))
         or f"must span a finite duration, got {len(values) - 1} x {dt}"),
    )

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        super().__post_init__()
        object.__setattr__(self, "_grid", self.dt * np.arange(len(self.values)))
        object.__setattr__(self, "_array", np.array(self.values))

    def g(self, t):
        t = np.asarray(t, dtype=float)
        re = np.interp(t, self._grid, self._array.real)
        im = np.interp(t, self._grid, self._array.imag)
        out = re + 1j * im
        return out if out.ndim else complex(out)

    def natural_duration(self) -> float:
        return float(self._grid[-1])


GShape = Circular | PiecewiseConstant | Sampled


def _covers(shape, T):
    natural = shape.natural_duration()
    covered = natural is None or abs(natural - T) <= _DURATION_RTOL * max(1.0, abs(T))
    return covered or f"must equal the duration {natural!r} its shape covers, got {T!r}"


@dataclass(frozen=True)
class PulseSpec(_Judged):
    """One gate cycle: drive envelope g(t), classical drive strength r0, duration T.

    r0 is restricted to a real nonnegative constant; the rotating-frame tier
    is only the exact interaction picture for time-independent r.
    """

    g_shape: GShape
    T: float
    r0: float = 0.0

    _CHECKS = (
        ("T", _finite_positive),
        ("g_shape T", _covers),
        ("r0", lambda r0: r0 >= 0 and math.isfinite(r0) or f"must be finite and >= 0, got {r0}"),
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
    # summed into out, so no second array of the running integral is made
    np.cumsum(np.diff(times) * (vals[1:] + vals[:-1]) / 2.0, out=out[1:])
    return out


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)
_BASIS_CHANGE = np.kron(_HADAMARD, _HADAMARD) / 2


def sigma_x_basis_change() -> np.ndarray:
    """Self-inverse unitary between the bare and the sigma_x product basis; entries exactly +-1/2."""
    return _BASIS_CHANGE.copy()


# the exchange-symmetric (triplet) states |++>, (|+-> + |-+>)/sqrt(2), |-->,
# written in the sigma_x product basis
_TRIPLET = np.array([[1, 0, 0], [0, math.sqrt(0.5), 0], [0, math.sqrt(0.5), 0], [0, 0, 1]])

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
    """The tier's constant table: (factor on the moving rows, 2-norm, Fock factor) per term.

    A term's factor is op_1 + op_2 restricted to the tier's moving rows: the
    triplet rows on the rotating and full tiers, and the |++> row alone on the
    RWA tier, where it is [[2]]. The table is built on the first call for each
    tier and kept, so no gate rebuilds it. It is not built at import, because
    the analytic commands make no BLAS or LAPACK call and so never load those
    libraries' pages.
    """
    rows = _TRIPLET[:, : _MOVING_ROWS[tier]]
    table = []
    for op, fock, _ in _TIER_TERMS[tier]:
        # op_1 + op_2 on the two-qubit factor, bare-basis ordering (gg, ge, eg, ee)
        bare = np.kron(op, np.eye(2)) + np.kron(np.eye(2), op)
        # through the sigma_x basis, where the factors have entries 0, +-1/2, +-1 and +-2,
        # so every zero of the restricted factor comes out exact
        moving = rows.T @ (_BASIS_CHANGE @ bare @ _BASIS_CHANGE) @ rows
        # the 2-norm of the small factor: its largest singular value, from its Gram matrix
        table.append((moving, math.sqrt(np.linalg.eigvalsh(moving.conj().T @ moving)[-1]), fock))
    return tuple(table)


def rest_frame(tier: HamiltonianTier, pulse: PulseSpec, space: FockSpace) -> np.ndarray | None:
    """The diagonal D on the tier's moving rows in which the pulse's generator stands still, or None.

    A circular drive turns every Fock factor a of the tier's terms at e^{-i nu t},
    and the rotating tier's fast phase turns its sigma^+- pieces (|+><-| raises J by
    one) at e^{+-2 i r0 t}, while sigma_x and the identity keep J. So with
    D = nu n + 2 r0 J on the rotating tier and D = nu n on the RWA and full tiers,
    H(t + s) = e^{i s D} H(t) e^{-i s D}. A piecewise drive holds g, so the same
    holds within each segment with nu = 0: D = 2 r0 J on the rotating tier and 0
    on the others. D has length 3 dim on the triplet rows, and dim on the RWA
    tier's |++> rows. A sampled drive has no such frame.
    """
    if isinstance(pulse.g_shape, Sampled):
        return None
    fast = 2.0 * pulse.r0 if tier is HamiltonianTier.ROTATING_FRAME else 0.0
    nu = pulse.g_shape.nu if isinstance(pulse.g_shape, Circular) else 0.0
    # a rate past double precision comes out inf or nan, which the stepper refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return (fast * _PLUS_COUNT[: _MOVING_ROWS[tier], None] + nu * np.arange(space.dim)).ravel()


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


def hamiltonian_operators(tier: HamiltonianTier, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """The tier's fixed operators on its moving rows and their 2-norms; each term precedes its adjoint.

    H(t_k) restricted to the moving rows is sum_j hamiltonian_weights(...)[k, j]
    * operators[j], with operators[j] = kron(qubit factor, Fock factor): (3 dim)^2
    on the triplet rows of the rotating and full tiers, and 2 a and 2 a^dag on
    the |++> rows of the RWA tier. The qubit factors and their 2-norms come
    from the tier's table, built once, so only the Fock factor is placed here.
    The 2-norm of a Kronecker product is the product of its factors' 2-norms,
    and ||a|| = sqrt(dim - 1), so no norm of a full operator is computed.
    """
    terms = _terms(tier)
    fock = {"a": (annihilation(space), math.sqrt(space.dim - 1)), "1": (np.eye(space.dim), 1.0)}
    rows = _MOVING_ROWS[tier]
    operators = np.empty((2 * len(terms), rows * space.dim, rows * space.dim), dtype=complex)
    norms = np.empty(2 * len(terms))
    for j, (qubit, qubit_norm, factor) in enumerate(terms):
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
