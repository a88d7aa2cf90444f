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


def cumulative_drive_integral(pulse: PulseSpec, times: np.ndarray) -> np.ndarray:
    """Integral of g from 0 to each grid time.

    Exact per-segment sums for piecewise-constant shapes; cumulative
    trapezoid on the given grid otherwise.
    """
    times = np.asarray(times, dtype=float)
    if isinstance(pulse.g_shape, PiecewiseConstant):
        return pulse.g_shape.cumulative_integral(times)
    vals = np.asarray(pulse.g(times))
    out = np.empty(len(times), dtype=complex)
    out[0] = 0.0
    out[1:] = np.cumsum(np.diff(times) * (vals[1:] + vals[:-1]) / 2.0)
    return out


def _two_atom(op: np.ndarray) -> np.ndarray:
    """op_1 + op_2 on the two-qubit factor, bare-basis ordering (gg, ge, eg, ee)."""
    eye = np.eye(2)
    return np.kron(op, eye) + np.kron(eye, op)


def sigma_x_basis_change() -> np.ndarray:
    """Self-inverse unitary between the bare and the sigma_x product basis; entries exactly +-1/2."""
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex)
    return np.kron(hadamard, hadamard) / 2


def hamiltonian_table(tier: HamiltonianTier, pulse: PulseSpec, space: FockSpace, times):
    """Fixed operators and per-time weights of a tier: H(t_k) = sum_j weights[k, j] * operators[j].

    The drive is sampled once for all times. Each operator is followed by its
    adjoint, weighted by the conjugate weight, so every H(t_k) is Hermitian.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a = annihilation(space)
    half = 0.5 * np.asarray(pulse.g(times), dtype=complex)
    x_a = np.kron(_two_atom(_SIGMA_X), a)
    if tier is HamiltonianTier.RWA_EFFECTIVE:
        operators, weights = [x_a], [half]
    elif tier is HamiltonianTier.ROTATING_FRAME:
        p = np.exp(2j * pulse.r0 * times)
        operators = [x_a, np.kron(_two_atom(_PLUS_MINUS), a), np.kron(_two_atom(_MINUS_PLUS), a)]
        weights = [half, half * p, -half * p.conj()]
    elif tier is HamiltonianTier.FULL_EFFECTIVE:
        # the classical flips r0 (sigma1_x + sigma2_x) split into two equal halves
        operators = [np.kron(_two_atom(_SIGMA_PLUS), a), np.kron(_two_atom(_SIGMA_X), np.eye(space.dim))]
        weights = [2 * half, np.full(times.shape, 0.5 * pulse.r0)]
    else:
        raise ValueError(f"unknown tier {tier!r}")
    operators, weights = np.array(operators), np.stack(weights, axis=-1)
    adjoints = operators.conj().transpose(0, 2, 1)
    return np.concatenate([operators, adjoints]), np.concatenate([weights, weights.conj()], axis=-1)
