"""Truncated single-mode Fock space: ladder operators, displacements, coherent states.

All operators are dense complex matrices on the number basis {|0>, ..., |dim-1>}.
Truncation is reliable while the coherent amplitudes satisfy |alpha|^2 << dim;
past |alpha|^2 > dim/4 the Poisson weight beyond the cutoff stops being
negligible and a TruncationWarning is emitted.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationWarning


@dataclass(frozen=True)
class FockSpace:
    """Number of retained Fock levels; basis is |0> ... |dim-1>."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"FockSpace.dim must be an integer >= 2, got {self.dim!r}")


def annihilation(space: FockSpace) -> np.ndarray:
    """Lowering operator a, with matrix elements <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, space.dim)), 1).astype(complex)


def creation(space: FockSpace) -> np.ndarray:
    """Raising operator, the adjoint of :func:`annihilation`."""
    return annihilation(space).conj().T


def vacuum(space: FockSpace) -> np.ndarray:
    """The |0> column vector."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0
    return vec


def _check_amplitude(alpha: complex, space: FockSpace) -> complex:
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("coherent amplitude must be finite")
    if abs(alpha) ** 2 > space.dim / 4:
        warnings.warn(
            f"|alpha|^2 = {abs(alpha) ** 2:.4g} exceeds dim/4 = {space.dim / 4:.4g}; "
            "truncated result is unreliable",
            TruncationWarning,
            stacklevel=3,
        )
    return alpha


def displacement(alpha: complex, space: FockSpace) -> np.ndarray:
    """Displacement operator D(alpha) = exp(alpha a^dag - conj(alpha) a).

    The generator is exactly antihermitian in the truncated space, so the
    exponential is taken through the eigendecomposition of the Hermitian
    i(alpha a^dag - conj(alpha) a) and the returned matrix is unitary to
    machine precision even when truncation makes it differ from the
    infinite-dimensional operator.
    """
    alpha = _check_amplitude(alpha, space)
    a = annihilation(space)
    w, v = np.linalg.eigh(1j * (alpha * a.conj().T - alpha.conjugate() * a))
    return (v * np.exp(-1j * w)) @ v.conj().T


def compose_phase(alpha: complex, beta: complex) -> float:
    """Phase Im(alpha * conj(beta)) acquired when D(alpha) D(beta) merges into D(alpha+beta)."""
    return (complex(alpha) * complex(beta).conjugate()).imag


def coherent_state(alpha: complex, space: FockSpace) -> np.ndarray:
    """Coherent state |alpha> as a truncated column vector, renormalized after truncation."""
    alpha = _check_amplitude(alpha, space)
    vec = np.empty(space.dim, dtype=complex)
    vec[0] = 1.0
    for n in range(1, space.dim):
        vec[n] = vec[n - 1] * alpha / math.sqrt(n)
    vec *= math.exp(-abs(alpha) ** 2 / 2)
    return vec / np.linalg.norm(vec)
