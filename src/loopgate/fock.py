"""Truncated single-mode Fock space: ladder operators and the vacuum.

All operators are dense complex matrices on the number basis {|0>, ..., |dim-1>}.
Truncation is reliable while the coherent amplitudes satisfy |alpha|^2 << dim;
the gate's vacuum-return check and the truncation scan's dim floor guard it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SimulationGuard

# largest Fock dimension: the rotating and full tiers build dense (3 dim)^2 operators.
# Measured peak RSS at the limit (numpy 2.4, x86-64 Linux, one BLAS thread): a
# numeric_rotating gate 0.28 GB when it steps its columns (300 steps) and 0.40 GB when
# its run goes through a (3 dim)^2 step matrix (400 steps, 9.6 s); the full rotating-tier
# propagator, which steps the (3 dim)^2 triplet identity, 0.41 GB for one step and
# 0.45 GB for two through a step matrix; all stay under 1 GB
MAX_DIM = 512


@dataclass(frozen=True)
class FockSpace:
    """Number of retained Fock levels; basis is |0> ... |dim-1>."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"FockSpace.dim must be an integer >= 2, got {self.dim!r}")
        if self.dim > MAX_DIM:
            raise SimulationGuard(f"Fock dimension dim = {self.dim} is above the limit of {MAX_DIM}; lower dim")


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
