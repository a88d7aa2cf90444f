"""Two-qubit phase gates from closed cavity phase-space loops.

A cavity mode shared by two driven atoms is steered around a closed loop in
phase space; every sigma_x product branch picks up a phase set only by the
loop's geometry, which realizes a diag(e^{i gamma}, 1, 1, e^{i gamma}) gate.
The package builds the tiered Hamiltonian models, propagates them
numerically, solves each drive cycle's loop once for the geometric and
dynamical phases of every branch, and grades the resulting gate.
"""

from .errors import (
    ConfigError,
    InfeasibleConstraintError,
    NonUnitaryResultError,
    OpenLoopError,
    SimulationGuard,
    StepTooCoarseError,
    TrivialTargetWarning,
    TruncationGuardError,
)
from .evolve import NumericPropagation, propagate_numeric
from .fock import FockSpace, annihilation, creation, vacuum
from .gate import (
    GateReport,
    design_circular_pulse,
    entangling_check,
    gate_fidelity,
    gate_matrix,
    ideal_gate,
    nontriviality,
)
from .model import (
    BRANCHES,
    Circular,
    HamiltonianTier,
    PiecewiseConstant,
    PulseSpec,
    RamanParams,
    Sampled,
    branch_lambda,
    effective_couplings,
    sigma_x_basis_change,
)
from .phase import LoopSolution, PhaseBreakdown, solve_loop
from .validate import ScanRow, ValidationReport, rwa_error_scan, truncation_scan

__version__ = "0.1.0"
