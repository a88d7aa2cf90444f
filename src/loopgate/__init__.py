"""Two-qubit phase gates from closed cavity phase-space loops.

A cavity mode shared by two driven atoms is steered around a closed loop in
phase space; every sigma_x product branch picks up a phase set only by the
loop's geometry, which realizes a diag(e^{i gamma}, 1, 1, e^{i gamma}) gate.
The package builds the tiered Hamiltonian models, propagates them both
numerically and through exact displacement composition, splits the phase
into geometric and dynamical parts, and grades the resulting gate.
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
    TruncationWarning,
)
from .evolve import (
    DisplacementPropagation,
    NumericPropagation,
    Trajectory,
    alpha_trajectory,
    propagate_displacement,
    propagate_numeric,
)
from .fock import FockSpace, annihilation, coherent_state, compose_phase, creation, displacement, vacuum
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
    hamiltonian_full,
    hamiltonian_rotating,
    hamiltonian_rwa,
    lambda_values,
    sigma_x_basis_change,
)
from .phase import (
    LoopSolution,
    PhaseBreakdown,
    drive_phase_integral,
    solve_loop,
    total_phase,
)
from .validate import ScanRow, ValidationReport, rwa_error_scan, truncation_scan

__version__ = "0.1.0"
