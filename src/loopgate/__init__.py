"""Two-qubit phase gates from closed cavity phase-space loops.

A cavity mode shared by two driven atoms is steered around a closed loop in
phase space; every sigma_x product branch picks up a phase set only by the
loop's geometry, which realizes a diag(e^{i gamma}, 1, 1, e^{i gamma}) gate.
The package builds the tiered Hamiltonian models, propagates them
numerically, solves each drive cycle's loop once for the geometric and
dynamical phases of every branch, and grades the resulting gate.
"""

import importlib

__version__ = "0.1.0"

# each module's public names; a module loads on first use of one of them, so a
# command that computes nothing never imports numpy
_EXPORTS = {
    "errors": (
        "ConfigError", "InfeasibleConstraintError", "NonUnitaryResultError", "OpenLoopError", "SimulationGuard",
        "StepTooCoarseError", "TrivialTargetWarning", "TruncationGuardError",
    ),
    "design": ("nontriviality",),
    "evolve": ("NumericPropagation", "propagate_numeric"),
    "fock": ("FockSpace", "annihilation", "creation", "vacuum"),
    "gate": ("GateReport", "design_circular_pulse", "entangling_check", "gate_fidelity", "gate_matrix", "ideal_gate"),
    "model": (
        "BRANCHES", "Circular", "HamiltonianTier", "PiecewiseConstant", "PulseSpec", "RamanParams", "Sampled",
        "branch_lambda", "effective_couplings", "sigma_x_basis_change",
    ),
    "phase": ("LoopSolution", "PhaseBreakdown", "solve_loop"),
    "validate": ("ScanRow", "ValidationReport", "rwa_error_scan", "truncation_scan"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "cli", "config")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *_HOME})
