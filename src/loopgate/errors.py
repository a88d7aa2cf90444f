"""Warnings and guard exceptions shared across the package."""


class TrivialTargetWarning(UserWarning):
    """Requested gate phase is a multiple of 2*pi, so the gate is the identity."""


class SimulationGuard(Exception):
    """Base class for physics preconditions that abort a computation."""


class OpenLoopError(SimulationGuard):
    """Phase-space path does not close; cyclic-evolution quantities are undefined."""


class NonUnitaryResultError(SimulationGuard):
    """Propagation lost unitarity beyond tolerance (step too large or space too small)."""


class StepTooCoarseError(SimulationGuard):
    """Time step cannot resolve the fastest oscillation in the model."""


class InfeasibleConstraintError(SimulationGuard):
    """Pulse-design constraint admits no valid solution."""


class TruncationGuardError(SimulationGuard):
    """Requested Fock dimension cannot hold the phase-space excursion."""


class InvalidFields(ValueError):
    """Fields a dataclass refuses; carries one (field, message) pair per offending field."""

    def __init__(self, owner: str, failures):
        self.failures = list(failures)
        super().__init__("; ".join(f"{owner}.{name} {message}" for name, message in self.failures))


class ConfigError(Exception):
    """Invalid run configuration; carries one message per offending field."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
