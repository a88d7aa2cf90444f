import numpy as np
import pytest

from loopgate import Circular, PiecewiseConstant, PulseSpec
from loopgate.model import hamiltonian_table

# filled by the acceptance suite; printed after the run so the per-criterion
# verdicts stay visible under captured output
ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, verdict in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{label}: {verdict}")


@pytest.fixture
def standard_pulse() -> PulseSpec:
    """One-loop circular drive with g0=0.1, nu=0.2; total phase pi/2 on the outer branches."""
    return PulseSpec(g_shape=Circular(g0=0.1, nu=0.2, phase0=0.0), T=2 * np.pi / 0.2)


@pytest.fixture
def zero_pulse() -> PulseSpec:
    """A drive that never turns on."""
    return PulseSpec(g_shape=PiecewiseConstant(segments=((2.0, 0.0),)), T=2.0)


def random_closed_piecewise(rng: np.random.Generator, quantum: float = 0.05):
    """Random piecewise-constant pulse whose drive integral vanishes.

    Durations are integer multiples of `quantum`, so a sampling grid whose
    step divides `quantum` hits every segment corner exactly.
    """
    n_seg = int(rng.integers(3, 8))
    durations = quantum * rng.integers(4, 30, size=n_seg).astype(float)
    values = rng.uniform(-0.4, 0.4, size=n_seg) + 1j * rng.uniform(-0.4, 0.4, size=n_seg)
    # last segment value closes the loop: sum(duration * g) = 0
    values[-1] = -np.sum(durations[:-1] * values[:-1]) / durations[-1]
    segments = tuple((float(d), complex(g)) for d, g in zip(durations, values))
    pulse = PulseSpec(g_shape=PiecewiseConstant(segments=segments), T=float(durations.sum()))
    # grid step quantum/8 keeps every corner on the grid
    n_steps = int(round(pulse.T / quantum)) * 8
    return pulse, n_steps


def hamiltonian(tier, pulse, space, t):
    """Dense H(t) of one tier, summed from its operator table."""
    operators, weights = hamiltonian_table(tier, pulse, space, t)
    return np.tensordot(weights[0], operators, 1)
