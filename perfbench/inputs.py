"""Seeded operations for the loopgate benchmark, with references computed in numpy.

Every workload runs the same list of operations in each pass. The list is
built from slots whose sizes are fixed: loop count, target phase, step count,
Fock dimension, sample count and sweep length. The seed draws the drive values
inside each slot: frequency, sense of rotation, start phase, polygon shape and
sampled values. Cost and discretisation error depend on the sizes, so the seed
changes the numbers the program sees without changing how hard they are.

References never call loopgate:

* circular drives obey the circle law gamma = sign(nu) * 2*pi*loops*g0^2/nu^2;
* closed piecewise drives trace an exact polygon in phase space, gamma = 2*area;
* sampled drives are chords of a circle, so they are held to the circle law
  within a tolerance that scales with the squared sample spacing.
"""

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("cli_analytic", "cli_numeric", "library_unitary")

PHASES_HEADER = ["branch", "gamma_g", "gamma_d", "gamma_total", "closure_residual", "enclosed_area"]
GATE_HEADER = [
    "method",
    "extracted_gamma",
    "closure_residual",
    "diagonality_residual",
    "fidelity",
    "nontrivial",
] + [f"m{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im")]
SCAN_COLUMNS = ["infidelity", "diagonality_residual", "phase_error"]
SWEEP_PHASE_COLUMNS = ["gamma_g", "gamma_d", "gamma_total", "closure_residual"]

# scalar phase-engine resolution of every cli_analytic operation
ANALYTIC_STEPS = 100_000
# piecewise segment lengths in units of one quantum; their sum, 20, divides the
# numeric gate's default 4000 steps and ANALYTIC_STEPS, so every corner falls on
# the time grid and the program's piecewise results are exact to roundoff
POLYGON = dict(units=(3, 5, 2, 6, 4), quantum=2.0, radius=1.0)
# linear interpolation between circle samples shifts gamma by -(1/6) gamma (nu*dt)^2
SAMPLED_TOL_FACTOR = 0.25


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI call (argv plus config text) or a library call."""

    op_id: str
    kind: str
    argv: tuple[str, ...] = ()
    config: str | None = None
    drive: dict | None = None
    expect: dict | None = None


def circle_law(g0: float, nu: float, loops: int) -> float:
    """Total phase of the ++ branch for a closed circular drive."""
    return math.copysign(2 * math.pi * loops * g0 * g0 / (nu * nu), nu)


def polygon_alphas(durations, values) -> np.ndarray:
    """Phase-space vertices alpha_k = -i conj(I(t_k)) of the ++ branch for a piecewise drive."""
    steps = np.asarray(durations, dtype=float) * np.asarray(values, dtype=complex)
    prefix = np.concatenate(([0j], np.cumsum(steps)))
    return -1j * np.conjugate(prefix)


def polygon_phase(durations, values) -> float:
    """gamma = 2 * signed area of the closed polygon the ++ branch traces."""
    alphas = polygon_alphas(durations, values)
    return float(np.sum((np.conjugate(alphas[:-1]) * alphas[1:]).imag))


def sampled_tolerance(nu: float, sample_dt: float) -> float:
    """Relative phase tolerance of a sampled circle, scaled to the squared sample spacing."""
    return SAMPLED_TOL_FACTOR * (nu * sample_dt) ** 2 + 1e-6


def _fmt(value) -> str:
    return repr(float(value)) if not isinstance(value, complex) else repr(value)


def circular_drive(rng, gamma: float, loops: int, r0_over_nu: float = 0.0) -> dict:
    """Circular drive with a fixed |gamma| and loop count; the seed picks nu, sense and phase0."""
    nu = float(rng.uniform(0.15, 0.6) * rng.choice((-1.0, 1.0)))
    g0 = abs(nu) * math.sqrt(gamma / (2 * math.pi * loops))
    return {
        "shape": "circular",
        "g0": g0,
        "nu": nu,
        "phase0": float(rng.uniform(0.0, 2 * math.pi)),
        "loops": loops,
        "T": loops * 2 * math.pi / abs(nu),
        "r0": r0_over_nu * abs(nu),
        "gamma": circle_law(g0, nu, loops),
        "g_max": g0,
    }


def piecewise_drive(rng, units, quantum: float, radius: float, r0: float = 0.0) -> dict:
    """Closed polygon with fixed segment durations; the seed picks its shape, scaled to |alpha| <= radius.

    The last segment cancels the drive integral, so the loop closes by construction.
    """
    durations = quantum * np.asarray(units, dtype=float)
    n = len(units)
    values = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    values[-1] = -np.sum(durations[:-1] * values[:-1]) / durations[-1]
    values *= radius / np.abs(polygon_alphas(durations, values)).max()
    segments = [(float(d), complex(v)) for d, v in zip(durations, values)]
    return {
        "shape": "piecewise",
        "segments": segments,
        "T": float(durations.sum()),
        "r0": r0,
        "gamma": polygon_phase(durations, values),
        "g_max": float(np.abs(values).max()),
    }


def sampled_drive(rng, gamma: float, n_samples: int) -> dict:
    """One circular loop given as n_samples + 1 equally spaced samples."""
    circle = circular_drive(rng, gamma, 1)
    sample_dt = circle["T"] / n_samples
    times = sample_dt * np.arange(n_samples + 1)
    values = circle["g0"] * np.exp(1j * (circle["phase0"] - circle["nu"] * times))
    return {
        "shape": "sampled",
        "dt": sample_dt,
        "values": [complex(v) for v in values],
        "T": float(times[-1]),
        "r0": 0.0,
        "gamma": circle["gamma"],
        "g_max": circle["g0"],
        "tol": sampled_tolerance(circle["nu"], sample_dt),
    }


def pulse_section(drive: dict) -> str:
    lines = ["[pulse]", f"shape = {drive['shape']}"]
    if drive["shape"] == "circular":
        for key in ("g0", "nu", "phase0"):
            lines.append(f"{key} = {_fmt(drive[key])}")
        lines.append(f"loops = {drive['loops']}")
    elif drive["shape"] == "piecewise":
        lines.append("segments = " + "; ".join(f"{_fmt(d)} {_fmt(v)}" for d, v in drive["segments"]))
    else:
        lines.append(f"dt = {_fmt(drive['dt'])}")
        lines.append("values = " + " ".join(_fmt(v) for v in drive["values"]))
    lines.append(f"r0 = {_fmt(drive['r0'])}")
    return "\n".join(lines) + "\n"


def _config(drive: dict, **sections) -> str:
    text = pulse_section(drive)
    for name, entries in sections.items():
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
    return text


def _phase_op(op_id, drive, n_steps, tol):
    config = _config(drive, run={"n_steps": n_steps})
    return Op(op_id, "phases", ("phases",), config, drive, {"gamma": drive["gamma"], "tol": tol})


def _cli_analytic(rng) -> list[Op]:
    sampled = sampled_drive(rng, math.pi / 2, 256)
    gate_circle = circular_drive(rng, 3 * math.pi / 4, 2)
    gate_poly = piecewise_drive(rng, **POLYGON)
    sweep_base = circular_drive(rng, math.pi / 2, 2)
    nu = sweep_base["nu"]
    sweep_g0 = [abs(nu) * math.sqrt(g / (4 * math.pi)) for g in np.linspace(0.25, 3.0, 12)]
    design_target = float(rng.uniform(0.2, 3.0))
    design_loops = int(rng.integers(1, 4))
    design_g0 = float(rng.uniform(0.05, 0.3))
    analytic = {"n_steps": ANALYTIC_STEPS, "method": "analytic"}
    return [
        _phase_op("phases-circular-1", circular_drive(rng, math.pi / 2, 1), ANALYTIC_STEPS, 1e-6),
        _phase_op("phases-circular-3", circular_drive(rng, math.pi / 3, 3), ANALYTIC_STEPS, 1e-6),
        _phase_op("phases-piecewise", piecewise_drive(rng, **POLYGON), ANALYTIC_STEPS, 1e-8),
        _phase_op("phases-sampled", sampled, 256 * 400, sampled["tol"]),
        Op("gate-analytic-circular-2", "gate", ("gate",), _config(gate_circle, run=analytic),
           gate_circle, {"gamma": gate_circle["gamma"], "tol": 1e-6, "method": "analytic"}),
        Op("gate-analytic-piecewise", "gate", ("gate",), _config(gate_poly, run=analytic),
           gate_poly, {"gamma": gate_poly["gamma"], "tol": 1e-8, "method": "analytic"}),
        Op("design", "design",
           ("design", _fmt(design_target), "--g0", _fmt(design_g0), "--loops", str(design_loops)),
           None, None, {"gamma": design_target, "g0": design_g0, "loops": design_loops}),
        Op("sweep-g0", "sweep", ("sweep",),
           _config(sweep_base, run={"n_steps": ANALYTIC_STEPS},
                   sweep={"max_points": len(sweep_g0), "g0": " ".join(_fmt(g) for g in sweep_g0)}),
           sweep_base,
           {"field": "g0", "values": sweep_g0,
            "gammas": [circle_law(g, nu, 2) for g in sweep_g0], "tol": 1e-6}),
    ]


def rotating_tolerance(drive: dict) -> float:
    """Phase allowance for the rotating tier: the second-order shift |g|^2 T / r0 the RWA drops."""
    return 1e-4 + drive["g_max"] ** 2 * drive["T"] / drive["r0"]


def _cli_numeric(rng) -> list[Op]:
    rwa_circle = circular_drive(rng, math.pi / 2, 1)
    rwa_poly = piecewise_drive(rng, **POLYGON)
    rot_circle = circular_drive(rng, math.pi / 2, 1, r0_over_nu=30.0)
    scan_circle = circular_drive(rng, math.pi / 2, 1)
    trunc_poly = piecewise_drive(rng, **POLYGON)
    scan_r0 = [k * abs(scan_circle["nu"]) for k in (4, 12, 28)]
    scan_dt = 0.08 / scan_r0[-1]
    trunc_dt = trunc_poly["T"] / (sum(POLYGON["units"]) * 40)
    rot_dt = 0.05 / rot_circle["r0"]
    numeric = {"dim": 16}
    return [
        Op("gate-rwa-circular", "gate", ("gate",),
           _config(rwa_circle, space=numeric, run={"method": "numeric_rwa"}), rwa_circle,
           {"gamma": rwa_circle["gamma"], "tol": 1e-4, "method": "numeric_rwa"}),
        Op("gate-rwa-piecewise", "gate", ("gate",),
           _config(rwa_poly, space=numeric, run={"method": "numeric_rwa"}), rwa_poly,
           {"gamma": rwa_poly["gamma"], "tol": 1e-4, "method": "numeric_rwa"}),
        Op("gate-rotating-circular", "gate", ("gate",),
           _config(rot_circle, space=numeric, run={"method": "numeric_rotating", "dt": _fmt(rot_dt)}),
           rot_circle,
           {"gamma": rot_circle["gamma"], "tol": rotating_tolerance(rot_circle),
            "method": "numeric_rotating"}),
        Op("validate-rwa", "validate", ("validate",),
           _config(scan_circle, scan={"kind": "rwa", "r0_values": " ".join(_fmt(r) for r in scan_r0),
                                      "dt": _fmt(scan_dt), "dim": 12}),
           scan_circle, {"column": "r0", "values": scan_r0}),
        Op("validate-truncation", "validate", ("validate",),
           _config(trunc_poly, scan={"kind": "truncation", "dims": "8 12 16", "dt": _fmt(trunc_dt)}),
           trunc_poly, {"column": "dim", "values": [8.0, 12.0, 16.0]}),
    ]


def _library_unitary(rng) -> list[Op]:
    circle = circular_drive(rng, math.pi / 2, 1)
    poly = piecewise_drive(rng, **POLYGON)
    rot = circular_drive(rng, math.pi / 2, 1, r0_over_nu=20.0)
    return [
        Op("unitary-rwa-circular", "unitary", drive=circle,
           expect={"tier": "rwa", "dim": 12, "steps": 400, "gamma": circle["gamma"], "tol": 1e-4}),
        Op("unitary-rwa-piecewise", "unitary", drive=poly,
           expect={"tier": "rwa", "dim": 14, "steps": 40, "gamma": poly["gamma"], "tol": 1e-4}),
        Op("unitary-rotating-circular", "unitary", drive=rot,
           expect={"tier": "rotating", "dim": 12, "steps": round(rot["T"] * rot["r0"] / 0.1),
                   "gamma": rot["gamma"], "tol": rotating_tolerance(rot)}),
    ]


_BUILDERS = {"cli_analytic": _cli_analytic, "cli_numeric": _cli_numeric, "library_unitary": _library_unitary}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The fixed operation list of one pass of `workload`, drawn from `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)
