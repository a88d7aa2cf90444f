"""Tests of the benchmark's own parts: inputs, references, gate infidelity and span arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from checks import gate_infidelity
from inputs import WORKLOADS, circle_law, make_ops, piecewise_drive, polygon_alphas, polygon_phase
from run import PER_LAYER, tail
from tracing import parse_importtime, self_times, summarize


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_values_not_sizes(workload):
    def sizes(op):
        expect = op.expect or {}
        drive = op.drive or {}
        return (op.op_id, op.kind, drive.get("shape"), drive.get("loops"),
                expect.get("dim"), expect.get("steps"), len(expect.get("values", ())))

    assert [sizes(op) for op in make_ops(workload, 1)] == [sizes(op) for op in make_ops(workload, 2)]


def test_circle_law_by_hand():
    # g0 = 0.1, nu = 0.2, one loop: 2*pi * 0.01 / 0.04 = pi/2; reversed rotation flips the sign
    assert circle_law(0.1, 0.2, 1) == pytest.approx(math.pi / 2, rel=1e-15)
    assert circle_law(0.1, -0.2, 2) == pytest.approx(-math.pi, rel=1e-15)


def test_polygon_phase_of_a_square_by_hand():
    # I(t) runs counterclockwise round the unit square 0 -> 1 -> 1+i -> i -> 0;
    # alpha = -i conj(I) runs clockwise round a unit square, so gamma = 2 * (-1)
    durations = [1.0, 1.0, 1.0, 1.0]
    values = [1, 1j, -1, -1j]
    np.testing.assert_allclose(polygon_alphas(durations, values), [0, -1j, -1 - 1j, -1, 0], atol=1e-15)
    assert polygon_phase(durations, values) == pytest.approx(-2.0, abs=1e-15)


def test_piecewise_drive_closes_at_fixed_radius():
    drive = piecewise_drive(np.random.default_rng(3), units=(3, 5, 2, 6, 4), quantum=2.0, radius=1.0)
    durations = [d for d, _ in drive["segments"]]
    values = [v for _, v in drive["segments"]]
    alphas = polygon_alphas(durations, values)
    assert abs(alphas[-1]) < 1e-14
    assert np.abs(alphas).max() == pytest.approx(1.0, rel=1e-12)
    assert drive["T"] == 40.0


def test_gate_infidelity_resolves_tiny_errors():
    # both corners off by delta: 1 - fidelity = 1 - cos(delta/2), about delta^2/8
    gamma = 0.7
    for delta in (1e-3, 1e-9):
        corner = np.exp(1j * (gamma + delta))
        expected = 2 * math.sin(delta / 4) ** 2
        assert gate_infidelity([corner, 1, 1, corner], gamma) == pytest.approx(expected, rel=1e-6)
    leaky = gate_infidelity([0.99 * np.exp(1j * gamma), 1, 1, np.exp(1j * gamma)], gamma)
    assert leaky == pytest.approx(1 - (3 + 0.99) / 4, rel=1e-12)


def _span(name, start, end, parent, op="op", cpu=None, samples=None):
    return (name, start, end, parent, op, cpu, samples)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("c", 5.5, 11.0, 0),  # overlaps b and runs past the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 5, 3 - 1, 1, 1, 5.5])


def test_summary_counts_steps_under_their_stepper():
    spans = [
        _span("evolve.propagate_numeric", 0.0, 4.0, -1, op="u", cpu=6.0),
        _span("model.hamiltonian_builder", 0.0, 1.0, 0, op="u"),
        _span("model.build", 1.0, 2.0, 0, op="u"),
        _span("model.build", 2.0, 3.0, 0, op="u"),
        _span("fock.annihilation", 0.2, 0.4, 1, op="u"),
    ]
    out = summarize(spans, {"u": "unitary"}, {"u": 2})
    assert out["evolve.propagate_numeric.steps"] == 2
    assert out["evolve.propagate_numeric.self_s"] == pytest.approx(1.0)
    assert out["evolve.propagate_numeric.cpu_per_wall"] == pytest.approx(1.5)
    assert out["evolve.propagate_numeric.flops_computed"] == 2 * 16 * 8**3
    assert out["model.hamiltonian_builder.self_s"] == pytest.approx(0.8)
    assert out["fock.calls"] == 1
    assert out["evolve.alpha_trajectory.per_op"] == 0.0


def test_importtime_splits_package_costs_without_overlap():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        40 |         40 |       numpy.fft",
        "import time:        50 |         90 |     scipy._lib",
        "import time:       400 |        490 |   scipy.linalg",
        "import time:        10 |        800 | loopgate",
    ])
    got = parse_importtime(stderr, "loopgate", ("numpy", "scipy"))
    assert got == pytest.approx({"loopgate": 800e-6, "numpy": 300e-6, "scipy": 490e-6})


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = tail(list(range(30)))
    assert (value, count) == (19, 30)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert sum(1 for v in range(30) if v > value) == 10


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
