"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q bench/tests/check_bench.py

The file name keeps these out of the repository's default test collection:
the anchor counts pin today's moving-boundary solver.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return workloads, tracer


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def _counts(values: dict) -> dict:
    return {k: v for k, v in values.items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", ["closed-form", "pde-reference"])
def test_counts_repeat_exactly(traced, tmp_path, name):
    workloads, tracer = traced
    workload = workloads.make(name, 3, str(tmp_path))
    workload.prepare()
    first = len(tracer.per_pass())
    for offset in range(2):
        tracer.pass_index = first + offset
        workload.run_pass(workloads.Recorder(tracer))
    tracer.pass_index = -1
    per_pass = tracer.per_pass()
    one, two = _counts(per_pass[first]), _counts(per_pass[first + 1])
    assert one == two
    assert one[("exact.radius_at.calls" if name == "closed-form" else "pde.nfev")] > 0


def test_traced_solve_reproduces_anchor(traced):
    workloads, tracer = traced
    tracer.pass_index = 10_000
    workloads.sd.solve_moving_boundary(0.1, 1.0)
    tracer.pass_index = -1
    counts = tracer.per_pass()[10_000]
    assert counts["pde.steps"] == 1058
    assert counts["pde.nfev"] == 3083
    assert counts["pde.njev"] == 33
    assert counts["pde.nlu"] == 223
    assert counts["pde.solve_moving_boundary.calls"] == 1
