"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Each workload shrunk to a second or two per op.
TINY = {
    "target-run": {},
    "ppi-serve": {"requests": 60, "chains": 12},
    "fleet": {"jobs": 30, "chains": 8},
}


@pytest.fixture
def build(tmp_path):
    return lambda name: workloads.build(name, tmp_path, **TINY[name])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_workload_runs_without_errors(build, name):
    workload = build(name)
    records = [run.run_op(workload, 5, index) for index in (run.WARMUP, 0)]
    for record in records:
        assert record.failure is None
        assert record.items > 0
        assert len(record.digest) == 64
    assert records[0].digest != records[1].digest


def test_same_seed_same_digest(build):
    workload = build("fleet")
    assert run.run_op(workload, 9, 2).digest == run.run_op(workload, 9, 2).digest


def test_self_time_on_synthetic_span_tree():
    # op [0,10] > search [1,6] > kernels [2,5] > kernels [3,4];
    # op > kernels [7,9]; op > a child reaching past its parent's end.
    spans = [
        ["op", "op", 0.0, 10.0, None, 0],
        ["msa.search", "s", 1.0, 6.0, 0, 0],
        ["msa.kernels", "k", 2.0, 5.0, 1, 0],
        ["msa.kernels", "k", 3.0, 4.0, 2, 0],
        ["msa.kernels", "k", 7.0, 9.0, 0, 0],
        ["msa.align", "a", 8.5, 11.0, 0, 0],
    ]
    own = tracing.self_times(spans)
    # op: 10 - (union of [1,6], [7,9], [8.5,10]) = 10 - 5 - 3 = 2
    assert own == pytest.approx([2.0, 2.0, 2.0, 1.0, 2.0, 2.5])

    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    metrics = tracer.layer_metrics(ops=2)
    assert metrics["msa.search.calls"] == pytest.approx(0.5)
    assert metrics["msa.search.self_s"] == pytest.approx(1.0)
    # Nested kernel spans count once: (3 + 2) s over 2 ops.
    assert metrics["msa.kernels.busy_s"] == pytest.approx(2.5)
    assert metrics["msa.align.calls"] == pytest.approx(0.5)


def test_perturbed_output_counts_as_failed(build, monkeypatch):
    workload = build("ppi-serve")
    reference = {0: run.run_op(workload, 3, 0).digest}
    assert run.run_op(workload, 3, 0, reference=reference).failure is None

    original = workload.run

    def perturbed(stream):
        gateway, report, summary = original(stream)
        summary["completed"] += 1
        return gateway, report, summary

    monkeypatch.setattr(workload, "run", perturbed)
    records = run.measure(workload, 3, seconds=1e-9, reference=reference)
    assert [r.failure is not None for r in records] == [True]


def test_broken_invariant_counts_as_failed(build, monkeypatch):
    workload = build("fleet")
    original = workload.run

    def time_went_backwards(inp):
        scheduler, report, summary = original(inp)
        scheduler.monotonic_violations = 1
        return scheduler, report, summary

    monkeypatch.setattr(workload, "run", time_went_backwards)
    failure = run.run_op(workload, 3, 0).failure
    assert failure is not None and "backwards" in failure


def _bound_objects():
    """Every (holder, attribute) -> object the tracer may wrap."""
    import importlib

    found = {}
    functions = set()
    for _layer, module_name, attr in tracing.BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            found[(owner, name)] = owner.__dict__[name]
        else:
            functions.add(id(getattr(module, name)))
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for key, value in vars(module).items():
                if id(value) in functions:
                    found[(module, key)] = value
    return found


def test_tracing_is_neutral_and_fully_removed(build):
    workload = build("fleet")
    before = _bound_objects()
    tracer = tracing.Tracer()
    plain, traced = run.measure_traced(workload, 4, 1e-9, tracer)

    assert len(plain) == len(traced) >= 1
    assert all(r.failure is None for r in plain + traced)
    assert [r.digest for r in traced] == [r.digest for r in plain]
    layers = {span[tracing.LAYER] for span in tracer.spans}
    assert {"cluster.scheduler", "cluster.autoscaler", "store.put",
            "store.get", "model.flops", "hardware.gpu"} <= layers
    assert not tracer.patches
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_layer_metric_names_a_wrapped_layer():
    layers = {layer for layer, _, _ in tracing.BOUNDARIES}
    for _name, _unit, kind, arg in tracing.LAYER_METRICS:
        if kind in ("calls", "self", "busy", "distinct"):
            assert arg in layers
