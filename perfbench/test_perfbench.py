"""Self-tests of the benchmark definition; no workload runs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_metric_names_and_counts():
    names = E2E + LAYER + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert 1 <= len(E2E) <= 16
    assert 1 <= len(LAYER) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_setup_metric_has_the_largest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_has_a_reason():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200


@pytest.mark.parametrize("metric", LAYER)
def test_per_layer_metric_names_what_it_should_move(metric):
    e2e, on = tracing.moves(metric)
    assert e2e and set(e2e) <= set(E2E)
    assert on and set(on) <= set(WORKLOAD_NAMES)


def test_declared_metrics_are_the_reported_ones():
    assert LAYER == tracing.per_layer_names()
    run = workloads.WorkloadRun("x", 1, [1.0, 2.0, 3.0], [
        workloads.Op("a", {}, "main", latency=1.0), workloads.Op("b", {}, "side", latency=2.0)],
        window_s=3.0, throughput_ops=2, peak_rss_mb=100.0)
    assert list(workloads.end_to_end(run)) == E2E


def test_sweep_has_at_least_100_distinct_specs_with_a_seed_independent_mix():
    specs = workloads.sweep_specs()
    keys = {json.dumps([op.kind, op.params], sort_keys=True) for op in specs}
    assert len(keys) == len(specs) >= 100

    def mix(ops):
        return sorted((op.kind, op.params["method"], op.params["partitions"]) for op in ops)

    one, two = workloads.sweep_order(1), workloads.sweep_order(2)
    assert mix(one) == mix(specs)
    assert [op.params for op in one] != [op.params for op in two]
    for n in (15, 45, 70):
        assert mix(one[:n]) == mix(two[:n])


def test_cold_cli_rounds_cover_each_partition_count_once_per_kind():
    ops = workloads.cold_cli_ops(5, 20)
    assert len(ops) == 12
    for kind in ("analyze", "filter"):
        parts = [op.params["partitions"] for op in ops if op.kind == kind]
        assert sorted(parts) == [1, 1, 4, 4, 16, 16]


def test_self_times_and_unattributed_sum_to_the_untraced_latency():
    tracer = tracing.Tracer()
    with tracer.op(0):
        with tracer.span("pipeline.analyze"):
            with tracer.span("core.filter", method="chordal", parts=1, backend="default"):
                pass
            with tracer.span("clustering.match"):
                pass
    run = workloads.WorkloadRun("cold-cli", 1, [1.0], [workloads.Op("analyze", {}, "main", latency=2.5)],
                                window_s=2.5, throughput_ops=1, peak_rss_mb=1.0)
    _, decomposition = tracing.per_layer(run, tracer, {}, {})
    (op,) = decomposition
    assert sum(op["self_s"].values()) + op["unattributed_s"] == pytest.approx(2.5, abs=1e-12)
    root = tracer.spans[0]
    assert sum(tracer.self_times()) == pytest.approx(root.duration, abs=1e-12)


def test_percentile_interpolates():
    assert workloads.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert workloads.percentile([5.0], 90) == 5.0
