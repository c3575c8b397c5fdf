"""Tests of the benchmark's own arithmetic and of traced/untraced identity.

    PYTHONPATH=src python3 -m pytest -q bench/test_ladderbench.py
"""

import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert run.percentile(range(1, 102), 0.9) == 91
    assert run.percentile([7.0], 0.9) == 7.0
    assert run.percentile([1, 2], 0.25) == 1.25
    assert run.count_beyond(range(1, 102), 0.9) == 10


def test_op_latency_is_each_ops_minimum_over_its_samples():
    assert run.op_latencies([[3.0, 1.0], [1.0, 5.0, 4.0], [2.0]]) == [1.0, 1.0, 2.0]


def test_end_to_end_metrics_from_worker_record():
    res = {"samples": [[0.002, 0.001], [0.010, 0.020]], "peak_rss_mb": 50.0,
           "reference_s": 0.002}
    raw = run.raw_times(res)
    assert raw["wall_s"] == pytest.approx(0.011)
    assert raw["op_p50_ms"] == pytest.approx(5.5)
    assert raw["op_p90_ms"] == pytest.approx(9.1)
    m = run.end_to_end_metrics(0.25, res)
    assert m["wall_ref"] == pytest.approx(5.5)
    assert m["op_p50_ref"] == pytest.approx(2.75)
    assert m["op_p90_ref"] == pytest.approx(4.55)
    assert (m["setup_s"], m["peak_rss_mb"]) == (0.25, 50.0)


def test_rounds_due_spreads_a_fixed_number_of_samples():
    assert worker.rounds_due(2, 10) == {0, 5}
    assert worker.rounds_due(3, 10) == {0, 4, 7}
    assert worker.rounds_due(10, 10) == set(range(10))
    for n in (1, 2, 3, 8, 16):
        assert len(worker.rounds_due(n, 16)) == n


def test_measure_takes_each_ops_fixed_samples_and_counts_it_once():
    ops = [workloads.Op("a", lambda: 1, lambda out: 0.0, samples=3),
           workloads.Op("b", lambda: 2, lambda out: 2.0, samples=1)]
    record = worker.Run(ops)
    allowed = os.sched_getaffinity(0)
    worker.measure(record, 0.0)
    assert os.sched_getaffinity(0) == allowed
    assert [len(s) for s in record.samples] == [3, 1]
    assert [len(t) for t in record.reference] == [3 * len(allowed)] * 4
    assert record.result()["reference_s"] == pytest.approx(
        sum(min(t) for t in record.reference))
    assert (record.attempted, len(record.failed)) == (2, 1)
    assert record.result()["unexpected"] == 1


def test_known_defect_fails_quietly_only_up_to_its_ceiling():
    known = workloads.Known("defect", lambda out: out[1], ceiling=100.0)
    op = workloads.Op("k", lambda: None, lambda out: out[0], known)
    assert worker.judge(op, (0.5, 0.5), None)[0] is None
    assert worker.judge(op, (0.5, 50.0), None)[:2] == ("defect", 50.0)
    assert worker.judge(op, (0.5, 500.0), None)[0] == "unexpected"
    assert worker.judge(op, (2.0, 0.5), None)[0] == "unexpected"
    assert worker.judge(op, None, "ValueError: x")[0] == "unexpected"
    plain = workloads.Op("p", lambda: None, lambda out: out)
    assert worker.judge(plain, math.nan, None)[0] == "unexpected"


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],      # overlaps a: counted once
        ["c", 9.0, 12.0, 0, 0],     # clipped to the parent's end
        ["a.child", 1.5, 2.5, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])
    assert tracing.covered_length([], 0.0, 1.0) == 0.0


def test_layer_metrics_sum_self_time_and_route_fractions():
    spans = [
        ["factorization.factorization_residual", 0.0, 4.0, -1, 0],
        ["expm.expm", 0.5, 1.5, 0, 0],
        ["factorization.antinormal_core", 2.0, 3.5, 0, 0],
        ["factorization.factorization_residual", 5.0, 6.0, -1, 1],
        ["expm.expm", 5.0, 5.5, 3, 1],
    ]
    counters = Counter({"gn.gn_auto.oracle_calls": 0})
    m = tracing.layer_metrics(spans, counters)
    assert m["factorization.factorization_residual.calls"] == 2
    assert m["factorization.factorization_residual.self_s"] == pytest.approx(2.0)
    assert m["expm.expm.self_s"] == pytest.approx(1.5)
    assert m["factorization.antinormal_core.self_s"] == pytest.approx(1.5)
    assert m["factorization.exact_route_frac"] == 0.5
    assert m["gn.gn_auto.oracle_frac"] == 0.0
    assert m["triangles.generate.calls"] == 0


def _small_ops():
    """Cheap ops from every workload, covering every traced layer."""
    picks = {"certify": ("u2.normal", "u2.anti", "u2.pad", "cli.factorize"),
             "sweep": ("gn.routes", "gn.auto", "gn.recursion", "gn.gnm",
                       "phase.element", "sumrule", "cli.gn", "cli.phase"),
             "tables": ("diagram.rule", "rotation", "tiny.factorization",
                        "closure", "cli.triangle", "cli.check-algebra")}
    ops = []
    for workload, kinds in picks.items():
        seen = Counter()
        for op in workloads.build(workload, 7):
            if op.kind in kinds and seen[op.kind] < 2:
                seen[op.kind] += 1
                ops.append(op)
    # one gn_auto row past the series domain, so the oracle route is taken,
    # and one anti-normal certificate on the exact route
    ops.append(workloads._auto_row(1.5, 2.5, 1.1))
    spec = workloads.algebra.AlgebraSpec.parametric(1, 1, 1)
    ops.append(workloads._u1_point(spec, (0, 3), 0.65, "large")[2])
    return ops


def test_traced_and_untraced_passes_give_identical_outputs():
    ops = _small_ops()
    workloads.warm_up(ops)
    before = {name: getattr(sys.modules["ladderkit." + name.rsplit(".", 1)[0]],
                            name.rsplit(".", 1)[1]) for name in tracing.TRACED}
    record = worker.Run(ops)
    for i in range(len(ops)):
        record.sample(i)
    tracer = tracing.Tracer()
    with tracer.installed():
        for i in range(len(ops)):
            record.sample(i, tracer)
    assert record.deterministic
    assert record.attempted == 2 * len(ops)
    for name, fn in before.items():
        module, attr = name.rsplit(".", 1)
        assert getattr(sys.modules["ladderkit." + module], attr) is fn
    assert workloads.factorization.expm is workloads.xm.expm

    layers = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert layers["factorization.exact_route_frac"] > 0.0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert wanted <= set(layers)
    for name in tracing.TRACED:
        assert layers[name + ".calls"] > 0, name
    assert 0.0 < layers["gn.gn_auto.oracle_frac"] < 1.0
    assert layers["expm.expm.dim_max"] >= 60


def test_benchmark_json_end_to_end_names_are_computed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = {"samples": [[0.001]], "peak_rss_mb": 1.0, "reference_s": 0.01}
    assert {m["name"] for m in spec["end_to_end"]} == set(
        run.end_to_end_metrics(0.1, res))


def test_traced_passes_repeat_their_counts():
    ops = _small_ops()
    workloads.warm_up(ops)
    spans, layers = worker.measure_traced(worker.Run(ops), 2)
    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")}
              for m in layers]
    assert counts[0] == counts[1]
    assert counts[0]["factorization.exact_route_frac"] > 0.0
    assert all(sp[3] < i for pass_spans in spans for i, sp in enumerate(pass_spans))
