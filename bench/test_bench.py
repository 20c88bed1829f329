"""Tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import os
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.queries_for(workload, 11)
        again = workloads.queries_for(workload, 11)
        assert [(q.qid, q.digest) for q in first] == \
               [(q.qid, q.digest) for q in again]
        other = workloads.queries_for(workload, 12)
        assert [q.qid for q in first] != [q.qid for q in other]


def test_every_drawn_query_has_a_reference():
    for workload in workloads.WORKLOADS:
        refs = workloads.load_refs(workload)
        for seed in range(5):
            for q in workloads.queries_for(workload, seed):
                assert refs[q.qid]["digest"] == q.digest


def _small_query():
    images = [[0, 1], [1, 2], [3, 4], [0, 5], [2, 6], [4, 7], [5, 6], [7, 8]]
    return workloads.Query("t", {"kind": "capacity", "outputs": 9,
                                 "images": images, "delta": "1/2"})


def test_checker_rejects_perturbed_count():
    q = _small_query()
    spec = q.spec
    count, witness = checker.clique_capacity(workloads.images_map(spec), 9,
                                             Fraction(spec["delta"]))
    ref = {"count": count, "witness": witness}
    assert workloads.answer_problems(q, dict(ref), ref) == []
    bumped = {"count": count + 1, "witness": witness}
    assert workloads.answer_problems(q, bumped, ref)


def test_checker_rejects_feasible_but_not_least_witness():
    q = _small_query()
    images, delta = workloads.images_map(q.spec), Fraction(q.spec["delta"])
    count, witness = checker.clique_capacity(images, 9, delta)
    feasible = [list(cb) for cb in itertools.combinations(sorted(images), count)
                if not checker.witness_problems(images, 9, delta, count, cb)]
    assert feasible[0] == witness and len(feasible) > 1
    later = feasible[1]
    assert checker.witness_problems(images, 9, delta, count, later) == []
    ref = {"count": count, "witness": witness}
    assert workloads.answer_problems(q, {"count": count, "witness": later}, ref)


def test_checker_rejects_infeasible_witness():
    images = {0: {0, 1}, 1: {1, 2}, 2: {3}}
    assert checker.witness_problems(images, 4, Fraction(0), 2, [0, 1])
    assert checker.witness_problems(images, 4, Fraction(0), 2, [0, 2]) == []


def test_clique_search_agrees_with_brute_force():
    pool = workloads.Pool("test", 12, 8, (2, 4), tuple(range(6)), 1)
    for index in pool.indices:
        images = {x: set(img) for x, img in enumerate(pool.images(index))}
        for delta in (Fraction(0), Fraction(1, 4), Fraction(3, 4)):
            assert checker.clique_capacity(images, 8, delta) == \
                   checker.brute_force_capacity(images, 8, delta)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10) holds b [1, 4) and c [5, 9); c holds an aggregate-only
    # uvcore.of call [6, 8); b raises
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    events = [(0, "enter", "a"), (1, "enter", "b"), (4, "exit", "b"),
              (5, "enter", "c"), (6, "enter", "uvcore.of"),
              (8, "exit", "uvcore.of"), (9, "exit", "c"), (10, "exit", "a")]
    for t, what, name in events:
        clock.now = float(t)
        if what == "enter":
            tracer.enter(name)
        else:
            tracer.exit(name, raised=(name == "b"))
    self_s = {name: stat["self_s"] for name, stat in tracer.stats.items()}
    assert self_s == {"a": 3.0, "b": 3.0, "c": 2.0, "uvcore.of": 2.0}
    assert tracer.stats["b"]["raised"] == 1
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["a", "b", "c"]          # uvcore.of is not stored
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.end) == [10.0, 4.0, 9.0]


def test_time_limit_guard_returns_on_a_slow_query():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    status, detail, seconds = harness.call_with_limit(spin, 0.2)
    assert status == harness.TIMEOUT and seconds == 0.2
    assert time.perf_counter() - start < 2
    status, value, _ = harness.call_with_limit(lambda: 42, 1.0)
    assert (status, value) == (harness.OK, 42)
    status, detail, seconds = harness.call_with_limit(lambda: 1 / 0, 1.0)
    assert status == harness.ERROR and seconds == 1.0


def test_child_guard_kills_a_slow_process():
    start = time.perf_counter()
    status, proc, seconds = harness.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], 0.5,
        dict(os.environ), ROOT)
    assert status == harness.TIMEOUT and proc is None
    assert time.perf_counter() - start < 5


def test_install_patches_every_binding_and_uninstall_restores():
    import uvinfo
    from uvinfo import chancap, infocalc, memoryless, uvcore
    original_capacity = chancap.capacity
    original_of = uvcore.CardinalityPower.of
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        for module in (uvinfo, chancap, memoryless):
            assert module.capacity.__wrapped__ is original_capacity
        for module in (infocalc, chancap, memoryless):
            assert hasattr(module.overlap_family, "__wrapped__")
        ch = uvinfo.Channel.of({1: {"a"}, 2: {"b"}, 3: {"a", "b"}})
        m = uvinfo.CardinalityPower(2)
        memoryless.rate_at_horizon(ch, m, Fraction(0), 1)
    finally:
        spans.uninstall(patched)
    assert chancap.capacity is original_capacity
    assert memoryless.capacity is original_capacity
    assert uvcore.CardinalityPower.of is original_of
    assert tracer.stats["chancap.capacity"]["calls"] == 1
    assert tracer.stats["chancap.capacity"]["pairs"] == 3
    assert tracer.stats["memoryless.materialize"]["calls"] == 1
    assert tracer.stats["uvcore.of"]["calls"] > 0


def test_benchmark_json_matches_the_metric_tables():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
           [(name, unit) for name, unit, _ in spans.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    names = [w["name"] for w in spec["workloads"]]
    assert names == [w for w in workloads.WORKLOADS if w in names]


def test_tail_leaves_ten_values_beyond():
    values = list(range(1, 41))
    value, pct = harness.tail(values)
    assert value == 30 and sum(v > value for v in values) == 10
    assert pct == 75.0


def test_closed_loop_scales_each_run_by_the_kernel_around_it(monkeypatch):
    kernel = iter([0.004, 0.006, 0.002, 0.002])
    monkeypatch.setattr(harness, "calibrate", lambda: next(kernel))
    queries = [workloads.Query(name, {"kind": "capacity"}) for name in "ab"]
    outcomes = harness.closed_loop(
        queries, lambda q: harness.Outcome(harness.OK, 0.1), 0, passes=1)
    scale = harness.CALIBRATION_S
    assert outcomes["a"][0].scale == scale / 0.005
    assert outcomes["b"][0].scale == scale / 0.004
    summary = harness.summarize(outcomes, 1.0)
    assert summary["measured"]["wall_s"] == 0.2
    assert abs(summary["wall_s"] - 0.1 * scale * (1 / 0.005 + 1 / 0.004)) < 1e-12
