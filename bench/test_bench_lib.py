"""Tier-1 tests of the benchmark's own library (no workload runs, < 2 s)."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import benchlib  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402


# ----------------------------------------------------------------------
# Self-time fold
# ----------------------------------------------------------------------
def test_fold_subtracts_direct_children_and_merges_nested_same_layer_spans():
    # api.read [0, 10] > steiner.solve [1, 7] > steiner.default_tree [2, 5]
    #                  > engine.execute [7, 9]
    spans = [
        Span("api.read", "api", 0.0, 10.0, -1),
        Span("steiner.solve", "steiner", 1.0, 7.0, 0),
        Span("steiner.default_tree", "steiner", 2.0, 5.0, 1),
        Span("engine.execute", "engine", 7.0, 9.0, 0),
    ]
    folded = tracing.fold(spans)
    assert folded["points"]["api.read"] == {"self_s": 2.0, "calls": 1}
    assert folded["points"]["steiner.solve"] == {"self_s": 3.0, "calls": 1}
    assert folded["points"]["steiner.default_tree"] == {"self_s": 3.0, "calls": 1}
    # The nested same-layer pair covers [1, 7] once, not [1, 7] + [2, 5].
    assert folded["layers"]["steiner"] == {"self_s": 6.0, "calls": 2}
    assert sum(layer["self_s"] for layer in folded["layers"].values()) == 10.0


def test_span_closed_by_an_exception_is_recorded_and_the_stack_unwinds():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise ValueError("boom")

    outer = tracer.wrap("api.outer", lambda: tracer.wrap("core.boom", boom)())
    with pytest.raises(ValueError):
        outer()
    after = tracer.wrap("api.after", lambda: None)
    after()
    spans = tracer.closed_spans()
    assert [(s.name, s.parent) for s in spans] == [
        ("api.outer", -1), ("core.boom", 0), ("api.after", -1),
    ]
    assert all(s.end > s.start for s in spans)


def test_lazy_iterator_keeps_its_span_open_until_drained():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("engine.execute", lambda: "rows")

    def stream():
        yield inner()  # the deferred work happens while the consumer drains
        yield inner()

    wrapped = tracer.wrap("api.stream", stream)
    assert list(wrapped()) == ["rows", "rows"]
    spans = tracer.closed_spans()
    assert [(s.name, s.parent) for s in spans] == [
        ("api.stream", -1), ("engine.execute", 0), ("engine.execute", 0),
    ]
    folded = tracing.fold(spans)
    assert folded["points"]["engine.execute"]["calls"] == 2
    assert folded["points"]["api.stream"]["self_s"] == (spans[0].end - spans[0].start) - 2.0


def test_covered_seconds_merges_root_spans_across_threads():
    spans = [
        Span("a.x", "a", 1.0, 4.0, -1),
        Span("a.y", "a", 2.0, 3.0, 0),  # child: ignored
        Span("b.z", "b", 3.0, 6.0, -1),  # overlaps the first root
        Span("b.w", "b", 8.0, 12.0, -1),  # clipped at the window's end
    ]
    assert tracing.covered_seconds(spans, 0.0, 10.0) == 7.0


# ----------------------------------------------------------------------
# Install / uninstall
# ----------------------------------------------------------------------
def _fake_module(monkeypatch):
    module = types.ModuleType("repro_benchfake")

    class Target:
        def method(self, x):
            return x + 1

        @classmethod
        def make(cls, x):
            return (cls.__name__, x)

        @staticmethod
        def helper(x):
            return [x] * 3

    class Child(Target):
        pass

    def function(x):
        return x * 2

    module.Target, module.Child, module.function = Target, Child, function
    importer = types.ModuleType("repro_benchfake_importer")
    importer.function = function  # ``from repro_benchfake import function``
    monkeypatch.setitem(sys.modules, "repro_benchfake", module)
    monkeypatch.setitem(sys.modules, "repro_benchfake_importer", importer)
    return module, importer


def test_install_wraps_methods_classmethods_staticmethods_and_imported_functions(monkeypatch):
    module, importer = _fake_module(monkeypatch)
    originals = {
        "method": vars(module.Target)["method"],
        "make": vars(module.Target)["make"],
        "helper": vars(module.Target)["helper"],
        "function": module.function,
    }
    points = (
        ("x.method", "repro_benchfake:Target.method", False),
        ("x.make", "repro_benchfake:Child.make", False),  # defined on the parent
        ("x.helper", "repro_benchfake:Target.helper", True),
        ("x.function", "repro_benchfake:function", False),
        ("x.bogus", "repro_benchfake:Target.no_such_method", False),
        ("x.nomodule", "repro_benchfake_missing:thing", False),
    )
    tracer = tracing.Tracer()
    tracer.install(points)
    try:
        assert tracer.missing == ["x.bogus", "x.nomodule"]
        assert module.Target().method(1) == 2
        assert module.Child.make(5) == ("Child", 5)  # still bound to the calling class
        assert module.Target.helper(7) == [7, 7, 7]
        assert module.function(4) == 8
        assert importer.function(4) == 8  # the by-name import is traced too
    finally:
        tracer.uninstall()
    spans = tracer.closed_spans()
    assert [s.name for s in spans] == ["x.method", "x.make", "x.helper", "x.function", "x.function"]
    assert [s.size for s in spans] == [0, 0, 3, 0, 0]
    assert vars(module.Target)["method"] is originals["method"]
    assert vars(module.Target)["make"] is originals["make"]
    assert vars(module.Target)["helper"] is originals["helper"]
    assert module.function is originals["function"]
    assert importer.function is originals["function"]
    assert "make" not in vars(module.Child)


def test_every_wrap_point_names_a_layer_and_is_listed_once():
    names = [name for name, _target, _count in tracing.POINTS]
    assert len(names) == len(set(names))
    assert all(name.count(".") == 1 for name in names)


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_percentile_rule_at_16_128_and_2000_samples():
    assert benchlib.median_or_none(list(range(14))) is None
    assert benchlib.median_or_none(list(range(16))) == 7.5
    assert benchlib.supported_tail(16) is None  # p75 would have 3 samples beyond it
    assert benchlib.supported_tail(128) == 0.90  # 12 beyond p90, only 6 beyond p95
    assert benchlib.supported_tail(2000) == 0.99  # 19 beyond p99
    samples = [float(i) for i in range(128)]
    assert benchlib.percentile(samples, 0.90) == 115.0
    # The headline tail, which carries a bound, wants 15 samples beyond it.
    assert benchlib.headline(samples) == (63.5, 96.0, "p75")
    assert benchlib.headline([float(i) for i in range(256)]) == (127.5, 230.0, "p90")
    assert benchlib.headline([3.0, 1.0, 2.0]) == (2.0, 3.0, "max")


def test_spread_is_the_interquartile_range_over_the_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert benchlib.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert benchlib.spread([8.0, 10.0, 12.0]) == pytest.approx(0.4)  # <4 values: full range


# ----------------------------------------------------------------------
# Reference-speed time
# ----------------------------------------------------------------------
def test_reference_seconds_divide_out_host_speed_and_the_kernels_own_time():
    nominal = benchlib.CAL_NOMINAL_SECONDS
    # Samples every 0.1 s; the host runs at reference speed until t=1, then
    # at half speed (the kernel takes twice as long).
    times = [round(0.1 * i, 1) for i in range(21)]
    durations = [nominal if t <= 1.0 else 2 * nominal for t in times]
    assert benchlib.host_speed(times, durations, 0.25, 0.75) == pytest.approx(1.0)
    assert benchlib.host_speed(times, durations, 1.25, 1.75) == pytest.approx(0.5)
    # Five samples sit inside [1.25, 1.75]; their time is not the program's.
    inside = benchlib.calibration_seconds(times, durations, 1.25, 1.75)
    assert inside == pytest.approx(5 * 2 * nominal)
    assert benchlib.reference_seconds(times, durations, 1.25, 1.75) == pytest.approx(
        (0.5 - inside) * 0.5
    )
    # An interval between two samples borrows the padded neighbours ...
    assert benchlib.host_speed(times, durations, 1.52, 1.53) == pytest.approx(0.5)
    # ... one far from every sample the nearest, and no samples mean no correction.
    assert benchlib.host_speed(times, durations, 9.0, 9.5) == pytest.approx(0.5)
    assert benchlib.host_speed([], [], 0.0, 1.0) == 1.0
    assert benchlib.reference_seconds([], [], 2.0, 5.0) == 3.0


def test_digest_is_stable_across_object_sharing():
    shared = "value"
    a = [(("k", shared), 1.5, None), (("k", shared), 1.5, None)]
    b = [(("k", "val" + "ue"[:]), 1.5, None), (("k", "".join(["va", "lue"])), 1.5, None)]
    assert benchlib.digest(a) == benchlib.digest(b)
    assert benchlib.digest(a) != benchlib.digest(a[:1])


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def test_schedules_repeat_for_equal_seeds_and_differ_for_different_seeds():
    loop = lambda seed: benchlib.loop_schedule(seed, views=16, rounds=6, feedbacks=4)  # noqa: E731
    serve = lambda seed: benchlib.serve_schedule(  # noqa: E731
        seed, clients=2, ops=500, views=4, tenants=3, write_share=0.02, registrations=6
    )
    for build in (loop, serve):
        assert build(7) == build(7)
        assert build(7) != build(8)


def test_loop_schedule_fixes_the_feedback_plan_across_seeds():
    a = benchlib.loop_schedule(1, views=16, rounds=3, feedbacks=4)
    b = benchlib.loop_schedule(2, views=16, rounds=3, feedbacks=4)
    assert [step["feedback"] for step in a] == [step["feedback"] for step in b]
    assert all(sorted(step["page_order"]) == list(range(16)) for step in a)


def test_serve_schedule_places_every_registration_at_a_fixed_position():
    for seed in (1, 2):
        schedules = benchlib.serve_schedule(
            seed, clients=2, ops=700, views=4, tenants=3, write_share=0.02, registrations=6
        )
        positions = [
            (client, index)
            for client, ops in enumerate(schedules)
            for index, op in enumerate(ops)
            if op["op"] == "register"
        ]
        assert positions == [(0, 100), (0, 300), (0, 500), (1, 200), (1, 400), (1, 600)]


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------
def _result(**metrics):
    return {"workloads": {"loop_memory": {"metrics": {
        name: {"values": values} for name, values in metrics.items()
    }}}}


def test_compare_verdicts_same_better_worse_unresolved():
    a = _result(wall_s=[10.0, 10.1, 9.9], op_tail_ms=[20.0, 20.2, 19.9],
                peak_rss_mb=[100.0, 100.0, 100.1], reread_p50_ms=[10.0, 15.0, 20.0],
                failed_frac=[0.0, 0.0, 0.0])
    b = _result(wall_s=[10.5, 10.4, 10.6], op_tail_ms=[10.0, 10.1, 9.9],
                peak_rss_mb=[120.0, 120.0, 120.1], reread_p50_ms=[10.0, 15.0, 20.0],
                failed_frac=[0.0, 0.1, 0.1])
    rows, any_worse = benchlib.compare(a, b)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "wall_s": "same",  # +5% is inside the bound
        "op_tail_ms": "better",
        "peak_rss_mb": "worse",  # +20% against a 10% bound
        "reread_p50_ms": "unresolved",  # its own spread is wider than its bound
        "failed_frac": "worse",  # any increase
    }
    assert any_worse
    wall = next(row for row in rows if row["metric"] == "wall_s")
    assert wall["ratio"] == pytest.approx(1.05)
    assert not benchlib.compare(a, a)[1]


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(benchlib.WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in benchlib.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == benchlib.per_layer_metrics()
    assert 1 <= len(spec["per_layer"]) <= 128
