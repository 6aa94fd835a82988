"""Tests of the observability layer (:mod:`repro.obs`).

Covers the contracts the module promises:

* every ranked read is attributable: ``ReadResult.trace`` carries a
  well-nested span tree, a serving-path verdict and — on fallback — a
  concrete ineligibility reason, on both storage backends and for every
  observable condition that rules the SQL target out;
* concurrent reads produce *disjoint* well-nested span trees, exact under
  a deterministic injected clock;
* the off switch (``observability=False``) returns ``trace=None`` with
  byte-identical answers while counters keep moving;
* the explain/decision log, slow-query log, writer-lane histograms,
  metrics exposition, and ``SystemStats`` as a registry view.
"""

from __future__ import annotations

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.alignment import ExhaustiveAligner
from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.exceptions import InvalidRequestError
from repro.learning import AnnotationKind
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.metrics import NullRegistry
from repro.obs.tracing import NOOP_TRACE, active_trace, well_nested
from repro.service import QServer

def _clone(source):
    return source_from_dict(source_to_dict(source))


def _fingerprint(answers):
    return [
        (
            tuple(answer.values.items()),
            answer.cost,
            tuple(sorted(answer.provenance.base_tuples))
            if answer.provenance is not None
            else None,
        )
        for answer in answers
    ]


def _gbco_service(gbco_dataset, backend=None, **overrides):
    """A bootstrap-aligned session over the GBCO catalog."""
    config = ServiceConfig(top_k=5, top_y=1, write_queue_limit=16, **overrides)
    service = QService(
        sources=[_clone(source) for source in gbco_dataset.catalog],
        config=config,
        backend=backend,
    )
    service.bootstrap_alignments()
    return service


def _keywords(gbco_dataset):
    return tuple(list(gbco_dataset.query_log)[0].keywords)


class _CountingClock:
    """A deterministic, thread-safe clock: each call returns t+1."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t = 0.0

    def __call__(self) -> float:
        with self._lock:
            self._t += 1.0
            return self._t


# ----------------------------------------------------------------------
# Metrics registry (pure unit)
# ----------------------------------------------------------------------
def test_registry_counters_gauges_histograms_and_exposition():
    registry = MetricsRegistry()
    reads = registry.counter("reads_total", "total reads")
    assert reads.inc() == 1
    assert reads.inc(2) == 3
    registry.gauge("depth", "queue depth", fn=lambda: 7)
    hist = registry.histogram("latency_seconds", "read latency")
    hist.observe(0.001)
    hist.observe(1000.0)  # overflow bucket

    assert registry.value("reads_total") == 3
    assert registry.value("never_registered") == 0

    text = registry.prometheus_text()
    assert "# TYPE reads_total counter" in text
    assert "reads_total 3" in text
    assert "depth 7" in text
    assert "latency_seconds_count 2" in text

    as_dict = registry.as_dict()
    assert as_dict["reads_total"] == 3


def test_registry_labeled_counters_are_distinct():
    registry = MetricsRegistry()
    a = registry.counter("path_total", "by path", labels={"path": "posting-join"})
    b = registry.counter("path_total", "by path", labels={"path": "cached"})
    a.inc()
    a.inc()
    b.inc()
    assert registry.value("path_total", labels={"path": "posting-join"}) == 2
    assert registry.value("path_total", labels={"path": "cached"}) == 1
    assert 'path_total{path="posting-join"} 2' in registry.prometheus_text()


def test_null_registry_is_inert():
    registry = NullRegistry()
    assert registry.counter("x", "x").inc() == 0
    registry.histogram("h", "h").observe(1.0)
    assert registry.value("x") == 0
    assert registry.prometheus_text() == ""
    assert registry.as_dict() == {}


# ----------------------------------------------------------------------
# Tracer (pure unit)
# ----------------------------------------------------------------------
def test_trace_spans_are_exact_under_injected_clock():
    tracer = Tracer(enabled=True, clock=_CountingClock())
    trace = tracer.trace("read")
    with trace:
        with trace.span("solve"):
            with trace.span("expand"):
                pass
        with trace.span("execute"):
            pass
    root = trace.root
    assert well_nested(root)
    assert [child.name for child in root.children] == ["solve", "execute"]
    # Clock ticks: root=1, solve=2, expand=3,4, solve end=5, execute=6,7,
    # root end=8 — every duration is exact, no wall-clock involved.
    assert root.start == 1.0 and root.end == 8.0
    solve = root.children[0]
    assert solve.start == 2.0 and solve.end == 5.0
    assert solve.children[0].duration == 1.0


def test_disabled_tracer_returns_shared_noop():
    tracer = Tracer(enabled=False)
    trace = tracer.trace("read")
    assert trace is NOOP_TRACE
    assert not trace.enabled
    with trace:
        with trace.span("anything"):
            trace.annotate("path", "cached")
            trace.tally("queries_python")
    assert trace.annotations == {}
    assert active_trace() is NOOP_TRACE  # nothing leaked into the slot


def test_annotate_once_keeps_first_reason():
    tracer = Tracer(enabled=True, clock=_CountingClock())
    trace = tracer.trace("read")
    with trace:
        trace.annotate_once("fallback_reason", "the fundamental one")
        trace.annotate_once("fallback_reason", "a later, derived one")
    assert trace.annotations["fallback_reason"] == "the fundamental one"


# ----------------------------------------------------------------------
# Read-lane attribution (both backends + pushdown off)
# ----------------------------------------------------------------------
def test_memory_read_trace_explains_python_union(gbco_dataset):
    # Pinned to the memory backend regardless of the REPRO_BACKEND matrix
    # leg: this test is about the Python-join-engine explanation.
    with _gbco_service(gbco_dataset, backend="memory") as service:
        with QServer(service) as server:
            result = server.query(QueryRequest(keywords=_keywords(gbco_dataset)))
            assert result.answers
            trace = result.trace
            assert trace is not None
            assert trace.path == "python-union"
            assert "no SQL pushdown" in trace.fallback_reason
            assert well_nested(trace.root)
            stages = trace.stages()
            assert "snapshot_acquire" in stages
            assert "paginate" in stages
            assert trace.duration > 0.0
            assert "path=python-union" in trace.render()


def test_sqlite_read_trace_names_its_serving_path(gbco_dataset, tmp_path):
    backend = f"sqlite:{tmp_path / 'obs.db'}"
    with _gbco_service(gbco_dataset, backend=backend) as service:
        with QServer(service) as server:
            result = server.query(QueryRequest(keywords=_keywords(gbco_dataset)))
            assert result.answers
            trace = result.trace
            assert trace is not None
            # Every query ran as one SQL statement: nothing to explain.
            assert trace.path == "posting-join"
            assert trace.fallback_reason == ""
            assert "execute" in trace.stages()
            # The repeat read serves from the snapshot answer cache and
            # says so.
            again = server.query(QueryRequest(view=result.view_id))
            assert again.trace is not None
            assert again.trace.path == "cached"
            assert _fingerprint(again.answers) == _fingerprint(result.answers)


def test_budgeted_read_fallback_is_explained(gbco_dataset, tmp_path):
    backend = f"sqlite:{tmp_path / 'obs_off.db'}"
    with _gbco_service(gbco_dataset, backend=backend) as service:
        with QServer(service) as server:
            result = server.query(
                QueryRequest(keywords=_keywords(gbco_dataset)), deadline_ms=60_000
            )
            assert result.answers and not result.degraded
            trace = result.trace
            assert trace is not None
            # The executor's per-query decision: every query of the read
            # ran on the Python plan loop, which checks the deadline.
            assert trace.path == "python-union"
            assert trace.fallback_reason.startswith("deadline-budgeted read")
            assert service.stats().pushdown_queries == 0


def test_foreign_backend_relation_fallback_is_explained(gbco_dataset, tmp_path):
    backend = f"sqlite:{tmp_path / 'obs_foreign.db'}"
    with _gbco_service(gbco_dataset, backend=backend) as service:
        info = service.create_view(QueryRequest(keywords=_keywords(gbco_dataset)))
        request = QueryRequest(view=info.view_id)
        pushed = service.answers_page(request)
        generated = service.view(info.view_id).state.queries
        relation = generated[0].query.atoms[0].relation
        touching = len({g.key for g in generated if relation in g.query.relations()})
        # Detaching bumps the table's version: exactly the distinct queries
        # touching it miss the answer cache, and the executor explains each.
        service.catalog.relation(relation).detach()
        assert _fingerprint(service.answers_page(request)) == _fingerprint(pushed)
        decision = service.obs.decisions.last()
        assert decision.path == "python-union"
        assert decision.fallback_reason == (
            f"relation(s) not stored on the SQL backend: {relation}"
        )
        assert decision.tallies["queries_python"] == touching
        assert decision.tallies.get("queries_pushdown", 0) == 0


def test_tenant_overlay_read_is_explained_like_a_base_read(gbco_dataset):
    # A tenant view is priced under an overlay but executes its queries
    # through the same per-query decision as the base view.
    with _gbco_service(gbco_dataset) as service:
        info = service.create_view(
            QueryRequest(keywords=_keywords(gbco_dataset)), materialize=False
        )
        service.answers_page(QueryRequest(view=info.view_id))
        base_decision = service.obs.decisions.last()
        assert base_decision.path in ("python-union", "posting-join")
        base = list(service.stream_answers(QueryRequest(view=info.view_id)))
        first = base[0]
        other = next(
            a for a in base if a.provenance.query_id != first.provenance.query_id
        )
        service.feedback(
            FeedbackRequest(
                view=info.view_id,
                answer=first,
                kind=AnnotationKind.PREFERRED_OVER,
                other=other,
                tenant="alice",
            )
        )
        service.answers_page(QueryRequest(view=info.view_id, tenant="alice"))
        decision = service.obs.decisions.last()
        assert decision.tenant == "alice"
        assert (decision.path, decision.fallback_reason) == (
            base_decision.path,
            base_decision.fallback_reason,
        )


# ----------------------------------------------------------------------
# Concurrency: disjoint well-nested trees under a deterministic clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
def test_concurrent_reads_yield_disjoint_well_nested_traces(
    gbco_dataset, tmp_path, backend_kind
):
    backend = (
        "memory"
        if backend_kind == "memory"
        else f"sqlite:{tmp_path / 'obs_concurrent.db'}"
    )
    service = _gbco_service(gbco_dataset, backend=backend)
    service.obs = Observability(enabled=True, clock=_CountingClock())
    with service:
        with QServer(service, read_workers=4) as server:
            info = server.create_view(QueryRequest(keywords=_keywords(gbco_dataset)))
            request = QueryRequest(view=info.view_id)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(
                    pool.map(lambda _: server.query(request), range(16))
                )
            traces = [result.trace for result in results]
            assert all(trace is not None for trace in traces)
            seen_span_ids = set()
            for trace in traces:
                assert well_nested(trace.root)
                # Integer clock ticks: every span interval is exact and
                # strictly positive — no two clock reads ever tie.
                for span in trace.root.walk():
                    assert span.end > span.start
                    assert float(span.start).is_integer()
                span_ids = {id(span) for span in trace.root.walk()}
                # Disjoint trees: no span object shared between requests.
                assert not (span_ids & seen_span_ids)
                seen_span_ids |= span_ids
            fingerprints = {tuple(_fingerprint(r.answers)) for r in results}
            assert len(fingerprints) == 1  # all reads saw the same snapshot


# ----------------------------------------------------------------------
# The off switch
# ----------------------------------------------------------------------
def test_disabled_mode_returns_no_trace_and_identical_answers(gbco_dataset):
    with _gbco_service(gbco_dataset) as loud:
        with QServer(loud) as loud_server:
            traced = loud_server.query(
                QueryRequest(keywords=_keywords(gbco_dataset))
            )
    with _gbco_service(gbco_dataset, observability=False) as quiet:
        with QServer(quiet) as quiet_server:
            untraced = quiet_server.query(
                QueryRequest(keywords=_keywords(gbco_dataset))
            )
            assert untraced.trace is None
            # Counters still move with tracing off …
            assert quiet.obs.registry.value("q_reads_total") == 1
            # … but no decision, slow-query or span state accumulates.
            assert len(quiet.obs.decisions) == 0
    assert traced.trace is not None
    assert _fingerprint(untraced.answers) == _fingerprint(traced.answers)


def test_noop_bundle_serves_reads_without_any_bookkeeping(gbco_dataset):
    service = _gbco_service(gbco_dataset)
    service.obs = Observability.noop()
    with service:
        with QServer(service) as server:
            result = server.query(QueryRequest(keywords=_keywords(gbco_dataset)))
            assert result.answers
            assert result.trace is None
            assert service.obs.registry.value("q_reads_total") == 0
            assert server.metrics() == ""


# ----------------------------------------------------------------------
# Explain / slow-query logs and writer-lane accounting
# ----------------------------------------------------------------------
def test_decision_log_records_every_ranked_read(gbco_dataset):
    with _gbco_service(gbco_dataset) as service:
        with QServer(service) as server:
            result = server.query(QueryRequest(keywords=_keywords(gbco_dataset)))
            server.query(QueryRequest(view=result.view_id))
            records = service.obs.decisions.records()
            assert len(records) == 2
            assert [record.path for record in records] == [
                result.trace.path,
                "cached",
            ]
            assert records[0].view_id == result.view_id
            assert records[0].snapshot_id == result.snapshot_id
            rendered = service.obs.decisions.last().render()
            assert "path=cached" in rendered
            assert result.view_name in rendered


def test_solver_counters_reach_registry_trace_and_decision_log(gbco_dataset):
    from repro.engine.context import SteinerNetworkCache
    from repro.steiner import KBestSteiner

    with _gbco_service(gbco_dataset) as service:
        cache = service.engine_context.steiner_cache
        value = service.obs.registry.value
        with QServer(service) as server:
            # The writer lane creates and ranks the view; the read that follows
            # prices the snapshot's copy of it, an equal network: a recall,
            # and the decision record says so.
            result = server.query(QueryRequest(keywords=_keywords(gbco_dataset)))
            created = dict(vars(cache.solver))
            assert created["base_solves"] > 1 and created["recalls"] == 1
            decision = service.obs.decisions.last()
            assert decision.ranking == "recalled" and "ranking=recalled" in decision.render()
            assert decision.tallies["steiner_recalls"] == 1
            assert decision.tallies["steiner_base_solves"] == 0
            # Feedback moves the costs: the next read has to enumerate, and its
            # decision record carries its own solve's share of the totals.
            server.feedback(FeedbackRequest(view=result.view_id, answer=result.answers[-1]))
            learned = cache.solver.base_solves
            server.query(QueryRequest(view=result.view_id))
            solved = dict(vars(cache.solver))
            for name, total in solved.items():
                assert value(f"q_steiner_{name}_total") == total
            decision = service.obs.decisions.last()
            assert decision.ranking == "solved" and "ranking=solved" in decision.render()
            assert decision.tallies["steiner_recalls"] == 0
            assert 1 < decision.tallies["steiner_base_solves"] == solved["base_solves"] - learned
            # A cached re-read solves nothing and says nothing.
            server.query(QueryRequest(view=result.view_id))
            assert vars(cache.solver) == solved
            decision = service.obs.decisions.last()
            assert decision.ranking == "current" and "steiner_base_solves" not in decision.tallies

        # One solve under a trace: the annotations are exactly what it added
        # to the totals.  max_expansions=3 makes the cap hit visible, not
        # silent.  The view ranked these terminals, so the enumeration starts
        # warm; the cap stops it: one first solve, then three children
        # (searched or screened), the ones a cold run tries.
        view = service.views.resolve(result.view_id).view
        graph, terminals = view.query_graph.graph, list(view.query_graph.terminals)
        with Tracer().trace("solve") as trace:
            trees = KBestSteiner(max_expansions=3, network_cache=cache).solve(graph, terminals, 5)
        added = {
            f"steiner_{name}": total - solved[name] for name, total in vars(cache.solver).items()
        }
        assert trace.annotations == added
        assert added["steiner_recalls"] == 0  # its own cap: nobody ranked that before
        assert added["steiner_warm_starts"] == 1
        assert added["steiner_base_solves"] + added["steiner_screened_children"] == 1 + 3
        assert added["steiner_expansion_cap_hits"] == 1
        assert value("q_steiner_expansion_cap_hits_total") == solved["expansion_cap_hits"] + 1
        # Cold, the same list, and the books balance: every child put a tree
        # on the heap or failed (searched or screened).
        alone = SteinerNetworkCache()
        assert KBestSteiner(max_expansions=3, network_cache=alone).solve(graph, terminals, 5) == trees
        did = alone.solver
        assert (did.warm_starts, did.base_solves + did.screened_children, did.expansion_cap_hits) == (0, 4, 1)
        assert len(trees) <= 4 - (did.disconnected_branches + did.bounded_out_branches)


def test_slow_query_log_captures_above_threshold(gbco_dataset):
    # A zero threshold forces every read into the slow log.
    with _gbco_service(gbco_dataset, slow_query_ms=0.0) as service:
        with QServer(service) as server:
            server.query(QueryRequest(keywords=_keywords(gbco_dataset)))
            assert len(service.obs.slow_log) >= 1
            assert service.obs.registry.value("q_slow_queries_total") >= 1
    # The default threshold keeps a fast read out of it.
    with _gbco_service(gbco_dataset) as service:
        with QServer(service) as server:
            server.query(QueryRequest(view=None, keywords=_keywords(gbco_dataset)))
            assert service.obs.registry.value("q_slow_queries_total") == 0


def test_registration_lane_spans_and_tallies(gbco_dataset):
    sources = [_clone(source) for source in gbco_dataset.catalog]
    held_out = sources.pop()
    tracer = Tracer(clock=_CountingClock())
    with QService(sources=sources, config=ServiceConfig(top_y=1)) as service:
        service.bootstrap_alignments()
        with tracer.trace("write") as trace:
            response = service.register_source(
                RegisterSourceRequest(source=held_out, strategy="exhaustive")
            )
        # Three spans per registration, whatever the number of edges.
        assert [span.name for span in trace.root.walk()][1:4] == ["candidates", "score", "install"]
        assert all(not span.children for span in trace.root.children[:3])
        assert well_nested(trace.root)
        alignment = response.alignment
        assert response.edges_added > 0
        assert trace.annotations == {
            "candidates": len(alignment.candidate_relations),
            "pairs_scored": alignment.pairs_scored,
            "edges_created": response.edges_added,
            "edges_merged": 0,
        }
        # Aligning the same source again proposes the same pairs: all merge.
        aligner = ExhaustiveAligner(service.matchers[0], top_y=1, profile_index=service.profile_index)
        with tracer.trace("write") as again:
            aligner.align(service.graph, service.catalog, held_out)
        assert again.annotations["edges_created"] == 0
        assert again.annotations["edges_merged"] == response.edges_added


def test_writer_lane_histograms_and_gauges(gbco_dataset):
    with _gbco_service(gbco_dataset) as service:
        with QServer(service) as server:
            server.create_view(QueryRequest(keywords=_keywords(gbco_dataset)))
            text = server.metrics()
            assert "q_write_apply_seconds_count 1" in text
            assert "q_write_queue_wait_seconds_count 1" in text
            assert "q_writes_applied_total 1" in text
            assert "q_snapshot_id" in text
            assert "q_write_queue_depth 0" in text
            assert server.metrics("json")["q_writes_applied_total"] == 1


def test_a_closed_server_is_freed_and_a_second_takes_the_gauges_over(gbco_dataset):
    # The gauges live on the session's registry, which outlives the server:
    # they must not keep the server, or its last snapshot, alive.
    with _gbco_service(gbco_dataset) as service:
        server = QServer(service)
        server.create_view(QueryRequest(keywords=_keywords(gbco_dataset)))
        assert service.metrics("json")["q_writes_applied_total"] == 1
        server.close()
        refs = [weakref.ref(server), weakref.ref(server._snapshot)]
        del server
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        scraped = service.metrics("json")
        assert scraped["q_writes_applied_total"] == 0 and scraped["q_snapshot_id"] == 0
        with QServer(service, read_workers=2) as second:
            second.create_view(QueryRequest(keywords=_keywords(gbco_dataset)[:1]))
            scraped = service.metrics("json")
            assert scraped["q_writes_applied_total"] == 1
            assert scraped["q_read_pool_workers"] == 2


# ----------------------------------------------------------------------
# Exposition & SystemStats as a registry view
# ----------------------------------------------------------------------
def test_service_metrics_exposition_formats(gbco_dataset):
    with _gbco_service(gbco_dataset) as service:
        service.answers_page(
            QueryRequest(keywords=_keywords(gbco_dataset))
        )
        text = service.metrics()
        assert "# TYPE q_reads_total counter" in text
        assert "q_reads_total 1" in text
        assert "q_sources" in text
        as_dict = service.metrics("json")
        assert as_dict["q_reads_total"] == 1
        with pytest.raises(InvalidRequestError):
            service.metrics("xml")


def test_system_stats_reads_through_the_registry(gbco_dataset):
    with _gbco_service(gbco_dataset) as service:
        service.answers_page(QueryRequest(keywords=_keywords(gbco_dataset)))
        stats = service.stats()
        value = service.obs.registry.value
        assert stats.sources == int(value("q_sources"))
        assert stats.views == int(value("q_views")) == 1
        assert stats.steiner_cache_builds == int(value("q_steiner_cache_builds_total"))
        assert stats.steiner_cache_builds >= 1
        assert stats.pushdown_queries == int(value("q_pushdown_queries_total"))
        # The gauge reads live structures: creating another view moves both.
        service.create_view(QueryRequest(keywords=_keywords(gbco_dataset)[:1]))
        assert service.stats().views == int(value("q_views")) == 2


# ----------------------------------------------------------------------
# The collector's counter
# ----------------------------------------------------------------------
@pytest.fixture()
def only_requested_passes():
    """Automatic collection off, so the passes a test counts are the ones it asked for."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _gc_passes(service):
    scraped = service.metrics("json")
    return [scraped[f'q_gc_passes_total{{generation="{generation}"}}'] for generation in range(3)]


def test_collector_passes_are_counted_per_generation_by_every_live_session(mini_catalog, only_requested_passes):
    hooks_before = list(gc.callbacks)
    first = QService(sources=[_clone(source) for source in mini_catalog])
    second = QService(sources=[_clone(source) for source in mini_catalog])
    assert len(gc.callbacks) == len(hooks_before) + 2
    before = [_gc_passes(first), _gc_passes(second)]
    for generation in (0, 0, 1, 2, 2, 2):
        gc.collect(generation)
    for service, was in zip((first, second), before):
        now = _gc_passes(service)
        assert [n - w for n, w in zip(now, was)] == [2, 1, 3]
        assert service.metrics("json")["q_gc_seconds_total"] > 0.0
        assert 'q_gc_passes_total{generation="2"}' in service.metrics()
    first.close()
    first.close()  # idempotent
    assert len(gc.callbacks) == len(hooks_before) + 1
    frozen = _gc_passes(first)
    gc.collect()
    assert _gc_passes(first) == frozen and _gc_passes(second)[2] == before[1][2] + 4
    second.close()
    assert gc.callbacks == hooks_before


def test_a_session_dropped_without_close_leaves_no_hook(mini_catalog):
    hooks_before = list(gc.callbacks)
    service = QService(sources=[_clone(source) for source in mini_catalog])
    assert len(gc.callbacks) == len(hooks_before) + 1
    del service  # no cycle holds it: the last reference frees it, and the hook with it
    assert gc.callbacks == hooks_before
    assert Observability.noop().gc_meter is None and gc.callbacks == hooks_before


def test_a_pass_lands_in_the_span_open_on_its_thread_of_its_own_session(only_requested_passes):
    mine, other = Observability(), Observability()
    with mine.tracer.trace("outer") as trace:
        with trace.span("inner") as inner:
            gc.collect()
        gc.collect()
    assert inner.gc_s > 0.0 and trace.root.gc_s > 0.0
    assert mine.gc_meter.seconds == pytest.approx(inner.gc_s + trace.root.gc_s)
    assert other.gc_meter.passes[2] == 2  # counted there too, added to no span twice
    clock = _CountingClock()
    with Observability(clock=clock).tracer.trace("ticks"):
        ticks = clock._t
        gc.collect()
        assert clock._t == ticks  # the hook reads the wall clock, not the injected one
    mine.close()
    other.close()
