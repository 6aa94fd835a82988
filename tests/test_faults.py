"""Fault-tolerance tests: deadlines, retry/backoff, degraded mode, injection.

Everything here is deterministic: fault schedules are scripted
:class:`faults_harness.FaultPlan` rules, budgets run on injected clocks, and
retry policies use injected ``sleep``/``rng`` — no test depends on wall
time racing real work.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import time

import pytest

from repro.api import FeedbackRequest, QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.datastore import DataSource
from repro.exceptions import (
    DeadlineExceededError,
    InvalidRequestError,
    ServerClosedError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    StorageError,
    TransientStorageError,
)
from repro.faults import Budget, RetryPolicy, classify_storage_error, is_transient
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.service import QServer
from repro.storage import MemoryBackend, SqliteBackend

from faults_harness import FaultPlan, FaultRule, FaultyBackend, InjectedFaultError, wrap_session_store
from reference_steiner import is_connected_tree
from test_storage_backends import answer_fingerprint, fresh_context, interpro_view, make_backend

pytestmark = pytest.mark.fault_injection


def _gbco_service(gbco_dataset):
    """A bootstrap-aligned session over a *clone* of the GBCO catalog.

    Cloning matters: attaching the shared fixture's tables to a
    service-owned backend would leave them dangling when that backend
    closes at the end of the test.
    """
    service = QService(
        sources=[
            source_from_dict(source_to_dict(source))
            for source in gbco_dataset.catalog
        ]
    )
    service.bootstrap_alignments()
    return service


# ----------------------------------------------------------------------
# Budget (cooperative deadlines, injected clock)
# ----------------------------------------------------------------------
class _StepClock:
    """A manual clock: the test moves time, the budget only reads it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBudget:
    def test_check_raises_typed_error_after_expiry(self):
        clock = _StepClock()
        budget = Budget(deadline_s=1.0, clock=clock)
        budget.check("early")  # not expired: no raise
        clock.now = 2.0
        with pytest.raises(DeadlineExceededError) as excinfo:
            budget.check("solver")
        assert excinfo.value.deadline_ms == 1000.0
        assert excinfo.value.elapsed_ms == 2000.0
        assert excinfo.value.where == "solver"
        assert "solver" in str(excinfo.value)

    def test_tick_polls_the_clock_on_a_stride(self):
        clock = _StepClock()
        budget = Budget(deadline_s=0.5, clock=clock)
        clock.now = 1.0  # already expired, but ticks are lazy
        for _ in range(63):
            budget.tick("loop")  # strides 1..63 never read the clock
        with pytest.raises(DeadlineExceededError):
            budget.tick("loop")  # the 64th does

    def test_mark_truncated_records_partial_result(self):
        budget = Budget.from_deadline_ms(250.0, clock=_StepClock())
        assert budget.deadline_ms == 250.0
        assert not budget.truncated
        budget.mark_truncated("stream")
        assert budget.truncated
        assert budget.where == "stream"

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=-1.0)

    def test_zero_deadline_expires_immediately(self):
        budget = Budget(deadline_s=0.0, clock=_StepClock())
        assert budget.expired()


# ----------------------------------------------------------------------
# Classification + retry policy
# ----------------------------------------------------------------------
class TestClassification:
    def test_sqlite_locked_is_transient(self):
        exc = sqlite3.OperationalError("database is locked")
        classified = classify_storage_error(exc)
        assert isinstance(classified, TransientStorageError)
        assert classified.__cause__ is exc
        assert is_transient(exc)

    def test_wrapped_sqlite_lock_recognized_through_cause_chain(self):
        try:
            try:
                raise sqlite3.OperationalError("database table is locked: t")
            except sqlite3.OperationalError as inner:
                raise StorageError("backend write failed") from inner
        except StorageError as outer:
            classified = classify_storage_error(outer)
        assert isinstance(classified, TransientStorageError)

    def test_non_transient_errors_pass_through_unchanged(self):
        exc = sqlite3.OperationalError("no such table: frob")
        assert classify_storage_error(exc) is exc
        assert not is_transient(exc)
        runtime = RuntimeError("boom")
        assert classify_storage_error(runtime) is runtime
        assert not is_transient(runtime)

    def test_injected_faults_classify_by_kind(self):
        assert is_transient(TransientStorageError("injected"))
        assert not is_transient(InjectedFaultError("injected"))


class TestRetryPolicy:
    def test_delays_are_exponential_capped_and_jitter_free_at_zero(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.01, max_delay_s=0.05, jitter=0.0
        )
        assert list(policy.delays_s()) == [0.01, 0.02, 0.04, 0.05]

    def test_run_retries_transient_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, jitter=0.0, sleep=sleeps.append)
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise TransientStorageError("locked")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_run_raises_after_exhausting_attempts(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda _s: None)
        with pytest.raises(TransientStorageError):
            policy.run(lambda: (_ for _ in ()).throw(TransientStorageError("locked")))

    def test_run_does_not_retry_non_transient(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise InjectedFaultError("disk gone")

        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        with pytest.raises(InjectedFaultError):
            policy.run(broken)
        assert len(attempts) == 1


# ----------------------------------------------------------------------
# Fault plans + backend wrapper
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rule_fires_on_schedule_and_disarms(self):
        rule = FaultRule(op="scan", after=2, every=2, times=2)
        fired = []
        for call in range(1, 8):
            if rule.should_fire(call):
                rule.fired += 1
                fired.append(call)
        assert fired == [2, 4]  # disarmed after `times` firings

    def test_plan_counts_per_op_and_enable_resets(self):
        plan = FaultPlan(rules=[FaultRule(op="scan", error="transient", after=2)])
        plan.on_call("scan")  # call 1: passes
        with pytest.raises(TransientStorageError):
            plan.on_call("scan")  # call 2: fires
        assert plan.faults_fired() == 1
        plan.on_call("insert_rows")  # other ops have their own counters
        plan.enable()  # reset
        plan.on_call("scan")  # counts restart at 1
        assert plan.faults_fired() == 0

    def test_disabled_plan_is_a_no_op(self):
        plan = FaultPlan(rules=[FaultRule(op="scan")], active=False)
        plan.on_call("scan")
        assert plan.faults_fired() == 0


def test_faulty_backend_injects_on_nth_call_and_delegates_otherwise():
    plan = FaultPlan(rules=[FaultRule(op="scan", error="fatal", after=2)])
    backend = FaultyBackend(MemoryBackend(), plan)
    backend.create_relation("t", None)
    backend.insert_rows("t", [("a",), ("b",)])
    assert len(backend.scan("t")) == 2  # first scan passes
    with pytest.raises(InjectedFaultError):
        backend.scan("t")  # second fires
    plan.disable()
    assert len(backend.scan("t")) == 2
    assert backend.kind == "memory"
    assert backend.relation_keys() == ("t",)


# ----------------------------------------------------------------------
# Serving layer: helpers
# ----------------------------------------------------------------------
def _fast_policy():
    """A retry policy that never really sleeps (still counts retries)."""
    return RetryPolicy(max_attempts=3, jitter=0.0, sleep=lambda _s: None)


def _server(mini_catalog, plan=None, **kwargs):
    backend = FaultyBackend(MemoryBackend(), plan) if plan is not None else None
    service = QService(
        sources=list(mini_catalog),
        config=ServiceConfig(write_queue_limit=8),
        backend=backend,
    )
    server = QServer(service, retry_policy=_fast_policy(), **kwargs)
    return service, server


# ----------------------------------------------------------------------
# Writer lane: retry with backoff
# ----------------------------------------------------------------------
def test_writer_retries_transient_fault_and_applies_once(mini_catalog):
    plan = FaultPlan(
        rules=[FaultRule(op="scan", error="transient", times=1)], active=False
    )
    service, server = _server(mini_catalog, plan=plan)
    backend = service.catalog.backend
    key = backend.relation_keys()[0]
    applications = []

    def mutate():
        rows = backend.scan(key)  # first attempt: injected transient error
        applications.append(len(rows))
        return len(rows)

    with service, server:
        plan.enable()
        result = server.submit_mutation(mutate, kind="probe").result(timeout=30)
        plan.disable()
        assert result > 0
        assert applications == [result]  # applied exactly once
        stats = server.stats()
        assert stats.writes_retried == 1
        assert stats.writes_applied == 1
        assert stats.writes_failed == 0
        assert stats.health == "healthy"
        assert ("probe", None) in server.write_log


def test_writer_fails_op_but_stays_healthy_when_retries_exhaust(mini_catalog):
    plan = FaultPlan(
        rules=[FaultRule(op="scan", error="transient", times=None)], active=False
    )
    service, server = _server(mini_catalog, plan=plan)
    backend = service.catalog.backend
    key = backend.relation_keys()[0]
    with service, server:
        plan.enable()
        future = server.submit_mutation(lambda: backend.scan(key), kind="probe")
        with pytest.raises(TransientStorageError):
            future.result(timeout=30)
        plan.disable()
        stats = server.stats()
        assert stats.writes_failed == 1
        assert stats.writes_retried == 2  # max_attempts=3 -> two retries
        assert stats.health == "healthy"  # transient exhaustion != fatal
        # The lane still works.
        assert server.submit_mutation(lambda: "ok", kind="noop").result(30) == "ok"


# ----------------------------------------------------------------------
# Faults on the SQL read path
# ----------------------------------------------------------------------
def test_fault_wrapped_sqlite_session_answers_like_a_plain_one():
    plain_service, plain_view, _ = interpro_view(SqliteBackend(":memory:"))
    wrapped_service, wrapped_view, _ = interpro_view(
        FaultyBackend(SqliteBackend(":memory:"), FaultPlan(rules=[]))
    )
    with plain_service, wrapped_service:
        plain = answer_fingerprint(plain_view.answers())
        assert answer_fingerprint(wrapped_view.answers()) == plain and plain
        # The wrapper is transparent to the target choice too: every query
        # of the wrapped session ran as SQL, like the plain one's.
        pushed = plain_service.stats().pushdown_queries
        assert wrapped_service.stats().pushdown_queries == pushed > 0


@pytest.mark.parametrize("kind, op", [("memory", "scan"), ("sqlite", "execute_sql")])
def test_transient_fault_on_a_read_surfaces_typed_and_server_stays_healthy(kind, op):
    # A SQL-target read that hits a storage fault behaves like a Python-
    # target read that does: the typed error reaches the caller, nothing
    # partial is cached, the server stays healthy, and the read is exact
    # once the fault is gone and a write has published a fresh snapshot.
    plan = FaultPlan(rules=[FaultRule(op=op, error="transient", times=1)], active=False)
    service, view, info = interpro_view(FaultyBackend(make_backend(kind), plan))
    expected = answer_fingerprint(view.answers())
    fresh_context(service)  # the snapshot read must execute, not replay
    request = QueryRequest(view=info.view_id)
    with service, QServer(service, retry_policy=_fast_policy()) as server:
        plan.enable()
        with pytest.raises(TransientStorageError):
            server.query(request)
        assert plan.faults_fired() == 1
        assert server.health() == "healthy"
        server.submit_mutation(lambda: None, kind="noop").result(timeout=30)
        assert answer_fingerprint(server.query(request).answers) == expected
        assert expected


def test_writer_lane_retries_a_transient_fault_on_a_sql_read():
    plan = FaultPlan(
        rules=[FaultRule(op="execute_sql", error="transient", times=1)], active=False
    )
    service, view, info = interpro_view(FaultyBackend(SqliteBackend(":memory:"), plan))
    expected = answer_fingerprint(view.answers())

    def reread():
        fresh_context(service)
        return answer_fingerprint(view.refresh().answers)

    with service, QServer(service, retry_policy=_fast_policy()) as server:
        plan.enable()
        assert server.submit_mutation(reread, kind="reread").result(timeout=30) == expected
        assert plan.faults_fired() == 1
        stats = server.stats()
        assert (stats.writes_retried, stats.writes_applied, stats.writes_failed) == (1, 1, 0)
        assert stats.health == "healthy"


# ----------------------------------------------------------------------
# Degraded read-only mode + recovery
# ----------------------------------------------------------------------
def test_fatal_storage_fault_degrades_then_recovers(mini_catalog):
    plan = FaultPlan(
        rules=[FaultRule(op="scan", error="fatal", times=1)], active=False
    )
    service, server = _server(mini_catalog, plan=plan)
    backend = service.catalog.backend
    key = backend.relation_keys()[0]
    with service, server:
        baseline = server.query(QueryRequest(keywords=("kinase", "binding")))
        plan.enable()
        future = server.submit_mutation(lambda: backend.scan(key), kind="probe")
        with pytest.raises(InjectedFaultError):
            future.result(timeout=30)
        assert server.health() == "degraded"
        assert isinstance(server.last_fault(), InjectedFaultError)

        # Writes fail fast; reads keep serving the published snapshot.
        with pytest.raises(ServiceUnavailableError) as excinfo:
            server.submit_mutation(lambda: "nope", kind="late")
        assert excinfo.value.retryable
        still = server.query(QueryRequest(view=baseline.view_id))
        assert still.answers == baseline.answers
        assert still.snapshot_id == baseline.snapshot_id

        # Backend back to normal (rule disarmed after 1 firing): recover.
        assert server.recover() == "healthy"
        assert server.last_fault() is None
        assert server.submit_mutation(lambda: "ok", kind="noop").result(30) == "ok"
        assert server.stats().health == "healthy"


def test_a_degrading_write_resolves_after_the_degrade(mini_catalog):
    """Its done-callbacks see the server degraded and the writes behind it failed."""
    plan = FaultPlan(
        rules=[FaultRule(op="scan", error="fatal", times=1)], active=False
    )
    service, server = _server(mini_catalog, plan=plan)
    backend = service.catalog.backend
    key = backend.relation_keys()[0]
    with service, server:
        gate = threading.Event()
        release = threading.Event()
        blocked = server.submit_mutation(lambda: (gate.set(), release.wait(timeout=30)), kind="block")
        assert gate.wait(timeout=10)
        plan.enable()
        future = server.submit_mutation(lambda: backend.scan(key), kind="probe")
        behind = server.submit_mutation(lambda: "never", kind="behind")
        seen = []
        future.add_done_callback(lambda _f: seen.append((server.health(), behind.done())))
        release.set()
        blocked.result(timeout=30)
        with pytest.raises(InjectedFaultError):
            future.result(timeout=30)
        assert seen == [("degraded", True)]
        with pytest.raises(ServiceUnavailableError):
            behind.result(timeout=30)


def test_recover_fails_and_stays_degraded_while_fault_persists(mini_catalog):
    plan = FaultPlan(
        rules=[
            FaultRule(op="scan", error="fatal", times=1),
            FaultRule(op="relation_keys", error="fatal", times=1),
        ],
        active=False,
    )
    service, server = _server(mini_catalog, plan=plan)
    backend = service.catalog.backend
    key = backend.relation_keys()[0]
    with service, server:
        plan.enable()
        # relation_keys rule fires on the recovery probe, not this lookup:
        # counters reset at enable(), and the rule disarms after one firing.
        future = server.submit_mutation(lambda: backend.scan(key), kind="probe")
        with pytest.raises(InjectedFaultError):
            future.result(timeout=30)
        assert server.health() == "degraded"
        with pytest.raises(ServiceUnavailableError):
            server.recover()  # probe hits the relation_keys fault
        assert server.health() == "degraded"
        assert server.recover() == "healthy"  # fault cleared (times=1)


def test_degraded_mode_drains_queued_writes_with_typed_errors(mini_catalog):
    plan = FaultPlan(
        rules=[FaultRule(op="scan", error="fatal", times=1)], active=False
    )
    service, server = _server(mini_catalog, plan=plan)
    backend = service.catalog.backend
    key = backend.relation_keys()[0]
    with service, server:
        gate = threading.Event()
        release = threading.Event()

        def blocker():
            gate.set()
            release.wait(timeout=30)
            return backend.scan(key)  # fatal once released

        blocked = server.submit_mutation(blocker, kind="block")
        assert gate.wait(timeout=10)
        queued = [server.submit_mutation(lambda: "q", kind="queued") for _ in range(3)]
        plan.enable()
        release.set()
        with pytest.raises(InjectedFaultError):
            blocked.result(timeout=30)
        for future in queued:
            with pytest.raises(ServiceUnavailableError):
                future.result(timeout=30)
        assert server.health() == "degraded"
        assert server.stats().writes_failed == 4


# ----------------------------------------------------------------------
# Idempotency: a retry after a partially applied write never double-applies
# ----------------------------------------------------------------------
def test_autosave_fault_after_apply_does_not_double_apply(mini_catalog, tmp_path):
    path = tmp_path / "session.json"
    service = QService(sources=list(mini_catalog), autosave=path)
    service.save()  # create the persistence layer, then wrap its store
    plan = FaultPlan(
        rules=[FaultRule(op="append_entry", error="transient", times=1)],
        active=False,
    )
    wrap_session_store(service, plan)
    server = QServer(service, retry_policy=_fast_policy())
    with service, server:
        plan.enable()
        # The mutation lands in memory, then its autosave journal append
        # fails transiently; the writer retry must observe the recorded
        # idempotency key and skip re-execution.
        server.create_view(QueryRequest(keywords=("kinase",), name="only-once"))
        plan.disable()
        assert [r.name for r in service.views.records()].count("only-once") == 1
        stats = server.stats()
        assert stats.writes_retried == 1
        assert stats.writes_applied == 1
        assert stats.health == "healthy"
        assert len(service.applied_ops) == 1
        applied_key = next(iter(service.applied_ops))
        # A later successful save persists the key; reopening restores it.
        service.save()
    reopened = QService.open(path)
    with reopened:
        assert applied_key in reopened.applied_ops
        assert [r.name for r in reopened.views.records()].count("only-once") == 1


def test_a_retried_write_that_landed_returns_its_result(mini_catalog, tmp_path):
    """The retry re-runs only the save, and returns what the write returned."""
    path = tmp_path / "session.json"
    service = QService(sources=list(mini_catalog), autosave=path)
    service.save()
    plan = FaultPlan(
        rules=[FaultRule(op="append_entry", error="transient", times=1)],
        active=False,
    )
    wrap_session_store(service, plan)
    with service, QServer(service, retry_policy=_fast_policy()) as server:
        plan.enable()
        info = server.create_view(QueryRequest(keywords=("kinase",), name="only-once"))
        plan.disable()
        assert plan.faults_fired() == 1
        assert info is not None and info.name == "only-once"
        assert info.view_id == service.views.find_by_name("only-once").view_id
        assert server.stats().writes_retried == 1
        # The retry's save landed: nothing is left to write.
        assert service.save().action == "noop"


def test_a_retried_write_traces_one_backoff_under_its_apply(mini_catalog, tmp_path, monkeypatch):
    path = tmp_path / "session.json"
    service = QService(sources=list(mini_catalog), config=ServiceConfig(observability=True), autosave=path)
    service.save()
    plan = FaultPlan(
        rules=[FaultRule(op="append_entry", error="transient", times=1)],
        active=False,
    )
    wrap_session_store(service, plan)
    with service, QServer(service, retry_policy=_fast_policy()) as server:
        traces = []
        finish_write = server.obs.finish_write
        monkeypatch.setattr(
            server.obs, "finish_write", lambda trace, kind: (traces.append(trace), finish_write(trace, kind))
        )
        plan.enable()
        server.create_view(QueryRequest(keywords=("kinase",), name="retried"))
        plan.disable()
        assert plan.faults_fired() == 1
        (trace,) = traces
        (apply,) = [span for span in trace.root.children if span.name == "apply"]
        assert [span.name for span in apply.children].count("retry_backoff") == 1
        assert trace.annotations["retry_attempts"] == 1
        assert server.stats().writes_retried == 1


def test_a_landed_write_whose_save_fails_past_its_retries_is_reported_and_degrades(
    mini_catalog, tmp_path
):
    path = tmp_path / "session.json"
    service = QService(sources=list(mini_catalog), autosave=path)
    service.graph.add_association("go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9})
    service.save()
    plan = FaultPlan(
        rules=[FaultRule(op="append_entry", error="transient", times=5)],
        active=False,
    )
    wrap_session_store(service, plan)
    with service, QServer(service, retry_policy=_fast_policy()) as server:
        read = server.query(QueryRequest(keywords=("membrane", "IPR001")))
        assert read.answers
        weights_before = server.snapshot().weights_version
        plan.enable()
        response = server.feedback(
            FeedbackRequest(view=read.view_id, answer=read.answers[-1]), tag="late-save"
        )
        assert plan.faults_fired() == 3  # one per attempt of max_attempts=3
        # Landed: its result, its log entry and the snapshot it published.
        assert response.view_id == read.view_id and response.events
        assert server.write_log[-1] == ("feedback", "late-save")
        snapshot = server.snapshot()
        assert snapshot.snapshot_id == len(server.write_log) == 2
        assert snapshot.weights_version == service.graph.weights.version > weights_before
        stats = server.stats()
        assert (stats.writes_applied, stats.writes_failed, stats.writes_retried) == (2, 0, 2)
        # Not durable: read-only until a save succeeds.
        assert server.health() == "degraded"
        assert is_transient(server.last_fault())
        with pytest.raises(ServiceUnavailableError):
            server.submit_mutation(lambda: None, kind="noop")
        with pytest.raises(ServiceUnavailableError):
            server.recover()  # its save meets the fourth fault
        assert server.health() == "degraded"
        plan.disable()
        assert server.recover() == "healthy"
        assert service.save().action == "noop"


def test_retry_of_unapplied_attempt_reuses_edge_ids(mini_catalog):
    """A registration that failed before landing burns no edge ids: after two
    transient faults its third attempt numbers its edges like a clean twin's."""
    def incoming():
        return DataSource.build(
            "newdb",
            {"xref": ["entry_ac", "go_ref"]},
            data={"xref": [{"entry_ac": "IPR001", "go_ref": "GO:0001"}]},
        )

    def edge_ids(response):
        return [edge.edge_id for edge in response.alignment.edges_added]

    # Each attempt scans the one new relation once, to profile it — after
    # the graph numbered its membership edges — and the rollback scans it
    # once more to detach it: faults on scans 1 and 3 fail two attempts.
    plan = FaultPlan(
        rules=[FaultRule(op="scan", error="transient", every=2, times=2)], active=False
    )
    sources = [source_from_dict(source_to_dict(source)) for source in mini_catalog]
    service, server = _server(mini_catalog, plan=plan)
    with service, server:
        plan.enable()
        retried = server.register(RegisterSourceRequest(source=incoming(), strategy="exhaustive"))
        plan.disable()
        assert plan.faults_fired() == 2
        assert server.stats().writes_retried == 2
    with QService(sources=sources, config=ServiceConfig(write_queue_limit=8)) as twin:
        clean = twin.register_source(RegisterSourceRequest(source=incoming(), strategy="exhaustive"))
        assert edge_ids(clean)
        assert edge_ids(retried) == edge_ids(clean)
        assert [e.edge_id for e in service.graph.edges()] == [
            e.edge_id for e in twin.graph.edges()
        ]
        assert service.graph.next_edge_number == twin.graph.next_edge_number


# ----------------------------------------------------------------------
# Deadlines end to end
# ----------------------------------------------------------------------
def test_zero_deadline_read_raises_typed_error(gbco_dataset):
    keywords = gbco_dataset.query_log[2].keywords
    service = _gbco_service(gbco_dataset)
    with service, QServer(service) as server:
        warm = server.query(QueryRequest(keywords=keywords))
        assert len(warm.answers) > 0
        with pytest.raises(DeadlineExceededError):
            server.query(QueryRequest(view=warm.view_id, tenant="t0"), deadline_ms=0.0)
        # The failed deadline read polluted nothing: the same (view,
        # tenant) still materializes in full afterwards.
        full = server.query(QueryRequest(view=warm.view_id, tenant="t0"))
        assert not full.degraded
        assert len(full.answers) == len(warm.answers)


def test_generous_deadline_read_is_exact_and_not_degraded(gbco_dataset):
    keywords = gbco_dataset.query_log[2].keywords
    service = _gbco_service(gbco_dataset)
    with service, QServer(service) as server:
        free = server.query(QueryRequest(keywords=keywords))
        bounded = server.query(QueryRequest(view=free.view_id), deadline_ms=60_000.0)
        assert bounded.answers == free.answers
        assert not bounded.degraded
        stats = server.stats()
        assert stats.reads_degraded == 0


def test_stream_truncates_at_query_boundary_and_marks_budget(gbco_dataset):
    """Expiry mid-stream keeps already-yielded answers and flags truncation."""
    keywords = gbco_dataset.query_log[2].keywords
    service = _gbco_service(gbco_dataset)
    with service:
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        record = service.views.resolve(info.view_id)
        full = list(record.view.stream_answers())
        assert len(full) > 1

        clock = _StepClock()
        budget = Budget(deadline_s=100.0, clock=clock)
        stream = record.view.stream_answers(budget=budget)
        first = next(stream)
        clock.now = 1000.0  # expire between query executions
        rest = list(stream)
        assert budget.truncated
        assert budget.where == "stream"
        partial = [first] + rest
        assert 1 <= len(partial) < len(full)
        # Every yielded answer is a prefix-exact match of the full read.
        assert [a.values for a in partial] == [a.values for a in full[: len(partial)]]

        # Truncated state was never cached: a fresh full read is complete.
        assert len(list(record.view.stream_answers())) == len(full)


def test_expiry_before_the_first_answer_raises_instead_of_an_empty_read(gbco_dataset):
    """A budget that runs out after the solve and before the first query
    executes leaves nothing to return: the read raises the typed error, it
    does not come back as an empty "degraded" result."""
    keywords = gbco_dataset.query_log[2].keywords
    service = _gbco_service(gbco_dataset)
    with service, QServer(service) as server:
        info = server.create_view(QueryRequest(keywords=keywords))
        record = service.views.resolve(info.view_id)
        full = list(record.view.stream_answers())
        assert full

        clock = _StepClock()
        budget = Budget(deadline_s=100.0, clock=clock)
        stream = record.view.stream_answers(budget=budget)  # solves now
        clock.now = 1000.0  # expire before the first execution
        with pytest.raises(DeadlineExceededError):
            next(stream)
        assert budget.where == "stream"
        assert not budget.truncated

        # The same on a snapshot: typed error, and no pinned slot left behind.
        snapshot = server.snapshot()
        sv = snapshot.resolve(QueryRequest(view=info.view_id))
        reads = itertools.count()
        expiring = Budget(deadline_s=100.0, clock=lambda: 0.0 if next(reads) == 0 else 1000.0)
        with pytest.raises(DeadlineExceededError):
            snapshot.answers_for(sv, "t0", budget=expiring)
        assert snapshot.pinned_count() == 0
        assert len(snapshot.answers_for(sv, "t0")) == len(full)


def test_budgeted_reads_never_pin_partial_answers(gbco_dataset):
    keywords = gbco_dataset.query_log[2].keywords
    service = _gbco_service(gbco_dataset)
    with service, QServer(service) as server:
        # Create through the writer lane only — no read yet, so the
        # published snapshot has no pinned materialization for the view.
        info = server.create_view(QueryRequest(keywords=keywords))
        fresh = server.snapshot()
        sv = fresh.resolve(QueryRequest(view=info.view_id))
        assert sv is not None
        assert fresh.pinned_count() == 0

        clock = _StepClock()
        budget = Budget(deadline_s=100.0, clock=clock)
        answers = fresh.answers_for(sv, budget=budget)
        assert len(answers) > 0
        # The budgeted materialization left no pinned slot behind …
        assert fresh.pinned_count() == 0
        # … so the unbudgeted read materializes (and pins) the real thing.
        pinned = fresh.answers_for(sv)
        assert fresh.pinned_count() == 1
        assert pinned == answers


def test_solver_returns_partial_tree_list_on_expiry(gbco_dataset, monkeypatch):
    """The enumeration returns the trees emitted so far instead of raising mid-way."""
    from repro.steiner.network import SteinerNetwork
    from repro.steiner.topk import KBestSteiner

    keywords = gbco_dataset.query_log[2].keywords
    service = _gbco_service(gbco_dataset)
    with service:
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        view = service.views.resolve(info.view_id).view
        view.prepare()
        graph = view.query_graph.graph
        terminals = list(view.query_graph.keyword_nodes.values())
        full = KBestSteiner().solve(graph, terminals, k=5)
        assert len(full) >= 2

        # Searches poll by tick only, and no tick reads the clock: the budget
        # reads it at construction, at the pre-solve check, at whatever the
        # first base solve checks (counted here), and before every child.
        monkeypatch.setattr("repro.faults.budget.TICK_STRIDE", 10**9)
        with pytest.raises(DeadlineExceededError):
            KBestSteiner().solve(graph, terminals, k=5, budget=Budget(0.0, clock=_StepClock()))
        first_solve = {"reads": 0}

        def counting() -> float:
            first_solve["reads"] += 1
            return 0.0

        SteinerNetwork(graph).default_tree(terminals, budget=Budget(100.0, clock=counting))
        unexpired = 2 + first_solve["reads"] - 1  # less the counting budget's own construction

        # Expiry armed right after the first base solve: partial, truncated.
        reads = {"n": 0}

        def clock() -> float:
            reads["n"] += 1
            return 0.0 if reads["n"] <= unexpired else 1000.0

        budget = Budget(deadline_s=100.0, clock=clock)
        partial = KBestSteiner().solve(graph, terminals, k=5, budget=budget)
        assert budget.truncated
        assert 1 <= len(partial) < len(full)
        assert partial == full[: len(partial)]


def test_deadline_inside_a_three_terminal_grow_pass(gbco_dataset, monkeypatch):
    """The shared search still ticks per pop: a budget that expires inside a
    bounded Dreyfus–Wagner grow pass aborts that base solve on the spot —
    a typed error before the first tree, a truncated prefix after it."""
    from repro.steiner.network import SteinerNetwork
    from repro.steiner.topk import KBestSteiner

    service = _gbco_service(gbco_dataset)
    with service:
        info = service.create_view(
            QueryRequest(keywords=("insulin", "pathway", "expression")), materialize=False
        )
        view = service.views.resolve(info.view_id).view
        view.prepare()
        graph = view.query_graph.graph
        terminals = list(view.query_graph.terminals)
        assert len(terminals) == 3
        full = KBestSteiner().solve(graph, terminals, k=5)
        assert len(full) >= 2

        # Read the clock on every tick, and move it past the deadline when the
        # N-th grow pass starts: three terminals make four grow passes per
        # base solve, so pass 2 is inside the first solve, pass 6 after it.
        monkeypatch.setattr("repro.faults.budget.TICK_STRIDE", 1)
        clock = _StepClock()
        passes = {"seen": 0, "expire_at": 0}
        search = SteinerNetwork._search

        def expiring_search(self, labels, mask, heap, excluded, limit, targets, budget, where):
            if where == "dreyfus-wagner-grow":
                passes["seen"] += 1
                if passes["seen"] == passes["expire_at"]:
                    clock.now = 1000.0
            return search(self, labels, mask, heap, excluded, limit, targets, budget, where)

        monkeypatch.setattr(SteinerNetwork, "_search", expiring_search)

        passes.update(seen=0, expire_at=2)
        budget = Budget(deadline_s=100.0, clock=clock)
        with pytest.raises(DeadlineExceededError):
            KBestSteiner().solve(graph, terminals, k=5, budget=budget)
        assert budget.where == "dreyfus-wagner-grow"
        assert not budget.truncated

        clock.now = 0.0
        passes.update(seen=0, expire_at=6)
        budget = Budget(deadline_s=100.0, clock=clock)
        partial = KBestSteiner().solve(graph, terminals, k=5, budget=budget)
        assert budget.truncated
        assert 1 <= len(partial) < len(full)
        assert partial == full[: len(partial)]


def test_deadline_inside_a_bounded_branch_keeps_the_partial_list(gbco_dataset, monkeypatch):
    """Two terminals: every child partition is one search from its spur node,
    most of them under a bound the enumeration already holds.  Expiry inside
    such a search ends the branching, not the call: the trees found so far
    come back, marked truncated."""
    from repro.steiner.network import SteinerNetwork
    from repro.steiner.topk import KBestSteiner

    service = _gbco_service(gbco_dataset)
    with service:
        info = service.create_view(QueryRequest(keywords=("insulin", "pathway")), materialize=False)
        view = service.views.resolve(info.view_id).view
        view.prepare()
        graph, terminals = view.query_graph.graph, list(view.query_graph.terminals)
        full = KBestSteiner().solve(graph, terminals, k=8)
        assert len(full) == 8

        monkeypatch.setattr("repro.faults.budget.TICK_STRIDE", 1)
        clock = _StepClock()
        search = SteinerNetwork._search
        path_searches = {"n": 0}
        expired_in = []

        def expiring_search(self, labels, mask, heap, excluded, limit, targets, budget, where):
            # The third child search (the first path search is the first
            # solve's): time runs out as it starts.
            if where == "shortest-path":
                path_searches["n"] += 1
                if path_searches["n"] == 4:
                    clock.now = 1000.0
                    expired_in.append(labels.counters.base_solves)
            return search(self, labels, mask, heap, excluded, limit, targets, budget, where)

        monkeypatch.setattr(SteinerNetwork, "_search", expiring_search)
        budget = Budget(deadline_s=100.0, clock=clock)
        partial = KBestSteiner().solve(graph, terminals, k=8, budget=budget)
        assert len(expired_in) == 1 and budget.truncated
        # What was emitted before expiry, nothing drained after it: an
        # unsolved sibling partition may hold the next path.
        assert 1 <= len(partial) < len(full)
        assert partial == full[: len(partial)]
        assert all(is_connected_tree(tree, graph) for tree in partial)


# ----------------------------------------------------------------------
# Backpressure fields + fast-fail on both backends (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_overload_error_carries_pending_and_limit(mini_catalog, backend):
    config = ServiceConfig(write_queue_limit=3)
    with QService(sources=list(mini_catalog), backend=backend, config=config) as service:
        with QServer(service, read_workers=2) as server:
            gate = threading.Event()
            release = threading.Event()

            def blocker():
                gate.set()
                release.wait(timeout=30)

            blocked = server.submit_mutation(blocker, kind="block")
            assert gate.wait(timeout=10)
            fillers = [
                server.submit_mutation(lambda: None, kind="fill") for _ in range(3)
            ]
            with pytest.raises(ServiceOverloadedError) as excinfo:
                server.submit_mutation(lambda: None, kind="overflow")
            assert excinfo.value.limit == 3
            assert excinfo.value.pending == 3
            assert excinfo.value.retryable  # callers may back off and retry
            assert server.stats().writes_rejected == 1
            release.set()
            blocked.result(timeout=30)
            for filler in fillers:
                filler.result(timeout=30)
            assert server.stats().writes_failed == 0


# ----------------------------------------------------------------------
# Cancellation, bounded close, interrupt propagation (satellites)
# ----------------------------------------------------------------------
def test_queued_write_can_be_cancelled_before_writer_picks_it_up(mini_catalog):
    service, server = _server(mini_catalog)
    with service, server:
        gate = threading.Event()
        release = threading.Event()

        def blocker():
            gate.set()
            release.wait(timeout=30)
            return "done"

        blocked = server.submit_mutation(blocker, kind="block")
        assert gate.wait(timeout=10)
        doomed = server.submit_mutation(lambda: "never", kind="doomed")
        assert doomed.cancel()  # still queued: cancellable
        release.set()
        assert blocked.result(timeout=30) == "done"
        marker = server.submit_mutation(lambda: "after", kind="after")
        assert marker.result(timeout=30) == "after"
        assert doomed.cancelled()
        stats = server.stats()
        assert stats.writes_cancelled == 1
        assert ("doomed", None) not in server.write_log


def test_close_timeout_fails_still_queued_ops_with_typed_error(mini_catalog):
    service, server = _server(mini_catalog)
    release = threading.Event()
    gate = threading.Event()

    def wedge():
        gate.set()
        release.wait(timeout=60)
        return "unwedged"

    wedged = server.submit_mutation(wedge, kind="wedge")
    assert gate.wait(timeout=10)
    stuck = [server.submit_mutation(lambda: "stuck", kind="stuck") for _ in range(2)]
    assert server.close(timeout=0.2) is False  # writer still wedged
    for future in stuck:
        with pytest.raises(ServerClosedError):
            future.result(timeout=5)
    # Closed servers reject everything with the typed (still
    # InvalidRequestError-compatible) error.
    with pytest.raises(InvalidRequestError, match="closed"):
        server.submit_mutation(lambda: None)
    with pytest.raises(ServerClosedError):
        server.query(QueryRequest(keywords=("kinase",)))
    assert server.health() == "closed"
    release.set()  # unwedge: the in-flight op completes, writer exits
    assert wedged.result(timeout=30) == "unwedged"
    assert server.close() is True  # idempotent; writer has drained now
    service.close()


def test_close_timeout_bounds_the_wait_for_a_full_queue(mini_catalog):
    config = ServiceConfig(write_queue_limit=2)
    service = QService(sources=list(mini_catalog), config=config)
    server = QServer(service, retry_policy=_fast_policy())
    release = threading.Event()
    gate = threading.Event()
    wedged = server.submit_mutation(lambda: (gate.set(), release.wait(timeout=60)), kind="wedge")
    assert gate.wait(timeout=10)
    stuck = [server.submit_mutation(lambda: "stuck", kind="stuck") for _ in range(2)]
    start = time.monotonic()
    assert server.close(timeout=1.0) is False
    assert time.monotonic() - start < 1.5  # one timeout, not one per step
    for future in stuck:
        with pytest.raises(ServerClosedError):
            future.result(timeout=5)
    release.set()
    wedged.result(timeout=30)
    assert server.close() is True
    service.close()


def test_keyboard_interrupt_escapes_the_writer_lane(mini_catalog):
    service, server = _server(mini_catalog)
    interrupts = []
    previous_hook = threading.excepthook
    threading.excepthook = lambda args: interrupts.append(args.exc_type)
    try:
        future = server.submit_mutation(
            lambda: (_ for _ in ()).throw(KeyboardInterrupt()), kind="interrupt"
        )
        with pytest.raises(KeyboardInterrupt):
            future.result(timeout=30)
        server._writer.join(timeout=10)
        # The interrupt was re-raised (killing the writer thread), not
        # swallowed like an ordinary op failure.
        assert not server._writer.is_alive()
        assert interrupts == [KeyboardInterrupt]
        assert server.health() == "degraded"
        with pytest.raises(ServiceUnavailableError):
            server.submit_mutation(lambda: None)
    finally:
        threading.excepthook = previous_hook
        server.close(timeout=1.0)
        service.close()
