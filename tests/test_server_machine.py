"""The serving lane against its one oracle: a model-based test and two fixed scenarios.

:class:`~repro.service.QServer` runs reads, feedback and registrations side
by side (paper §3: a user keeps querying and annotating while new sources
are aligned in).  Every read it serves must equal the serial replay of the
writes its snapshot names (:func:`server_oracle.replay`).

* :class:`ServerMachine` is a hypothesis state machine over one server:
  base and tenant reads, blocking on the caller's thread or pooled through
  ``submit_query``, base and tenant feedback,
  registering and removing held-out GBCO sources, transient faults on the
  autosave journal or on relation creation, a fatal fault and
  ``recover()``, deadline reads on an injected clock, draining (which
  also finishes reads of a snapshot retired by the writes since), and
  save → close → open.  Its model predicts health, which writes fail,
  what is refused and what a reopened session holds; at teardown every
  observed read is replayed.
* :func:`test_mixed_traffic_scenario` and :func:`test_chaos_scenario` are
  fixed schedules (seeds 7 and 11, four worker threads each) whose counts
  are deterministic and asserted exactly.
* :func:`test_deadline_probe_on_the_grown_graph` times a budgeted read of a
  hard top-k solve; it is the one timed test here, so it is not marked
  ``fault_injection``.
"""

from __future__ import annotations

import itertools
import random
import tempfile
import threading
import time
from concurrent.futures import wait as wait_futures
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from faults_harness import FaultPlan, FaultRule, FaultyBackend, InjectedFaultError, wrap_session_store
from repro.api import QService, QueryRequest, ServiceConfig
from repro.datasets import grow_catalog_and_graph
from repro.exceptions import (
    DeadlineExceededError,
    ServiceUnavailableError,
    StorageError,
    TransientStorageError,
)
from repro.faults import Budget, RetryPolicy
from repro.graph.features import edge_feature
from repro.service import QServer
from repro.storage import MemoryBackend
from server_oracle import (
    SYNTHETIC,
    TENANTS,
    VIEW_ENTRIES,
    apply_feedback,
    clone_source,
    feedback_tag,
    fingerprint,
    gbco_workload,
    replay,
)


# ----------------------------------------------------------------------
# Fixed scenarios: one schedule generator, one traffic driver
# ----------------------------------------------------------------------
def build_schedules(seed: int, workers: int, ops_per_worker: int) -> List[List[Dict]]:
    """Per-worker op lists: about 80 % reads, 15 % feedback, 5 % registrations."""
    schedules = []
    for worker in range(workers):
        rng = random.Random(seed * 1000 + worker)
        ops = []
        for _ in range(ops_per_worker):
            roll = rng.random()
            view = rng.randrange(len(VIEW_ENTRIES))
            tenant = TENANTS[rng.randrange(len(TENANTS))]
            if roll < 0.80:
                ops.append({"op": "query", "view": view, "tenant": tenant})
            elif roll < 0.95:
                ops.append(
                    {
                        "op": "feedback",
                        "view": view,
                        "tenant": tenant,
                        "index": rng.randrange(10),
                        "prefer": rng.random() < 0.5,
                        "replay": rng.randrange(1, 3),
                    }
                )
            else:
                ops.append({"op": "register"})
        schedules.append(ops)
    return schedules


def _feedback_tag(op: Dict, view_ids: List[str]) -> str:
    return feedback_tag(view_ids[op["view"]], op["index"], op["tenant"], op["prefer"], op["replay"])


def _observe(result) -> tuple:
    return (result.snapshot_id, result.view_id, result.tenant, fingerprint(result.answers))


def run_serial(workload, schedules) -> Dict[str, int]:
    """The schedules merged round-robin and run on a plain session, one op at a time."""
    service, view_ids = workload.session()
    pending = list(workload.held_out)
    counts = {"queries": 0, "feedback": 0, "registrations": 0, "answers_total": 0}
    with service:
        for op in itertools.chain.from_iterable(itertools.zip_longest(*schedules)):
            if op is None:
                continue
            if op["op"] == "register" and not pending:
                op = {"op": "query", "view": 0, "tenant": None}
            if op["op"] == "query":
                request = QueryRequest(view=view_ids[op["view"]], tenant=op["tenant"])
                counts["queries"] += 1
                counts["answers_total"] += len(list(service.stream_answers(request)))
            elif op["op"] == "feedback":
                apply_feedback(service, _feedback_tag(op, view_ids))
                counts["feedback"] += 1
            else:
                service.register_source(workload.register_request(pending.pop(0)))
                counts["registrations"] += 1
    return counts


def run_traffic(server, service, workload, view_ids, schedules, wait_for_writes: bool):
    """One thread per schedule against ``server``; returns (observations, write futures, counts).

    Reads block on their result.  Writes go through the writer lane and are
    waited for one by one when ``wait_for_writes``, else collected.  A
    registration past the last held-out source becomes a read of view 0.
    """
    observations, futures, errors = [], [], []
    counts = {"queries": 0, "feedback": 0, "registrations": 0}
    pending = list(workload.held_out)
    lock = threading.Lock()

    def submit(future, kind):
        with lock:
            counts[kind] += 1
            futures.append(future)
        if wait_for_writes:
            future.result()

    def worker(ops):
        for op in ops:
            if op["op"] == "register":
                with lock:
                    name = pending.pop(0) if pending else None
                if name is not None:
                    submit(server.submit_register(workload.register_request(name)), "registrations")
                    continue
                op = {"op": "query", "view": 0, "tenant": None}
            if op["op"] == "query":
                result = server.query(QueryRequest(view=view_ids[op["view"]], tenant=op["tenant"]))
                with lock:
                    counts["queries"] += 1
                    observations.append(_observe(result))
            else:
                tag = _feedback_tag(op, view_ids)
                future = server.submit_mutation(lambda t=tag: apply_feedback(service, t), kind="feedback", tag=tag)
                submit(future, "feedback")

    def guarded(ops):
        try:
            worker(ops)
        except BaseException as exc:  # re-raised after the join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(ops,)) for ops in schedules]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return observations, futures, counts


def read_every_view(server, view_ids, observations) -> int:
    """Read each (view, tenant) once more, so the oracle covers the end state."""
    for view_id in view_ids:
        for tenant in TENANTS:
            observations.append(_observe(server.query(QueryRequest(view=view_id, tenant=tenant))))
    return len(view_ids) * len(TENANTS)


def test_mixed_traffic_scenario():
    """Four workers, seed 7: reads beside base / tenant feedback and held-out registrations."""
    workload = gbco_workload()
    schedules = build_schedules(seed=7, workers=4, ops_per_worker=16)
    assert run_serial(workload, schedules) == {
        "queries": 48,
        "feedback": 11,
        "registrations": 5,
        "answers_total": 909,
    }

    service, view_ids = workload.session()
    with service, QServer(service, read_workers=4) as server:
        observations, _, _ = run_traffic(server, service, workload, view_ids, schedules, wait_for_writes=True)
        queries = len(observations)
        read_every_view(server, view_ids, observations)
        stats = server.stats()
        write_log = list(server.write_log)
    assert stats.snapshot_id == len(write_log)
    assert {
        "queries": queries,
        "writes_applied": stats.writes_applied,
        "writes_failed": stats.writes_failed,
        "writes_rejected": stats.writes_rejected,
        "snapshots_published": stats.snapshots_published,
        "observations": len(observations),
    } == {
        "queries": 48,
        "writes_applied": 16,
        "writes_failed": 0,
        "writes_rejected": 0,
        "snapshots_published": 17,
        "observations": 54,
    }
    assert replay(workload, write_log, observations) == 54


@pytest.mark.fault_injection
def test_chaos_scenario(tmp_path):
    """Four workers, seed 11, over a fault-injecting backend and session store.

    A registration retried past two transient faults applies once; the
    mixed traffic runs while every third journal append fails transiently
    and scans absorb latency; a fatal fault degrades the server, whose
    reads keep serving and whose writes are refused until ``recover()``;
    the session then saves and reopens with nothing lost or added.
    """
    workload = gbco_workload()
    schedules = build_schedules(seed=11, workers=4, ops_per_worker=12)
    plan = FaultPlan(active=False)
    sidecar = tmp_path / "chaos_session.json"
    service, view_ids = workload.session(backend=FaultyBackend(MemoryBackend(), plan), autosave=str(sidecar))
    service.save()
    wrap_session_store(service, plan)
    fired = {"transient": 0, "fatal": 0}

    def disarm():
        plan.disable()
        for fault in plan.rules:
            if fault.error in fired:
                fired[fault.error] += fault.fired

    def arm(*faults):
        plan.rules[:] = faults
        plan.enable()

    policy = RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.004, jitter=0.0)
    server = QServer(service, read_workers=4, retry_policy=policy)
    try:
        health = [server.health()]
        # The first two attempts die in create_relation; the third lands.
        arm(FaultRule(op="create_relation", error="transient", times=2))
        server.register(workload.register_request(SYNTHETIC + "retry"))
        disarm()
        assert service.catalog.has_source(SYNTHETIC + "retry")

        arm(
            FaultRule(op="append_entry", error="transient", after=2, every=3, times=None),
            FaultRule(op="scan", error=None, after=5, every=7, times=None, latency_s=0.002),
        )
        observations, futures, counts = run_traffic(
            server, service, workload, view_ids, schedules, wait_for_writes=False
        )
        done, not_done = wait_futures(futures, timeout=120)
        assert not not_done
        assert [f.exception() for f in futures] == [None] * len(futures)
        disarm()
        health.append(server.health())

        arm(FaultRule(op="create_relation", error="fatal", times=1))
        with pytest.raises(StorageError):
            server.register(workload.register_request(SYNTHETIC + "fatal"))
        health.append(server.health())
        # Degraded: reads serve the last snapshot, writes are refused.
        observations.append(_observe(server.query(QueryRequest(view=view_ids[0]))))
        with pytest.raises(ServiceUnavailableError):
            server.submit_mutation(lambda: None, kind="noop", tag="noop")
        disarm()
        assert server.recover() == "healthy"
        health.append(server.health())
        server.register(workload.register_request(SYNTHETIC + "recover"))
        queries = counts["queries"] + 1 + read_every_view(server, view_ids, observations)
        stats = server.stats()
        write_log = list(server.write_log)
    finally:
        server.close()
    assert stats.snapshot_id == len(write_log)
    assert health == ["healthy", "healthy", "degraded", "healthy"]
    assert {
        "queries": queries,
        "feedback": counts["feedback"],
        "registrations": counts["registrations"] + 2,
        "writes_applied": stats.writes_applied,
        "writes_failed": stats.writes_failed,
        "writes_rejected": stats.writes_rejected,
        "writes_retried": stats.writes_retried,
        "writes_cancelled": stats.writes_cancelled,
        "snapshots_published": stats.snapshots_published,
        "observations": len(observations),
        "futures_resolved": len(done),
        "futures_unresolved": len(not_done),
        "transient_faults_injected": fired["transient"],
        "fatal_faults_injected": fired["fatal"],
    } == {
        "queries": 44,
        "feedback": 8,
        "registrations": 5,
        "writes_applied": 13,
        "writes_failed": 1,
        "writes_rejected": 1,
        # A retry of a write that landed re-runs its save, whose journal
        # append meets one more of the every-third faults.
        "writes_retried": 7,
        "writes_cancelled": 0,
        "snapshots_published": 14,
        "observations": 44,
        "futures_resolved": 11,
        "futures_unresolved": 0,
        "transient_faults_injected": 7,
        "fatal_faults_injected": 1,
    }

    # Durability: the saved session reopens fault-free with every ranking,
    # every acknowledged registration and not the failed one.
    acknowledged = sorted(tag for kind, tag in write_log if kind == "register")
    service.save()
    with service, QService.open(str(sidecar)) as reopened:
        corrupted = [
            (view_id, tenant)
            for view_id in view_ids
            for tenant in TENANTS
            if fingerprint(service.stream_answers(QueryRequest(view=view_id, tenant=tenant)))
            != fingerprint(reopened.stream_answers(QueryRequest(view=view_id, tenant=tenant)))
        ]
        durability = (
            len(view_ids) * len(TENANTS),
            len(corrupted),
            len(acknowledged),
            sum(reopened.catalog.has_source(name) for name in acknowledged),
            not reopened.catalog.has_source(SYNTHETIC + "fatal"),
        )
    assert durability == (6, 0, 5, 5, True)
    assert replay(workload, write_log, observations) == 44


def test_deadline_probe_on_the_grown_graph():
    """A 100 ms read of a top-80 solve on the GBCO graph grown to 100 sources
    resolves typed within twice its deadline, and poisons no later read.

    One edge cost the ranking reads is moved first, so the budgeted read
    faces a real enumeration rather than a recalled ranking.
    """
    gbco = gbco_workload().gbco
    deadline_ms = 100.0
    service = QService(
        sources=[clone_source(source) for source in gbco.catalog],
        config=ServiceConfig(top_k=80, top_y=1, answer_limit=1000),
    )
    with service:
        service.bootstrap_alignments()
        grow_catalog_and_graph(service.catalog, service.graph, target_source_count=100, seed=100)
        keywords = tuple(k for entry in VIEW_ENTRIES for k in gbco.query_log[entry].keywords)
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        service.prepare_views(structural_only=True)
        view = service.view(info.view_id)
        edge = next(e for e in view.trees()[0].edges(view.query_graph.graph) if e.is_learnable())
        feature, weights = edge_feature(edge.edge_id), service.graph.weights
        weights.set(feature, weights.get(feature) + 1e-6)

        with QServer(service, read_workers=2) as server:
            start = time.perf_counter()
            try:
                result = server.query(QueryRequest(view=info.view_id), deadline_ms=deadline_ms)
            except DeadlineExceededError:
                result = None
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            full = server.query(QueryRequest(view=info.view_id))
    assert result is None or (result.degraded and result.answers), "the budget never bit"
    assert elapsed_ms <= 2 * deadline_ms
    assert not full.degraded
    # The unbudgeted solve reaches max_expansions: its answers come from the
    # exact trees emitted before the cap, a prefix of the uncapped ranking.
    assert len(full.answers) == 48


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
#: Attempts the machine's retry policy gives each write.
ATTEMPTS = 3


def _no_sleep_policy() -> RetryPolicy:
    """``ATTEMPTS`` attempts, no real sleeping: retries still count."""
    return RetryPolicy(max_attempts=ATTEMPTS, jitter=0.0, sleep=lambda _s: None)


def _expiring_clock(reads_before_expiry: int):
    """A clock that reads 0 for its first ``reads_before_expiry`` reads, then far past any deadline."""
    reads = itertools.count(1)
    return lambda: 0.0 if next(reads) <= reads_before_expiry else 1000.0


VIEWS = st.integers(0, len(VIEW_ENTRIES) - 1)
PICK = st.sampled_from(TENANTS)
ENTRY = st.sampled_from(["query", "submit_query"])


class ServerMachine(RuleBasedStateMachine):
    """One ``QServer`` over a fault-injecting GBCO session, against a model and the oracle.

    The model knows which held-out sources are acknowledged, which writes
    must fail, which are refused (any write while degraded) and the
    server's health.  A registration whose every attempt meets a transient
    ``create_relation`` fault fails; nothing else creates relations, so a
    registration armed with faults while no other one is in flight is the
    one that meets them.  A journal fault may hit any write: it is retried,
    and its idempotency key keeps the landed mutation from applying twice.
    A journal fault armed after a drain with as many firings as a write has
    attempts meets every save of the next write: that write lands, returns
    its result and is logged, the server degrades (so the writes behind it
    are refused), and ``recover()`` saves the session before it lifts the
    mode.

    The first write after a drain retires the snapshot it was submitted
    against.  A read that grabbed that snapshot may still be answering
    after the write and the ones behind it land, so every drain finishes
    such a reader: it reads every view and tenant on the retired snapshot,
    and each answer must still equal the replay of the writes that snapshot
    names.  The exception is a removal: a snapshot reads the live catalog,
    so no read is in flight while a removal lands.  Snapshot ids restart at
    0 on a reopened session's server; an observation is recorded at its
    position in the whole write log.
    """

    def __init__(self):
        super().__init__()
        self.workload = gbco_workload()
        self.scratch = tempfile.TemporaryDirectory()
        self.sidecar = str(Path(self.scratch.name) / "session.json")
        self.plan = FaultPlan()
        self.service, self.view_ids = self.workload.session(
            backend=FaultyBackend(MemoryBackend(), self.plan), autosave=self.sidecar
        )
        self.service.save()
        self.log: List[tuple] = []  # the write logs of closed servers, in order
        self.observations: List[tuple] = []
        self.pending = list(self.workload.held_out)  # not registered, not in flight
        self.registered: List[str] = []  # acknowledged and not removed
        self.fatal_faults = 0
        self.store = wrap_session_store(self.service, self.plan)
        self._serve()

    def _serve(self):
        self.server = QServer(self.service, read_workers=2, retry_policy=_no_sleep_policy())
        self.offset = len(self.log)  # this server's snapshot 0 in the whole log
        self.health = "healthy"
        self.save_fault_armed = False  # the next write's saves all fail
        self.journal_at_degrade = None  # set while a landed write's save is owed
        self.reads: List = []
        self.writes: List[tuple] = []  # (future, kind, source, create_relation faults)
        self.failed = self.rejected = 0
        self.retired = None  # the snapshot the first write since the last drain retired

    def teardown(self):
        try:
            self.drain()
            self._close_server()
            replay(self.workload, self.log, self.observations)
        finally:
            self.plan.disable()  # the session's closing save must not meet a fault
            self.server.close()
            self.service.close()
            self.scratch.cleanup()

    # ------------------------------------------------------------------
    def _record(self, snapshot_id, view_id, tenant, answers):
        self.observations.append((self.offset + snapshot_id, view_id, tenant, fingerprint(answers)))

    def _write(self, submit, kind, source=None, faults=0):
        """Submit one write, or check that a degraded server refuses it."""
        if self.health == "degraded":
            with pytest.raises(ServiceUnavailableError):
                submit()
            self.rejected += 1
            return False
        if self.retired is None:
            self.retired = self.server.snapshot()
        future = submit()
        self.writes.append((future, kind, source, faults))
        if self.save_fault_armed:
            self.journal_at_degrade = self.store.entry_count()
            assert future.exception(timeout=120) is None  # it landed; only its save failed
            assert self.server.write_log[-1][0] == kind
            assert self.server.health() == "degraded"
            self.health = "degraded"
            self.save_fault_armed = False
        return True

    def _close_server(self):
        stats = self.server.stats()
        log = list(self.server.write_log)
        assert stats.snapshot_id == stats.writes_applied == len(log)
        assert (stats.writes_failed, stats.writes_rejected) == (self.failed, self.rejected)
        self.server.close()
        self.log.extend(log)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @rule(view=VIEWS, tenant=PICK, entry=ENTRY)
    def read(self, view, tenant, entry):
        """A blocking read answers on this thread while queued writes land;
        a pooled one is recorded at the next drain."""
        request = QueryRequest(view=self.view_ids[view], tenant=tenant)
        if entry == "submit_query":
            self.reads.append(self.server.submit_query(request))
            return
        result = self.server.query(request)
        assert not result.degraded
        self._record(result.snapshot_id, result.view_id, result.tenant, result.answers)

    @rule(view=VIEWS, tenant=PICK, reads_before_expiry=st.integers(1, 40))
    def deadline_read(self, view, tenant, reads_before_expiry):
        """A budgeted read is exact, a non-empty truncated prefix, or a typed
        error; it pins nothing, and a zero deadline always fails typed."""
        view_id = self.view_ids[view]
        with pytest.raises(DeadlineExceededError):
            self.server.submit_query(QueryRequest(view=view_id, tenant=tenant), deadline_ms=0.0).result()
        self.drain()  # no other read pins on the snapshot below
        snapshot = self.server.snapshot()
        sv = snapshot.resolve(QueryRequest(view=view_id))
        pinned = snapshot.pinned_count()
        budget = Budget(deadline_s=1.0, clock=_expiring_clock(reads_before_expiry))
        try:
            answers = snapshot.answers_for(sv, tenant, budget=budget)
        except DeadlineExceededError:
            answers = None
        assert snapshot.pinned_count() == pinned
        full = snapshot.answers_for(sv, tenant)
        self._record(snapshot.snapshot_id, view_id, tenant, full)
        if answers is not None and budget.truncated:
            assert answers and answers == full[: len(answers)]
        elif answers is not None:
            assert answers == full

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @rule(view=VIEWS, tenant=PICK, index=st.integers(0, 9), prefer=st.booleans(), replays=st.integers(1, 2))
    def feedback(self, view, tenant, index, prefer, replays):
        tag = feedback_tag(self.view_ids[view], index, tenant, prefer, replays)
        service = self.service
        self._write(
            lambda: self.server.submit_mutation(lambda: apply_feedback(service, tag), kind="feedback", tag=tag),
            "feedback",
        )

    @precondition(lambda self: self.pending)
    @rule(pick=st.integers(0, 4), faults=st.sampled_from([0, 0, 1, 2, 3]))
    def register(self, pick, faults):
        """Register a held-out source, its first ``faults`` attempts failing transiently."""
        name = self.pending[pick % len(self.pending)]
        request = self.workload.register_request(name)
        if self.save_fault_armed:
            faults = 0  # the journal faults armed for the next write stay armed
        if faults and self.health == "healthy":
            if any(kind == "register" for _, kind, _, _ in self.writes):
                self.drain()
            # Journal faults still armed would add to this write's.
            self.plan.rules[:] = [FaultRule(op="create_relation", error="transient", times=faults)]
        if self._write(lambda: self.server.submit_register(request), "register", name, faults):
            self.pending.remove(name)

    @precondition(lambda self: self.registered)
    @rule(pick=st.integers(0, 4))
    def remove(self, pick):
        name = self.registered[pick % len(self.registered)]
        self.drain()
        if self._write(lambda: self.server.submit_remove(name), "remove", name):
            self.registered.remove(name)
            self.retired = None
            self.drain()

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    @precondition(lambda self: self.journal_at_degrade is None)
    @rule(times=st.integers(1, ATTEMPTS))
    def journal_fault(self, times):
        """The next ``times`` autosave journal appends fail transiently;
        ``ATTEMPTS`` of them fail every save of the next write."""
        if times >= ATTEMPTS or any(kind == "register" and faults for _, kind, _, faults in self.writes):
            self.drain()
        self.plan.rules.append(FaultRule(op="append_entry", error="transient", times=times))
        self.save_fault_armed = self.save_fault_armed or times >= ATTEMPTS

    @precondition(lambda self: self.health == "healthy")
    @rule()
    def fatal_fault(self):
        self.drain()
        self.plan.rules.append(FaultRule(op="create_relation", error="fatal", times=1))
        self.fatal_faults += 1
        name = f"{SYNTHETIC}fatal_{self.fatal_faults}"
        with pytest.raises(InjectedFaultError):
            self.server.register(self.workload.register_request(name))
        self.failed += 1
        assert self.server.health() == "degraded"
        self.health = "degraded"

    @precondition(lambda self: self.health == "degraded")
    @rule()
    def recover(self):
        assert self.server.recover() == "healthy"
        self.health = "healthy"
        if self.journal_at_degrade is not None:
            assert self.store.entry_count() == self.journal_at_degrade + 1  # the owed save
            self.journal_at_degrade = None

    # ------------------------------------------------------------------
    # Draining, restarting
    # ------------------------------------------------------------------
    @rule()
    def drain(self):
        """Every future resolves, each write as the model says; every read is
        recorded, the retired snapshot's reader's included."""
        futures = self.reads + [write[0] for write in self.writes]
        _, not_done = wait_futures(futures, timeout=120)
        assert not not_done
        if self.retired is not None:
            for view_id in self.view_ids:
                sv = self.retired.resolve(QueryRequest(view=view_id))
                for tenant in TENANTS:
                    answers = self.retired.answers_for(sv, tenant)
                    self._record(self.retired.snapshot_id, view_id, tenant, answers)
            self.retired = None
        for future in self.reads:
            result = future.result()
            assert not result.degraded
            self._record(result.snapshot_id, result.view_id, result.tenant, result.answers)
        for future, kind, source, faults in self.writes:
            error = future.exception()
            must_fail = faults >= 3
            if must_fail:
                assert isinstance(error, TransientStorageError)
                self.failed += 1
            else:
                assert error is None
            if kind == "register":
                (self.pending if must_fail else self.registered).append(source)
            elif kind == "remove":
                self.pending.append(source)
        self.reads, self.writes = [], []

    @rule()
    def save_close_open(self):
        """A reopened session holds exactly the acknowledged registrations,
        and its first reads are checked like any other."""
        self.drain()
        self.plan.disable()
        self._close_server()
        self.service.save()
        self.service.close()
        self.service = QService.open(
            self.sidecar, backend=FaultyBackend(MemoryBackend(), self.plan), autosave=self.sidecar
        )
        self.store = wrap_session_store(self.service, self.plan)
        self.plan.rules.clear()
        self.plan.enable()
        for name in self.workload.held_out:
            assert self.service.catalog.has_source(name) == (name in self.registered)
        for index in range(1, self.fatal_faults + 1):
            assert not self.service.catalog.has_source(f"{SYNTHETIC}fatal_{index}")
        self._serve()
        for view in range(len(self.view_ids)):
            for tenant in TENANTS:
                self.read(view, tenant, "submit_query" if view % 2 else "query")

    @invariant()
    def health_is_what_the_model_says(self):
        assert self.server.health() == self.health


ServerMachine.TestCase.settings = settings(
    max_examples=16,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestServerMachine = pytest.mark.fault_injection(ServerMachine.TestCase)
