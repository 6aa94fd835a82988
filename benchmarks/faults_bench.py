"""Chaos suite: the serving lane under scripted storage faults and deadlines.

Drives the *real* stack — :class:`~repro.api.QService` over a
:class:`~repro.faults.FaultyBackend`, served by
:class:`~repro.service.QServer` with an autosaving sidecar session — while
a :class:`~repro.faults.FaultPlan` makes storage misbehave on cue, and then
proves the fault-tolerance invariants held:

* **retry probe** — a registration whose first two ``create_relation``
  calls fail transiently must apply exactly once (backoff + idempotency
  keys; the registrar's rollback returns the failed attempts' edge ids, so
  retries are invisible to signatures).
* **concurrent chaos** — the mixed query/feedback/registration workload of
  ``service_bench`` runs while every third autosave ``append_entry`` fails
  transiently and reads absorb injected scan latency.  Every submitted
  future must resolve; no typed error may escape.
* **degraded mode** — a scripted fatal fault flips the server to read-only:
  reads keep serving the last snapshot, writes fail fast with
  ``ServiceUnavailableError``, and ``recover()`` restores write service.
* **isolation oracle** — a fault-free session serially replays the applied
  write order and re-derives every observed read; any fingerprint mismatch
  is an isolation violation (the gate requires exactly zero), so retries
  and degraded-mode reads provably never leaked partial state.
* **durability** — the chaos session saves and reopens with faults off;
  every (view, tenant) ranking must match the live session byte for byte
  (zero corrupted sessions), every acknowledged registration must be
  present, and the fatally-failed one absent (zero lost or phantom writes).
* **deadline probe** — the largest Figure-8 configuration (the GBCO graph
  grown with synthetic sources) is queried under a tight ``deadline_ms``
  after one edge cost moved (an unmoved view's ranking is recalled, not
  enumerated, and no deadline bites on a recall);
  the read must return a typed ``DeadlineExceededError`` or a degraded
  partial ranking within 2x the deadline, and a follow-up unbudgeted read
  must still be complete (partial results never contaminate later reads).

All fault schedules are deterministic (per-operation call counters, zero
jitter), so every count in the report is exact and the ``--check`` gate
holds them to equality against the checked-in baseline.

Usage::

    PYTHONPATH=src python benchmarks/faults_bench.py \
        --config large --out BENCH_faults.json
    PYTHONPATH=src python benchmarks/faults_bench.py \
        --config small --check benchmarks/BENCH_faults_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import wait as wait_futures
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_HERE), str(_SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.api import (  # noqa: E402
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco, grow_catalog_and_graph  # noqa: E402
from repro.datastore import DataSource  # noqa: E402
from repro.datastore.csvio import source_from_dict, source_to_dict  # noqa: E402
from repro.exceptions import (  # noqa: E402
    DeadlineExceededError,
    ServiceUnavailableError,
    StorageError,
)
from repro.graph.features import edge_feature  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultPlan,
    FaultRule,
    FaultyBackend,
    RetryPolicy,
    wrap_session_store,
)
from repro.learning import AnnotationKind  # noqa: E402
from repro.matching import MetadataMatcher  # noqa: E402
from repro.service import QServer  # noqa: E402
from repro.storage import MemoryBackend  # noqa: E402

CONFIGS = {
    "small": dict(
        rows_per_relation=10,
        view_entries=(2, 3),
        workers=4,
        ops_per_worker=12,
        fig8_size=100,
        deadline_ms=100.0,
    ),
    "large": dict(
        rows_per_relation=30,
        view_entries=(2, 3, 7),
        workers=8,
        ops_per_worker=24,
        fig8_size=500,
        deadline_ms=250.0,
    ),
}

#: Tenants the traffic mix rotates through (``None`` = shared base ranking).
TENANTS: Tuple[Optional[str], ...] = (None, "alice", "bob")

SEED = 11

#: Synthetic sources reserved for the serial fault probes (the ``chaos_``
#: prefix routes their replay requests away from the GBCO catalog).
RETRY_SOURCE = "chaos_retry"
FAIL_SOURCE = "chaos_fatal"
RECOVER_SOURCE = "chaos_recover"

#: The deadline-probe read must resolve within this multiple of its budget
#: (typed error or degraded partial — never a silent overrun).
DEADLINE_OVERRUN_FACTOR = 2.0

#: Deadline-probe solver shape: ``top_k`` past the enumeration cliff of the
#: two-entry keyword set makes the k-best Steiner solve the dominant
#: (budgeted) cost — 0.7 s (small) / 3 s (large) of work for the unbudgeted
#: reference read since the bound-pruned Steiner kernel (38.5 s before it on
#: large), so the configs' deadlines sit at about a seventh / a twelfth of
#: that to truncate on any machine.
PROBE_TOP_K = 80
PROBE_ANSWER_LIMIT = 1000


def _clone(source):
    return source_from_dict(source_to_dict(source))


def _fingerprint(answers) -> List:
    """Ranking fingerprint including the producing tree and base tuples —
    distinct Steiner trees frequently project identical (values, cost)."""
    return [
        (
            tuple(answer.values.items()),
            answer.cost,
            answer.provenance.query_id if answer.provenance is not None else None,
            tuple(sorted(answer.provenance.base_tuples))
            if answer.provenance is not None
            else None,
        )
        for answer in answers
    ]


def _synthetic_source(name: str) -> DataSource:
    """A tiny deterministic source for the serial fault probes."""
    return DataSource.build(
        name,
        {name: ["acc", "label"]},
        data={
            name: [
                {"acc": f"{name}:{i:03d}", "label": f"{name} item {i}"}
                for i in range(1, 4)
            ]
        },
    )


def _register_request(gbco, name: str) -> RegisterSourceRequest:
    """Registration request by name — GBCO held-out or reserved synthetic.

    The oracle leg replays ``register:<name>`` tags through this same
    function, so chaos-leg and replay registrations are byte-identical.
    """
    if name.startswith("chaos_"):
        source = _synthetic_source(name)
    else:
        source = _clone(gbco.catalog.source(name))
    return RegisterSourceRequest(
        source=source, strategy="exhaustive", matcher=MetadataMatcher()
    )


# ----------------------------------------------------------------------
# Workload schedule (generated once, executed by chaos and oracle legs)
# ----------------------------------------------------------------------
def build_schedules(spec: Dict[str, object]) -> List[List[Dict]]:
    """Per-worker op lists: ~80% query / 15% feedback / 5% register."""
    schedules: List[List[Dict]] = []
    n_views = len(spec["view_entries"])
    for worker in range(spec["workers"]):
        rng = random.Random(SEED * 1000 + worker)
        ops: List[Dict] = []
        for _ in range(spec["ops_per_worker"]):
            roll = rng.random()
            view = rng.randrange(n_views)
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


def _apply_feedback(service, view_id, index, tenant, prefer, replay):
    """The writer-lane feedback closure, replayable from its descriptor
    (the answer choice happens inside the writer lane, so it is
    deterministic in write order)."""
    answers = list(service.stream_answers(QueryRequest(view=view_id)))
    if not answers:
        return
    answer = answers[index % len(answers)]
    other = None
    kind = AnnotationKind.VALID
    if prefer:
        other = next(
            (
                candidate
                for candidate in answers
                if candidate.provenance.query_id != answer.provenance.query_id
            ),
            None,
        )
        if other is not None:
            kind = AnnotationKind.PREFERRED_OVER
    service.feedback(
        FeedbackRequest(
            view=view_id,
            answer=answer,
            kind=kind,
            other=other,
            replay=replay,
            tenant=tenant,
        )
    )


def build_session(gbco, spec, held_out, backend=None, autosave=False):
    """Bootstrap-aligned session minus held-out sources, workload views
    created (unmaterialized) in a fixed order.  Shared by the chaos leg
    (faulty backend + sidecar autosave) and the oracle leg (plain)."""
    service = QService(
        sources=[
            _clone(source) for source in gbco.catalog if source.name not in held_out
        ],
        config=ServiceConfig(
            top_k=5,
            top_y=1,
            write_queue_limit=256,
            # One journal entry per autosave keeps the append_entry fault
            # schedule independent of compaction thresholds.
            journal_compact_after=100_000,
        ),
        backend=backend,
        autosave=autosave,
    )
    service.bootstrap_alignments()
    view_ids = []
    for entry_index in spec["view_entries"]:
        keywords = tuple(gbco.query_log[entry_index].keywords)
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        view_ids.append(info.view_id)
    return service, view_ids


# ----------------------------------------------------------------------
# Leg 1: the chaos run (faulty backend, retry/degrade/recover, durability)
# ----------------------------------------------------------------------
def run_chaos(gbco, spec, held_out, schedules, workdir: Path) -> Dict[str, object]:
    plan = FaultPlan(active=False)
    backend = FaultyBackend(MemoryBackend(), plan)
    sidecar = workdir / "chaos_session.json"
    service, view_ids = build_session(
        gbco, spec, held_out, backend=backend, autosave=str(sidecar)
    )
    service.save()
    wrap_session_store(service, plan)

    observations: List[Tuple[int, str, Optional[str], List]] = []
    record_lock = threading.Lock()
    health_timeline: List[str] = []
    counts = {"queries": 0, "feedback": 0, "registrations": 0}
    fault_counts = {"transient": 0, "fatal": 0, "latency": 0}

    def snapshot_fired() -> None:
        for rule in plan.rules:
            if rule.error == "transient":
                fault_counts["transient"] += rule.fired
            elif rule.error == "fatal":
                fault_counts["fatal"] += rule.fired
            elif rule.error is None:
                fault_counts["latency"] += rule.fired

    # Deterministic backoff: zero jitter, sub-millisecond delays.
    policy = RetryPolicy(
        max_attempts=3, base_delay_s=0.001, max_delay_s=0.004, jitter=0.0
    )
    server = QServer(service, read_workers=spec["workers"], retry_policy=policy)
    start = time.perf_counter()
    try:
        health_timeline.append(server.health())

        # -- Phase 1: serial retry probe (pre-apply transient faults) -----
        # The first two create_relation calls die transiently; attempt 3
        # lands.  Catalog.add_source rolls back each failed attempt before
        # the graph numbered any edge for it, so the applied registration
        # is byte-identical to a clean one.
        plan.rules[:] = [FaultRule(op="create_relation", error="transient", times=2)]
        plan.enable()
        server.register(
            _register_request(gbco, RETRY_SOURCE), tag=f"register:{RETRY_SOURCE}"
        )
        plan.disable()
        snapshot_fired()
        counts["registrations"] += 1
        if not service.catalog.has_source(RETRY_SOURCE):
            raise AssertionError("retry probe: registration did not apply")

        # -- Phase 2: concurrent mixed traffic under transient chaos ------
        # Every third autosave append_entry fails transiently (the writer
        # retries; idempotency keys prevent double-apply) and scans absorb
        # injected latency to stir thread interleavings.
        plan.rules[:] = [
            FaultRule(op="append_entry", error="transient", after=2, every=3, times=None),
            FaultRule(
                op="scan", error=None, after=5, every=7, times=None, latency_s=0.002
            ),
        ]
        plan.enable()

        futures = []
        futures_lock = threading.Lock()
        source_lock = threading.Lock()
        pending_sources = list(held_out)
        errors: List[BaseException] = []

        def run_worker(ops: List[Dict]) -> None:
            for op in ops:
                kind = op["op"]
                if kind == "register":
                    with source_lock:
                        name = pending_sources.pop(0) if pending_sources else None
                    if name is None:
                        kind, op = "query", {"op": "query", "view": 0, "tenant": None}
                    else:
                        future = server.submit_register(
                            _register_request(gbco, name), tag=f"register:{name}"
                        )
                        with futures_lock:
                            futures.append(future)
                        with record_lock:
                            counts["registrations"] += 1
                        continue
                if kind == "query":
                    result = server.query(
                        QueryRequest(view=view_ids[op["view"]], tenant=op["tenant"])
                    )
                    with record_lock:
                        counts["queries"] += 1
                        observations.append(
                            (
                                result.snapshot_id,
                                result.view_id,
                                result.tenant,
                                _fingerprint(result.answers),
                            )
                        )
                else:  # feedback through the writer lane, replayable by tag
                    descriptor = {
                        "view": view_ids[op["view"]],
                        "index": op["index"],
                        "tenant": op["tenant"],
                        "prefer": op["prefer"],
                        "replay": op["replay"],
                    }
                    future = server.submit_mutation(
                        lambda d=descriptor: _apply_feedback(
                            service,
                            d["view"],
                            d["index"],
                            d["tenant"],
                            d["prefer"],
                            d["replay"],
                        ),
                        kind="feedback",
                        tag=json.dumps(descriptor, sort_keys=True),
                    )
                    with futures_lock:
                        futures.append(future)
                    with record_lock:
                        counts["feedback"] += 1

        def guarded(ops: List[Dict]) -> None:
            try:
                run_worker(ops)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(ops,), name=f"chaos-worker-{i}")
            for i, ops in enumerate(schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        # Every submitted future must resolve — no write may hang or be
        # silently dropped under chaos.
        done, not_done = wait_futures(futures, timeout=120)
        if not_done:
            raise AssertionError(f"{len(not_done)} writer futures never resolved")
        unresolved = 0
        for future in futures:
            exc = future.exception(timeout=0)
            if exc is not None:
                raise AssertionError(f"acknowledged write failed under chaos: {exc!r}")
        plan.disable()
        snapshot_fired()
        health_after_chaos = server.health()
        if health_after_chaos != "healthy":
            raise AssertionError(
                f"transient chaos must not degrade the server: {health_after_chaos}"
            )
        health_timeline.append(health_after_chaos)

        # -- Phase 3: fatal fault -> degraded read-only mode -> recover ---
        plan.rules[:] = [FaultRule(op="create_relation", error="fatal", times=1)]
        plan.enable()
        fatal_error: Optional[BaseException] = None
        try:
            server.register(
                _register_request(gbco, FAIL_SOURCE), tag=f"register:{FAIL_SOURCE}"
            )
        except StorageError as exc:
            fatal_error = exc
        if fatal_error is None:
            raise AssertionError("fatal fault did not surface to the caller")
        health_timeline.append(server.health())
        if health_timeline[-1] != "degraded":
            raise AssertionError(f"expected degraded health, got {health_timeline[-1]}")

        # Degraded reads still serve the last published snapshot.
        result = server.query(QueryRequest(view=view_ids[0]))
        counts["queries"] += 1
        observations.append(
            (
                result.snapshot_id,
                result.view_id,
                result.tenant,
                _fingerprint(result.answers),
            )
        )
        # Writes fail fast with the typed unavailability error.
        try:
            server.submit_mutation(lambda: None, kind="noop", tag="noop")
        except ServiceUnavailableError:
            pass
        else:
            raise AssertionError("degraded server accepted a write")
        plan.disable()
        snapshot_fired()

        if server.recover() != "healthy":
            raise AssertionError("recover() did not restore health")
        health_timeline.append(server.health())
        server.register(
            _register_request(gbco, RECOVER_SOURCE), tag=f"register:{RECOVER_SOURCE}"
        )
        counts["registrations"] += 1

        # Final serial reads extend oracle coverage to the end state.
        for view_id in view_ids:
            for tenant in TENANTS:
                result = server.query(QueryRequest(view=view_id, tenant=tenant))
                counts["queries"] += 1
                observations.append(
                    (
                        result.snapshot_id,
                        result.view_id,
                        result.tenant,
                        _fingerprint(result.answers),
                    )
                )

        stats = server.stats()
        write_log = list(server.write_log)
        if stats.snapshot_id != len(write_log):
            raise AssertionError(
                f"snapshot id {stats.snapshot_id} != applied writes {len(write_log)}"
            )
    finally:
        server.close()
    wall = time.perf_counter() - start

    # -- Durability: save, reopen fault-free, compare every ranking -------
    acked_sources = sorted(
        tag.split(":", 1)[1] for kind, tag in write_log if kind == "register"
    )
    service.save()
    reopened = QService.open(str(sidecar))
    views_compared = 0
    corrupted = 0
    try:
        for view_id in view_ids:
            for tenant in TENANTS:
                live = _fingerprint(
                    service.stream_answers(QueryRequest(view=view_id, tenant=tenant))
                )
                restored = _fingerprint(
                    reopened.stream_answers(QueryRequest(view=view_id, tenant=tenant))
                )
                views_compared += 1
                if live != restored:
                    corrupted += 1
                    print(
                        f"CORRUPTED SESSION: view {view_id} tenant {tenant!r} "
                        "diverged after save/reopen",
                        file=sys.stderr,
                    )
        acked_present = sum(
            1 for name in acked_sources if reopened.catalog.has_source(name)
        )
        failed_absent = not reopened.catalog.has_source(FAIL_SOURCE)
    finally:
        reopened.close()
        service.close()

    return {
        "wall_seconds": round(wall, 4),
        "counts": {
            **counts,
            "writes_applied": stats.writes_applied,
            "writes_failed": stats.writes_failed,
            "writes_rejected": stats.writes_rejected,
            "writes_retried": stats.writes_retried,
            "writes_cancelled": stats.writes_cancelled,
            "snapshots_published": stats.snapshots_published,
            "observations": len(observations),
            "futures_resolved": len(done),
            "futures_unresolved": unresolved,
            "transient_faults_injected": fault_counts["transient"],
            "fatal_faults_injected": fault_counts["fatal"],
        },
        "latency_injections": fault_counts["latency"],
        "health_timeline": health_timeline,
        "durability": {
            "views_compared": views_compared,
            "corrupted_views": corrupted,
            "acked_registrations": len(acked_sources),
            "acked_registrations_present": acked_present,
            "failed_registration_absent": failed_absent,
        },
        "write_log": write_log,
        "observations": observations,
    }


# ----------------------------------------------------------------------
# Leg 2: isolation oracle (fault-free serial replay of the applied order)
# ----------------------------------------------------------------------
def run_oracle(gbco, spec, held_out, chaos: Dict[str, object]) -> Dict[str, object]:
    service, _view_ids = build_session(gbco, spec, held_out)
    # Mirror QServer's expansion schedule exactly: all views prepared
    # before snapshot 0 and again after every applied write, so lazy
    # refresh timing cannot skew edge-id allocation between legs.
    service.prepare_views(structural_only=True)

    by_snapshot: Dict[int, List[Tuple[str, Optional[str], List]]] = {}
    for snapshot_id, view_id, tenant, fingerprint in chaos["observations"]:
        by_snapshot.setdefault(snapshot_id, []).append((view_id, tenant, fingerprint))

    violations = 0
    checked = 0

    def check(snapshot_id: int) -> None:
        nonlocal violations, checked
        for view_id, tenant, observed in by_snapshot.get(snapshot_id, ()):
            expected = _fingerprint(
                service.stream_answers(QueryRequest(view=view_id, tenant=tenant))
            )
            checked += 1
            if expected != observed:
                violations += 1
                print(
                    f"ISOLATION VIOLATION: snapshot {snapshot_id} view {view_id} "
                    f"tenant {tenant!r} diverged from serial replay",
                    file=sys.stderr,
                )

    check(0)
    for write_count, (kind, tag) in enumerate(chaos["write_log"], start=1):
        if kind == "register":
            service.register_source(_register_request(gbco, tag.split(":", 1)[1]))
        elif kind == "feedback":
            descriptor = json.loads(tag)
            _apply_feedback(
                service,
                descriptor["view"],
                descriptor["index"],
                descriptor["tenant"],
                descriptor["prefer"],
                descriptor["replay"],
            )
        else:
            raise AssertionError(f"unreplayable write kind {kind!r} in write_log")
        service.prepare_views(structural_only=True)
        check(write_count)
    service.close()
    if checked != len(chaos["observations"]):
        raise AssertionError(
            "oracle coverage hole: "
            f"checked {checked} of {len(chaos['observations'])} observations "
            "(a read named a snapshot the write log cannot reach)"
        )
    return {"isolation_checks": checked, "isolation_violations": violations}


# ----------------------------------------------------------------------
# Leg 3: deadline probe against the largest Figure-8 configuration
# ----------------------------------------------------------------------
def run_deadline_probe(gbco, spec) -> Dict[str, object]:
    service = QService(
        sources=[_clone(source) for source in gbco.catalog],
        config=ServiceConfig(
            top_k=PROBE_TOP_K, top_y=1, answer_limit=PROBE_ANSWER_LIMIT
        ),
    )
    service.bootstrap_alignments()
    grow_catalog_and_graph(
        service.catalog,
        service.graph,
        target_source_count=spec["fig8_size"],
        seed=spec["fig8_size"],
    )
    # Terminals from two query-log entries: the combined keyword set makes
    # the Steiner instance hard enough that the solve dominates the read.
    keywords = tuple(
        keyword
        for entry_index in spec["view_entries"][:2]
        for keyword in gbco.query_log[entry_index].keywords
    )
    info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
    # Expand structurally up front: the probe then times the *budgeted*
    # solve/execute path, not the one-off unbudgeted graph expansion.
    service.prepare_views(structural_only=True)
    # Move one cost the ranking reads (a per-edge correction on the best
    # tree's first learnable edge, the kind feedback makes), so the budgeted
    # read faces a real enumeration.  Unmoved, the server snapshot's copy of
    # the view asks for the k best trees of the very network create_view just
    # ranked, and the session recalls that list in ~20 ms whatever the deadline.
    view = service.view(info.view_id)
    edge = next(e for e in view.trees()[0].edges(view.query_graph.graph) if e.is_learnable())
    feature, weights = edge_feature(edge.edge_id), service.graph.weights
    weights.set(feature, weights.get(feature) + 1e-6)

    deadline_ms = float(spec["deadline_ms"])
    with QServer(service, read_workers=2) as server:
        start = time.perf_counter()
        outcome = "complete"
        partial_answers = 0
        try:
            result = server.query(
                QueryRequest(view=info.view_id), deadline_ms=deadline_ms
            )
            partial_answers = len(result.answers)
            if result.degraded:
                outcome = "degraded_partial"
        except DeadlineExceededError:
            outcome = "deadline_exceeded"
        elapsed_ms = (time.perf_counter() - start) * 1000.0

        # A budgeted read must never contaminate later unbudgeted reads.
        full_start = time.perf_counter()
        full = server.query(QueryRequest(view=info.view_id))
        full_ms = (time.perf_counter() - full_start) * 1000.0
        if full.degraded:
            raise AssertionError("unbudgeted read came back degraded")
    service.close()

    return {
        "fig8_size": spec["fig8_size"],
        "deadline_ms": deadline_ms,
        "outcome": outcome,
        "elapsed_ms": round(elapsed_ms, 1),
        "within_deadline_factor": elapsed_ms <= deadline_ms * DEADLINE_OVERRUN_FACTOR,
        "partial_answers": partial_answers,
        "full_answers": len(full.answers),
        "full_read_ms": round(full_ms, 1),
    }


# ----------------------------------------------------------------------
def run_benchmark(config: str) -> Dict[str, object]:
    spec = CONFIGS[config]
    gbco = build_gbco(rows_per_relation=spec["rows_per_relation"])
    held_out = sorted(
        {
            relation.split(".")[0]
            for entry_index in spec["view_entries"]
            for relation in gbco.query_log[entry_index].new_relations
        }
    )
    schedules = build_schedules(spec)

    with tempfile.TemporaryDirectory(prefix="faults_bench_") as tmp:
        chaos = run_chaos(gbco, spec, held_out, schedules, Path(tmp))
    oracle = run_oracle(gbco, spec, held_out, chaos)
    probe = run_deadline_probe(gbco, spec)

    failures: List[str] = []
    if oracle["isolation_violations"]:
        failures.append(
            f"{oracle['isolation_violations']} isolation violations under chaos"
        )
    durability = chaos["durability"]
    if durability["corrupted_views"]:
        failures.append(f"{durability['corrupted_views']} corrupted sessions")
    if durability["acked_registrations_present"] != durability["acked_registrations"]:
        failures.append("an acknowledged registration is missing after reopen")
    if not durability["failed_registration_absent"]:
        failures.append("a failed registration leaked into the reopened session")
    if probe["outcome"] not in ("deadline_exceeded", "degraded_partial"):
        failures.append(
            f"deadline probe returned {probe['outcome']!r} — the budget never bit "
            f"(full read {probe['full_read_ms']}ms vs deadline {probe['deadline_ms']}ms)"
        )
    if not probe["within_deadline_factor"]:
        failures.append(
            f"deadline probe overran: {probe['elapsed_ms']}ms > "
            f"{DEADLINE_OVERRUN_FACTOR}x the {probe['deadline_ms']}ms deadline"
        )
    if failures:
        raise AssertionError("; ".join(failures))

    return {
        "benchmark": "faults_chaos",
        "workload": (
            "gbco serving under scripted storage faults: transient retry with "
            "idempotency keys, degraded read-only mode + recovery, durability "
            "roundtrip, isolation oracle, fig8 deadline probe"
        ),
        "config": {
            "name": config,
            "cpu_count": os.cpu_count(),
            **{k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()},
        },
        "chaos": {
            k: v for k, v in chaos.items() if k not in ("write_log", "observations")
        },
        "oracle": oracle,
        "deadline_probe": probe,
    }


def check_against_baseline(report: Dict[str, object], baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures: List[str] = []

    # Every gated number is deterministic (scripted fault schedules, zero
    # jitter): drift means the fault-tolerance machinery changed behavior.
    for metric, old_value in baseline["chaos"]["counts"].items():
        new_value = report["chaos"]["counts"].get(metric)
        if new_value != old_value:
            failures.append(
                f"chaos.counts.{metric} drifted: baseline {old_value}, got {new_value}"
            )
    if report["chaos"]["health_timeline"] != baseline["chaos"]["health_timeline"]:
        failures.append(
            f"health timeline drifted: baseline {baseline['chaos']['health_timeline']}"
            f", got {report['chaos']['health_timeline']}"
        )
    for metric, old_value in baseline["chaos"]["durability"].items():
        new_value = report["chaos"]["durability"].get(metric)
        if new_value != old_value:
            failures.append(
                f"durability.{metric} drifted: baseline {old_value}, got {new_value}"
            )
    for metric in ("isolation_checks", "isolation_violations"):
        if report["oracle"][metric] != baseline["oracle"][metric]:
            failures.append(
                f"oracle.{metric} drifted: baseline {baseline['oracle'][metric]}, "
                f"got {report['oracle'][metric]}"
            )

    # Hard invariants, re-asserted independent of the baseline.
    if report["oracle"]["isolation_violations"] != 0:
        failures.append("isolation violations must be exactly zero")
    if report["chaos"]["durability"]["corrupted_views"] != 0:
        failures.append("corrupted sessions must be exactly zero")
    if report["chaos"]["counts"]["futures_unresolved"] != 0:
        failures.append("all writer futures must resolve")

    # The deadline probe's outcome depends on machine speed only in which
    # *typed* path it takes; both are acceptable, a silent overrun is not.
    probe = report["deadline_probe"]
    for metric in ("fig8_size", "full_answers"):
        if probe[metric] != baseline["deadline_probe"][metric]:
            failures.append(
                f"deadline_probe.{metric} drifted: "
                f"baseline {baseline['deadline_probe'][metric]}, got {probe[metric]}"
            )
    if probe["outcome"] not in ("deadline_exceeded", "degraded_partial"):
        failures.append(f"deadline probe outcome {probe['outcome']!r} not allowed")
    if not probe["within_deadline_factor"]:
        failures.append("deadline probe overran its 2x budget")

    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    counts = report["chaos"]["counts"]
    print(
        f"baseline check ok: {counts['transient_faults_injected']} transient + "
        f"{counts['fatal_faults_injected']} fatal faults injected, "
        f"{counts['writes_retried']} retries, "
        f"{report['oracle']['isolation_checks']} isolation checks / 0 violations, "
        f"0 corrupted sessions, deadline probe {probe['outcome']} "
        f"in {probe['elapsed_ms']}ms"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="large")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/BENCH_faults.json"), help="report path"
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="baseline JSON to compare against"
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.config)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    counts = report["chaos"]["counts"]
    probe = report["deadline_probe"]
    print(
        f"chaos: {report['chaos']['wall_seconds']}s, "
        f"{counts['queries']} queries / {counts['feedback']} feedback / "
        f"{counts['registrations']} registrations, "
        f"{counts['transient_faults_injected']} transient + "
        f"{counts['fatal_faults_injected']} fatal faults, "
        f"{counts['writes_retried']} retries, "
        f"health {' -> '.join(report['chaos']['health_timeline'])}"
    )
    print(
        f"durability: {report['chaos']['durability']['views_compared']} rankings "
        "compared after save/reopen, "
        f"{report['chaos']['durability']['corrupted_views']} corrupted"
    )
    print(
        f"oracle: {report['oracle']['isolation_checks']} reads checked against "
        f"serial replay, {report['oracle']['isolation_violations']} violations"
    )
    print(
        f"deadline probe (fig8 n={probe['fig8_size']}): {probe['outcome']} in "
        f"{probe['elapsed_ms']}ms (deadline {probe['deadline_ms']}ms, "
        f"full read {probe['full_read_ms']}ms, "
        f"{probe['partial_answers']}/{probe['full_answers']} answers)"
    )
    print(f"report written to {args.out}")
    if args.check is not None:
        return check_against_baseline(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
