"""Concurrent multi-tenant serving front end over one :class:`QService`.

:class:`QServer` splits the service's traffic into two lanes:

* **Reads** — queries, answer streams, stats — run concurrently: a blocking
  :meth:`QServer.query` on the thread that asks, :meth:`QServer.submit_query`
  on a thread pool.  Each read grabs the current
  :class:`~repro.service.snapshots.ReadSnapshot` reference once and answers
  entirely against it, so reads never block on writes, never observe a
  half-applied mutation, and two reads of the same (view, tenant) on one
  snapshot share a single solve.
* **Writes** — feedback, source registration/removal, view creation — are
  serialized through one bounded queue drained by a single writer thread.
  After each *successful* write the writer re-expands structurally stale
  views (so all weight-seeding expansion happens in the writer lane) and
  publishes a fresh snapshot **before** completing the write's future: by
  the time a caller observes its write finished, every new read sees it.

The queue bound is the backpressure contract: when ``write_queue_limit``
writes are already pending, further writes fail fast with
:class:`~repro.exceptions.ServiceOverloadedError` instead of queuing
unboundedly — readers are unaffected (they never enter the queue), and
admitted writes retain FIFO fairness.  A failed write publishes nothing:
its snapshot never exists, and its future carries the exception.

Failure model (see README "Failure model")
------------------------------------------
The writer lane is *supervised*: no exception escapes it silently.

* **Transient storage faults** (SQLite ``locked``/``busy``, injected I/O
  errors) are classified by :func:`repro.faults.retry.classify_storage_error`
  and retried with exponential backoff + jitter under the server's
  :class:`~repro.faults.retry.RetryPolicy`.  Each write runs through
  :meth:`~repro.api.service.QService.apply_once` under an idempotency key,
  so a retry of a write that landed re-runs only its save and returns the
  recorded result; a registration that did not land was rolled back by the
  registrar with its edge ids, keeping its retry invisible to tree
  signatures and the isolation oracle.
* **Non-transient storage faults** flip the server into read-only
  *degraded* mode: reads keep serving the last published snapshot, pending
  and new writes fail fast with
  :class:`~repro.exceptions.ServiceUnavailableError`, and
  :meth:`QServer.recover` revalidates the backend before lifting the mode.
  A write that landed but could not be saved, past its retries, is
  published and returns its result, and degrades the server the same way;
  ``recover()`` lifts the mode only once a save succeeds.
* **Deadlines** — a read carrying ``deadline_ms`` polls a cooperative
  :class:`~repro.faults.budget.Budget` through solve and execution; expiry
  yields :class:`~repro.exceptions.DeadlineExceededError`, or a partial
  :class:`ReadResult` flagged ``degraded=True`` once answers exist.
* **Shutdown** — :meth:`QServer.close` waits for every read it admitted,
  on either entry point, and accepts a ``timeout`` for the writer; writes
  still queued when it elapses fail with
  :class:`~repro.exceptions.ServerClosedError` instead of blocking the
  caller forever.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
import uuid
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from ..datastore.provenance import AnswerTuple
from ..exceptions import (
    InvalidRequestError,
    ServerClosedError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SnapshotError,
    StorageError,
)
from ..api.streaming import paginate
from ..api.types import (
    AnswerPage,
    FeedbackRequest,
    QueryRequest,
    RegisterSourceRequest,
    ViewInfo,
)
from ..faults.budget import Budget
from ..faults.retry import RetryPolicy, classify_storage_error, is_transient
from ..obs.tracing import ReadTrace, active_trace
from .snapshots import ReadSnapshot

_SENTINEL = object()

#: Server health states (:meth:`QServer.health`): ``healthy`` → writes
#: accepted; ``degraded`` → read-only until :meth:`QServer.recover`;
#: ``closed`` → both lanes stopped.
HEALTHY = "healthy"
DEGRADED = "degraded"
CLOSED = "closed"


@dataclass(frozen=True)
class ReadResult:
    """One snapshot-isolated query answer: the data plus its provenance.

    ``snapshot_id`` identifies the exact service state (= number of writes
    applied before capture) the answers were priced and executed against —
    the handle the load harness's isolation oracle replays.

    ``degraded`` marks a deadline-truncated read: the request's budget
    expired after at least one answer materialized, so ``answers`` is a
    valid *prefix* of the full ranking (complete trees only), not the whole
    ranking.  Degraded answers are never cached or carried over — a later
    unbudgeted read of the same view recomputes the full result.

    ``trace`` is the read's timing breakdown (see
    :class:`~repro.obs.tracing.ReadTrace`): the span tree from snapshot
    acquire through solve/execute to pagination, the serving path
    (``posting-join`` / ``python-union`` / ``cached`` / ...) and, for
    queries the Python engine ran, the concrete reason SQL was ruled out.
    ``None`` when the session runs with ``observability=False``.
    """

    view_id: str
    view_name: str
    snapshot_id: int
    tenant: Optional[str]
    answers: Tuple[AnswerTuple, ...]
    page_size: int
    degraded: bool = False
    trace: Optional[ReadTrace] = None

    def pages(self) -> Iterator[AnswerPage]:
        """The answers re-chunked into the service's page shape."""
        return paginate(self.answers, self.view_id, self.page_size)

    def __len__(self) -> int:
        return len(self.answers)


#: Every count a server keeps, declared once: ``(ServerStats field, metric
#: name, help)``.  The lanes bump ``QServer._counts`` under the stats lock;
#: :meth:`QServer._register_server_metrics` binds one callback gauge per
#: entry and :meth:`QServer.stats` copies them.
_SERVER_COUNTERS = (
    ("reads_served", "q_server_reads_total", "Reads the server answered"),
    ("reads_degraded", "q_server_reads_degraded_total", "Reads the server answered deadline-truncated"),
    ("writes_admitted", "q_writes_admitted_total", "Writes admitted to the mutation queue"),
    ("writes_applied", "q_writes_applied_total", "Writes applied by the writer lane"),
    ("writes_failed", "q_writes_failed_total", "Writes whose future carries an exception"),
    ("writes_rejected", "q_writes_rejected_total", "Writes refused at admission"),
    ("writes_retried", "q_writes_retried_total", "Transient-fault retries in the writer lane"),
    ("writes_cancelled", "q_writes_cancelled_total", "Writes cancelled while queued"),
    ("snapshots_published", "q_snapshots_published_total", "Read snapshots published"),
    ("pinned_materializations", "q_pinned_materializations_total",
     "Pinned (view, tenant) materializations computed"),
    ("pinned_carryovers", "q_pinned_carryovers_total", "Pinned answer sets carried over across snapshots"),
)


@dataclass(frozen=True)
class ServerStats:
    """One serving front end's state, then one count per ``_SERVER_COUNTERS`` entry."""

    snapshot_id: int
    queue_depth: int
    read_workers: int
    write_queue_limit: int
    health: str
    reads_served: int
    reads_degraded: int
    writes_admitted: int
    writes_applied: int
    writes_failed: int
    writes_rejected: int
    writes_retried: int
    writes_cancelled: int
    snapshots_published: int
    pinned_materializations: int
    pinned_carryovers: int


class _WriteOp:
    __slots__ = ("fn", "kind", "tag", "op_key", "future", "enqueued_s")

    def __init__(self, fn: Callable[[], object], kind: str, tag: Optional[str], op_key: str) -> None:
        self.fn = fn
        self.kind = kind
        self.tag = tag
        #: The idempotency key :meth:`QService.apply_once` runs the write under.
        self.op_key = op_key
        self.future: Future = Future()
        #: Tracer-clock stamp taken at admission; the writer lane turns it
        #: into the op's ``queue_wait`` span.
        self.enqueued_s: float = 0.0


class QServer:
    """Snapshot-isolated serving layer over a session.

    Parameters
    ----------
    service:
        The :class:`~repro.api.service.QService` to serve.  The server owns
        its mutation discipline from construction on: apply writes through
        the server, not directly on the service.
    read_workers:
        Sizes the pool behind :meth:`submit_query`; ``0`` = one per CPU.
        A blocking :meth:`query` runs on the caller's thread.
    write_queue_limit:
        Bound of the single-writer mutation queue.  Defaults to
        ``service.config.write_queue_limit``.
    retry_policy:
        Writer-lane retry policy for transient storage faults.  Defaults to
        ``RetryPolicy()`` (3 attempts, 5 ms base delay, 100 ms cap); tests
        inject one with a fake ``sleep``/``rng`` for determinism.

    Every read/write has a ``submit_*`` form returning a
    :class:`concurrent.futures.Future` (asyncio-friendly via
    ``asyncio.wrap_future``) and a blocking form.  Both read forms run one
    ``_read`` against the published snapshot.
    """

    def __init__(
        self,
        service,
        read_workers: int = 4,
        write_queue_limit: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._service = service
        if read_workers < 0:
            raise InvalidRequestError(f"read_workers must be >= 0, got {read_workers}")
        workers = read_workers or os.cpu_count() or 1
        limit = service.config.write_queue_limit if write_queue_limit is None else write_queue_limit
        if limit < 1:
            raise InvalidRequestError(f"write_queue_limit must be >= 1, got {limit}")
        self.read_workers = workers
        self.write_queue_limit = limit
        if retry_policy is None:
            retry_policy = RetryPolicy()
        self._retry_policy = retry_policy
        #: The session's observability bundle (see :mod:`repro.obs`): the
        #: server traces its lanes into the session's registry/logs, so one
        #: scrape covers service and server alike.
        self.obs = service.obs

        lock = self._stats_lock = threading.Lock()
        counts = self._counts = dict.fromkeys((field for field, _, _ in _SERVER_COUNTERS), 0)

        def count(field: str, n: int = 1) -> None:
            with lock:
                counts[field] += n

        #: Bumps one count.  A closure, not a method: the snapshots hold it,
        #: and must not hold the server.
        self._count = count
        #: The failure that put the server in read-only mode; ``None`` while
        #: it is healthy.
        self._fault: Optional[BaseException] = None
        #: Whether a write landed whose save failed: :meth:`recover` saves
        #: the session before it lifts the mode.
        self._save_owed = False
        #: ``(kind, tag)`` of every applied write, in apply order — the
        #: exact serial schedule an isolation oracle must replay.
        self.write_log: List[Tuple[str, Optional[str]]] = []

        # Idempotency keys are unique per server incarnation; the per-op
        # suffix keeps them readable in journals and fault-harness dumps.
        self._op_prefix = uuid.uuid4().hex[:8]
        self._op_seq = itertools.count(1)

        self._closed = False
        #: Admits work against ``_closed``; ``close()`` waits on it until no
        #: blocking read is in flight.
        self._close_lock = threading.Condition(threading.Lock())
        self._blocking_reads = 0
        self._queue: "queue.Queue" = queue.Queue(maxsize=limit)
        # Initial publish happens before any reader or writer exists, so
        # snapshot 0 is the pristine service state.
        service.prepare_views(structural_only=True)
        self._snapshot = ReadSnapshot.capture(service, 0, None, count)
        counts["snapshots_published"] = 1
        self._last_publish_monotonic = time.monotonic()
        self._register_server_metrics()
        self._read_pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="qserve-read"
        )
        self._writer = threading.Thread(
            target=self._writer_loop, name="qserve-writer", daemon=True
        )
        self._writer.start()

    def _register_server_metrics(self) -> None:
        """Expose the serving lanes on the shared registry.

        All callback gauges over the server's plain counters: the lanes
        keep their lock-guarded int arithmetic, scrapes read live values.
        The registry is the session's and outlives the server, so the
        callbacks reach the server through a weak proxy: a closed server
        (and its last snapshot) is freed by its last reference, and a
        scrape after that reads 0.
        """
        gauge = self.obs.registry.gauge
        server = weakref.proxy(self)
        gauge("q_snapshot_id", "Currently published snapshot id", fn=lambda: server._snapshot.snapshot_id)
        gauge(
            "q_snapshot_age_seconds",
            "Seconds since the last snapshot publish",
            fn=lambda: max(time.monotonic() - server._last_publish_monotonic, 0.0),
        )
        gauge("q_write_queue_depth", "Writes waiting in the mutation queue", fn=lambda: server._queue.qsize())
        gauge(
            "q_pending_writes",
            "Writes admitted but not yet applied, failed or cancelled",
            fn=lambda: max(
                server._counts["writes_admitted"]
                - server._counts["writes_applied"]
                - server._counts["writes_failed"]
                - server._counts["writes_cancelled"],
                0,
            ),
        )
        gauge("q_health_state", "Server health: 0 healthy, 1 degraded, 2 closed",
              fn=lambda: (HEALTHY, DEGRADED, CLOSED).index(server.health()))
        for field, name, help_text in _SERVER_COUNTERS:
            gauge(name, help_text, fn=lambda field=field: server._counts[field])
        gauge("q_read_pool_workers", "Threads behind submit_query; query runs on its caller's thread",
              fn=lambda: server.read_workers)
        gauge("q_write_queue_limit", "Bound of the mutation queue", fn=lambda: server.write_queue_limit)

    def metrics(self, fmt: str = "prometheus"):
        """The shared metrics registry in exposition form.

        The session's :meth:`QService.metrics`: the server and its session
        share one registry, so either scrape sees both lanes.
        """
        return self._service.metrics(fmt)

    # ------------------------------------------------------------------
    # Health / supervision
    # ------------------------------------------------------------------
    def health(self) -> str:
        """``"healthy"``, ``"degraded"`` (read-only) or ``"closed"``."""
        if self._closed:
            return CLOSED
        return HEALTHY if self._fault is None else DEGRADED

    def last_fault(self) -> Optional[BaseException]:
        """The failure that degraded the server, if it is degraded."""
        return self._fault

    def recover(self) -> str:
        """Revalidate the backend and lift degraded mode.  Returns health.

        Probes the storage backend (a cheap metadata read) and, when the
        session is persistent, its session store — by saving the session
        when a write landed that could not be saved.  A failing probe leaves
        the server degraded and raises
        :class:`~repro.exceptions.ServiceUnavailableError` carrying the
        probe failure as its cause.
        """
        self._check_open()
        if self._fault is None:
            return HEALTHY
        service = self._service
        try:
            if service.catalog.backend is not None:
                service.catalog.backend.relation_keys()
            if self._save_owed:
                service.save()
            elif service._persistence is not None:
                service._persistence.store.entry_count()
        except Exception as exc:
            raise ServiceUnavailableError(
                f"recovery probe failed; server stays degraded: {exc}"
            ) from exc
        self._save_owed = False
        self._fault = None
        return HEALTHY

    def _degrade(self, exc: BaseException) -> None:
        """Flip to read-only mode and fail everything still queued."""
        self._fault = exc
        failed = self._drain_queue(
            lambda: ServiceUnavailableError(
                f"server degraded to read-only after a storage failure: {exc}"
            )
        )
        self._count("writes_failed", failed)

    def _drain_queue(self, make_error: Callable[[], BaseException]) -> int:
        """Fail every op still queued; returns how many were failed.

        Runs either on the writer thread itself (degrade path) or after the
        writer is confirmed dead/wedged (:meth:`close` timeout path), so it
        never races the writer's own ``get``.  A sentinel encountered while
        draining is re-queued so a still-alive writer eventually exits.
        """
        failed = 0
        sentinel_seen = False
        while True:
            try:
                op = self._queue.get_nowait()
            except queue.Empty:
                break
            if op is _SENTINEL:
                sentinel_seen = True
                continue
            if op.future.set_running_or_notify_cancel():
                op.future.set_exception(make_error())
                failed += 1
            else:
                self._count("writes_cancelled")
        if sentinel_seen:
            try:
                self._queue.put_nowait(_SENTINEL)
            except queue.Full:  # pragma: no cover - queue refilled mid-drain
                pass
        return failed

    def _is_fatal_storage_failure(self, exc: BaseException) -> bool:
        """Non-transient storage/persistence failures degrade the server.

        Plain operational errors (a malformed request surfacing late, a
        matcher bug) fail only their own op — the service state is still
        trustworthy, so the server stays healthy.
        """
        classified = classify_storage_error(exc)
        return isinstance(classified, (StorageError, SnapshotError)) and not is_transient(
            classified
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def submit_query(
        self, request: QueryRequest, deadline_ms: Optional[float] = None
    ) -> "Future[ReadResult]":
        """Schedule a snapshot-isolated read on the read pool; returns its future.

        ``deadline_ms`` (or ``request.deadline_ms``) arms a cooperative
        budget over the read's solve/execute work; see :class:`ReadResult`
        for the partial-answer contract.  The budget's clock starts when
        the read *runs*, not while it waits for a pool slot.
        """
        with self._close_lock:
            self._check_open()
            return self._read_pool.submit(self._read, request, deadline_ms)

    def query(
        self, request: QueryRequest, deadline_ms: Optional[float] = None
    ) -> ReadResult:
        """Run a snapshot-isolated read on the calling thread and return it.

        The same read as :meth:`submit_query`, with the same deadline rule,
        minus the pool hand-off.  :meth:`close` waits for it to finish.
        """
        with self._close_lock:
            self._check_open()
            self._blocking_reads += 1
        try:
            return self._read(request, deadline_ms)
        finally:
            with self._close_lock:
                self._blocking_reads -= 1
                if self._closed and not self._blocking_reads:
                    self._close_lock.notify_all()

    def snapshot(self) -> ReadSnapshot:
        """The currently published snapshot (advanced by each write)."""
        return self._snapshot

    def stats(self) -> ServerStats:
        with self._stats_lock:
            counts = dict(self._counts)
        return ServerStats(
            snapshot_id=self._snapshot.snapshot_id,
            queue_depth=self._queue.qsize(),
            read_workers=self.read_workers,
            write_queue_limit=self.write_queue_limit,
            health=self.health(),
            **counts,
        )

    def _read(self, request: QueryRequest, deadline_ms: Optional[float]) -> ReadResult:
        if deadline_ms is None:
            deadline_ms = request.deadline_ms
        budget = Budget.from_deadline_ms(deadline_ms) if deadline_ms is not None else None
        trace = self.obs.tracer.trace("read")
        with trace:
            with trace.span("snapshot_acquire"):
                snapshot = self._snapshot
                if request.view is not None and not isinstance(request.view, str):
                    raise InvalidRequestError(
                        "QServer resolves views by id or name; pass a string reference"
                    )
                request.require_target()
                sv = snapshot.resolve(request)
                if sv is None:
                    # Unknown keywords: view creation is a write.  Route it
                    # through the writer lane, then read against the
                    # post-create snapshot.
                    info = self._ensure_view(request)
                    snapshot = self._snapshot
                    sv = snapshot.resolve(QueryRequest(view=info.view_id))
                    if sv is None:  # pragma: no cover - a concurrent remove raced us
                        raise InvalidRequestError(
                            f"view {info.view_id} vanished before its first read"
                        )
            request.check_k(sv.name, sv.view_id, sv.k)
            if budget is not None:
                # Time spent waiting on the writer lane (view creation) counts
                # against the deadline too.
                budget.check("read")
            answers = snapshot.answers_for(sv, request.tenant, budget=budget)
            degraded = budget is not None and budget.truncated
            with trace.span("paginate"):
                if request.limit is not None:
                    answers = answers[: request.limit]
                page_size = request.page_size_under(self._service.config)
        self._count("reads_served")
        if degraded:
            self._count("reads_degraded")
        read_trace = self.obs.finish_read(
            trace,
            view_id=sv.view_id,
            view_name=sv.name,
            tenant=request.tenant,
            snapshot_id=snapshot.snapshot_id,
            degraded=degraded,
        )
        return ReadResult(
            view_id=sv.view_id,
            view_name=sv.name,
            snapshot_id=snapshot.snapshot_id,
            tenant=request.tenant,
            answers=answers,
            page_size=page_size,
            degraded=degraded,
            trace=read_trace,
        )

    def _ensure_view(self, request: QueryRequest) -> ViewInfo:
        name = request.view_name
        create = QueryRequest(keywords=request.keywords, k=request.k, name=name)

        def fn() -> ViewInfo:
            # Two readers may race to create the same view; the second
            # becomes a cheap no-op in the writer lane.
            if self._service.views.find_by_name(name) is not None:
                return self._service.prepare_view(name)
            return self._service.create_view(create, materialize=False)

        return self._enqueue(fn, "create_view", name).result()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def submit_feedback(
        self, request: FeedbackRequest, tag: Optional[str] = None
    ) -> Future:
        """Queue one feedback application (base weights or tenant overlay)."""

        def fn():
            # Generalization must run against trees solved under the
            # current weights — writer-lane prepare, never a reader's.
            self._service.prepare_view(request.view)
            return self._service.feedback(request)

        return self._enqueue(fn, "feedback", tag)

    def feedback(self, request: FeedbackRequest, tag: Optional[str] = None):
        return self.submit_feedback(request, tag=tag).result()

    def submit_register(
        self, request: RegisterSourceRequest, tag: Optional[str] = None
    ) -> Future:
        """Queue a source registration."""
        return self._enqueue(
            lambda: self._service.register_source(request),
            "register",
            tag if tag is not None else request.source.name,
        )

    def register(self, request: RegisterSourceRequest, tag: Optional[str] = None):
        return self.submit_register(request, tag=tag).result()

    def submit_remove(self, name: str, tag: Optional[str] = None) -> Future:
        """Queue a source removal."""
        return self._enqueue(
            lambda: self._service.remove_source(name),
            "remove",
            tag if tag is not None else name,
        )

    def remove(self, name: str, tag: Optional[str] = None):
        return self.submit_remove(name, tag=tag).result()

    def submit_create_view(
        self, request: QueryRequest, tag: Optional[str] = None
    ) -> Future:
        """Queue explicit view creation (reads auto-create on demand too)."""
        return self._enqueue(
            lambda: self._service.create_view(request, materialize=False),
            "create_view",
            tag if tag is not None else request.view_name,
        )

    def create_view(self, request: QueryRequest, tag: Optional[str] = None) -> ViewInfo:
        return self.submit_create_view(request, tag=tag).result()

    def submit_mutation(
        self,
        fn: Callable[[], object],
        kind: str = "custom",
        tag: Optional[str] = None,
        op_key: Optional[str] = None,
    ) -> Future:
        """Queue an arbitrary mutation of the underlying service.

        ``fn`` runs in the writer lane with full mutation rights; a new
        snapshot publishes after it returns.  This is the extension point
        for administrative operations (and for tests that need to hold the
        writer lane busy).  ``op_key`` overrides the auto-generated
        idempotency key — resubmitting with the same key after an ambiguous
        failure is guaranteed at-most-once application.
        """
        return self._enqueue(fn, kind, tag, op_key=op_key)

    def _enqueue(
        self,
        fn: Callable[[], object],
        kind: str,
        tag: Optional[str],
        op_key: Optional[str] = None,
    ) -> Future:
        self._check_open()
        fault = self._fault
        if fault is not None:
            self._count("writes_rejected")
            raise ServiceUnavailableError(
                f"server is in degraded read-only mode (cause: {fault}); "
                "call recover() before writing"
            )
        if op_key is None:
            op_key = f"{self._op_prefix}-{next(self._op_seq)}"
        op = _WriteOp(fn, kind, tag, op_key)
        op.enqueued_s = self.obs.tracer.clock()
        try:
            with self._close_lock:  # queued ahead of close()'s sentinel, or refused
                self._check_open()
                self._queue.put_nowait(op)
        except queue.Full:
            self._count("writes_rejected")
            raise ServiceOverloadedError(
                pending=self._queue.qsize(), limit=self.write_queue_limit
            ) from None
        self._count("writes_admitted")
        return op.future

    def _writer_loop(self) -> None:
        while True:
            op = self._queue.get()
            if op is _SENTINEL:
                break
            if not op.future.set_running_or_notify_cancel():
                # Its future was cancelled while queued; skip silently.
                self._count("writes_cancelled")
                continue
            fault = self._fault
            if fault is not None:
                # Ops admitted in the race window around a degrade fail
                # fast, exactly like ops that were queued behind the fault.
                self._count("writes_failed")
                op.future.set_exception(
                    ServiceUnavailableError(
                        f"server degraded to read-only after a storage "
                        f"failure: {fault}"
                    )
                )
                continue
            trace = self.obs.tracer.trace("write")
            landed = False
            try:
                with trace:
                    if trace.enabled:
                        trace.record_span(
                            "queue_wait", op.enqueued_s, self.obs.tracer.clock()
                        )
                    with trace.span("apply"):
                        result, save_fault = self._apply_with_retry(op)
                    landed = True
                    self.write_log.append((op.kind, op.tag))
                    self._publish()
                    if save_fault is not None:
                        # Published but not durable: read-only until
                        # recover() saves it.
                        self._save_owed = True
                        self._degrade(save_fault)
                    # Publish-before-complete: once the caller sees the
                    # future resolve, every subsequent read is guaranteed a
                    # snapshot that includes this write.
                    op.future.set_result(result)
            except BaseException as exc:
                # A write that did not land publishes nothing: no snapshot,
                # no log entry.  A failed publish (the pipeline is suspect),
                # a fatal storage failure and an interrupt degrade the
                # server; an interrupt then stops the writer.
                self._count("writes_failed")
                op.future.set_exception(exc)
                interrupt = not isinstance(exc, Exception)
                if landed or interrupt or self._is_fatal_storage_failure(exc):
                    self._degrade(exc)
                if interrupt:
                    raise
            finally:
                self.obs.finish_write(trace, op.kind)

    def _apply_with_retry(self, op: _WriteOp) -> Tuple[object, Optional[BaseException]]:
        """Run one write through :meth:`QService.apply_once`, retrying transient
        storage faults with backoff; a retry after the write landed re-runs
        only its save.

        Returns ``(result, None)``, or, for a write that landed but whose save
        failed past its retries, ``(recorded result, that failure)``.  A write
        that did not land raises: a transient failure as its classification
        (the original on ``__cause__``), failing this op only.
        """
        applied = self._service.applied_ops
        delays = self._retry_policy.delays_s()
        while True:
            try:
                return self._service.apply_once(op.op_key, op.fn), None
            except Exception as exc:
                classified = classify_storage_error(exc)
                transient = is_transient(classified)
                delay = next(delays, None) if transient else None
                if delay is None:
                    failure = classified if transient else exc
                    if op.op_key in applied:
                        return applied[op.op_key], failure
                    if failure is exc:
                        raise
                    raise failure from exc
                self._count("writes_retried")
                active_trace().tally("retry_attempts")
                with active_trace().span("retry_backoff"):
                    self._retry_policy.sleep(delay)

    def _publish(self) -> None:
        trace = active_trace()
        # All structurally stale views re-expand here, in the single writer
        # thread — query-graph expansion seeds new keyword edges' weights on
        # the shared vector, so it must never run on a concurrent reader.
        with trace.span("prepare_views"):
            self._service.prepare_views(structural_only=True)
        self._count("writes_applied")
        with trace.span("snapshot_capture"):
            self._snapshot = ReadSnapshot.capture(
                self._service, len(self.write_log), self._snapshot, self._count
            )
        self._last_publish_monotonic = time.monotonic()
        self._count("snapshots_published")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosedError()

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain pending writes, stop both lanes.  Idempotent.

        Returns only after every admitted read has finished, blocking or
        pooled.  Without ``timeout`` (the default), blocks until every
        admitted write is applied — their futures resolve.
        With a ``timeout`` (seconds), waits at most that long for the
        writer to drain; writes still queued when it elapses fail with
        :class:`~repro.exceptions.ServerClosedError` so no caller blocks
        forever behind a wedged writer.  Returns ``True`` when the writer
        drained cleanly, ``False`` when the timeout elapsed first.  The
        underlying service stays open — closing the session itself remains
        the caller's job.
        """
        with self._close_lock:
            already = self._closed
            self._closed = True
        if already:
            return not self._writer.is_alive()
        if timeout is None:
            # Unbounded close: wait for queue space like the writer's
            # callers do — the writer is draining, so this always lands.
            self._queue.put(_SENTINEL)
        else:
            try:
                self._queue.put(_SENTINEL, timeout=timeout)
            except queue.Full:
                # Queue saturated behind a wedged writer; the drain below
                # fails the queued ops and re-posts the sentinel.
                pass
        self._writer.join(timeout)
        clean = not self._writer.is_alive()
        if not clean:
            failed = self._drain_queue(lambda: ServerClosedError(
                "QServer closed before this write was applied"
            ))
            self._count("writes_failed", failed)
            try:
                self._queue.put_nowait(_SENTINEL)
            except queue.Full:  # pragma: no cover - refilled mid-drain
                pass
        self._read_pool.shutdown(wait=True)
        with self._close_lock:
            self._close_lock.wait_for(lambda: not self._blocking_reads)
        return clean

    def __enter__(self) -> "QServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
