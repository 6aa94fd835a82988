"""Concurrent multi-tenant serving front end over one :class:`QService`.

:class:`QServer` splits the service's traffic into two lanes.  This module
owns the read lane, the typed writes and the server's counts;
:mod:`repro.service.writer` owns the writer lane, which ``QServer``
inherits.

* **Reads** — queries, answer streams, stats — run concurrently: a blocking
  :meth:`QServer.query` on the thread that asks, :meth:`QServer.submit_query`
  on a thread pool.  Each read grabs the current
  :class:`~repro.service.snapshots.ReadSnapshot` reference once and answers
  entirely against it, so reads never block on writes, never observe a
  half-applied mutation, and two reads of the same (view, tenant) on one
  snapshot share a single solve.
* **Writes** — feedback, source registration/removal, view creation — are
  serialized through the writer lane's one queue, bounded by
  ``ServiceConfig.write_queue_limit``; readers never enter it.

Failure model (see README "Failure model")
------------------------------------------
* **Storage faults** are the writer lane's: see :mod:`repro.service.writer`.
* **Deadlines** — a read carrying ``deadline_ms`` polls a cooperative
  :class:`~repro.faults.budget.Budget` through solve and execution; expiry
  yields :class:`~repro.exceptions.DeadlineExceededError`, or a partial
  :class:`ReadResult` flagged ``degraded=True`` once answers exist.
* **Shutdown** — :meth:`QServer.close` waits for every read it admitted,
  on either entry point, and at most its ``timeout`` for the writer;
  writes still queued when that elapses fail with
  :class:`~repro.exceptions.ServerClosedError` instead of blocking the
  caller forever.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..datastore.provenance import AnswerTuple
from ..exceptions import InvalidRequestError
from ..api.streaming import paginate
from ..api.types import (
    AnswerPage,
    FeedbackRequest,
    QueryRequest,
    RegisterSourceRequest,
    ViewInfo,
)
from ..faults.budget import Budget
from ..faults.retry import RetryPolicy
from ..obs.tracing import ReadTrace
from .snapshots import ReadSnapshot
from .writer import CLOSED, DEGRADED, HEALTHY, WriterMixin


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


class QServer(WriterMixin):
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
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._service = service
        if read_workers < 0:
            raise InvalidRequestError(f"read_workers must be >= 0, got {read_workers}")
        workers = read_workers or os.cpu_count() or 1
        self.read_workers = workers
        self._init_writer(retry_policy)
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
        self._closed = False
        #: Admits work against ``_closed``; ``close()`` waits on it until no
        #: blocking read is in flight.
        self._close_lock = threading.Condition(threading.Lock())
        self._blocking_reads = 0
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain pending writes, stop both lanes.  Idempotent.

        Returns only after every admitted read has finished, blocking or
        pooled.  Without ``timeout`` (the default), blocks until every
        admitted write is applied — their futures resolve.
        With a ``timeout`` (seconds), waits at most that long for the
        writer (the reads it waits for are not bounded by it); writes
        still queued when it elapses fail with
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
        clean = self._stop_writer(timeout)
        self._read_pool.shutdown(wait=True)
        with self._close_lock:
            self._close_lock.wait_for(lambda: not self._blocking_reads)
        return clean

    def __enter__(self) -> "QServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
