"""The single-writer lane :class:`~repro.service.server.QServer` inherits.

:mod:`repro.service.server` owns the read lane, the typed writes and the
server's counts; this module owns what a write goes through:

* **Admission** refuses a write while the server is closed or degraded,
  and past ``ServiceConfig.write_queue_limit`` queued writes with
  :class:`~repro.exceptions.ServiceOverloadedError`.  Both are checked
  under the close lock and only the writer takes from the queue, so the
  bound is exact, the queue itself is unbounded and ``close()``'s
  sentinel always fits.
* **Apply**: one thread runs each write through
  :meth:`~repro.api.service.QService.apply_once` under an idempotency key,
  inside :meth:`~repro.faults.retry.RetryPolicy.run`.
* **Publish before complete**: a write that landed publishes a fresh
  :class:`~repro.service.snapshots.ReadSnapshot` before its future
  resolves, so every read after that sees it; one that did not land
  publishes nothing.
* **Degrade before complete**: a non-transient storage failure, a failed
  publish, an interrupt, or a landed write whose save fails past its
  retries fails every queued write with
  :class:`~repro.exceptions.ServiceUnavailableError` before the write that
  caused it resolves.  :meth:`WriterMixin.recover` lifts the read-only mode.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from concurrent.futures import Future
from typing import Callable, List, Optional, Tuple

from ..exceptions import (
    InvalidRequestError,
    ServerClosedError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from ..faults.retry import RetryPolicy, is_fatal_storage_failure
from ..obs.tracing import active_trace
from .snapshots import ReadSnapshot

_SENTINEL = object()

#: Server health states (:meth:`WriterMixin.health`): ``healthy`` → writes
#: accepted; ``degraded`` → read-only until :meth:`WriterMixin.recover`;
#: ``closed`` → both lanes stopped.
HEALTHY = "healthy"
DEGRADED = "degraded"
CLOSED = "closed"


class _WriteOp:
    __slots__ = ("fn", "kind", "tag", "op_key", "future", "enqueued_s")

    def __init__(self, fn: Callable[[], object], kind: str, tag: Optional[str], op_key: str,
                 enqueued_s: float) -> None:
        self.fn = fn
        self.kind = kind
        self.tag = tag
        #: The idempotency key :meth:`QService.apply_once` runs the write under.
        self.op_key = op_key
        self.future: Future = Future()
        #: Tracer-clock stamp taken at admission; the writer lane turns it
        #: into the op's ``queue_wait`` span.
        self.enqueued_s = enqueued_s


class WriterMixin:
    """The writer half of :class:`~repro.service.server.QServer`.

    Uses the server's ``_service``, ``obs``, ``_count``, ``_closed``,
    ``_close_lock``, ``_snapshot`` and ``_last_publish_monotonic``.
    """

    def _init_writer(self, retry_policy: Optional[RetryPolicy]) -> None:
        """Set the lane's state; ``self._writer.start()`` starts it."""
        limit = self._service.config.write_queue_limit
        if limit < 1:
            raise InvalidRequestError(f"write_queue_limit must be >= 1, got {limit}")
        self.write_queue_limit = limit
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
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
        self._queue: "queue.Queue" = queue.Queue()
        self._writer = threading.Thread(target=self._writer_loop, name="qserve-writer", daemon=True)

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
        """Revalidate the storage and lift degraded mode.  Returns health.

        Runs :meth:`~repro.api.service.QService.probe_storage`, which saves
        the session when a write landed that could not be saved.  A failing
        probe leaves the server degraded and raises
        :class:`~repro.exceptions.ServiceUnavailableError` carrying the
        probe failure as its cause.
        """
        self._check_open()
        if self._fault is None:
            return HEALTHY
        try:
            self._service.probe_storage(save=self._save_owed)
        except Exception as exc:
            raise ServiceUnavailableError(
                f"recovery probe failed; server stays degraded: {exc}"
            ) from exc
        self._save_owed = False
        self._fault = None
        return HEALTHY

    def _degrade(self, exc: BaseException) -> None:
        """Flip to read-only mode, then fail every write queued before the flip."""
        with self._close_lock:  # the lock that admits writes
            self._fault = exc
        failed = self._drain_queue(
            lambda: ServiceUnavailableError(
                f"server degraded to read-only after a storage failure: {exc}"
            )
        )
        self._count("writes_failed", failed)

    def _drain_queue(self, make_error: Callable[[], BaseException]) -> int:
        """Fail every op still queued; returns how many were failed.

        Runs on the writer thread itself (degrade) or once ``close()`` has
        given up on a wedged writer.  A sentinel met while draining goes
        back on the queue, so a writer that is still alive exits.
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
            elif op.future.set_running_or_notify_cancel():
                op.future.set_exception(make_error())
                failed += 1
            else:
                self._count("writes_cancelled")
        if sentinel_seen:
            self._queue.put(_SENTINEL)
        return failed

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
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
        if op_key is None:
            op_key = f"{self._op_prefix}-{next(self._op_seq)}"
        op = _WriteOp(fn, kind, tag, op_key, self.obs.tracer.clock())
        with self._close_lock:  # queued ahead of close()'s sentinel and a degrade's drain, or refused
            self._check_open()
            if self._fault is not None:
                self._count("writes_rejected")
                raise ServiceUnavailableError(
                    f"server is in degraded read-only mode (cause: {self._fault}); "
                    "call recover() before writing"
                )
            pending = self._queue.qsize()
            if pending >= self.write_queue_limit:
                self._count("writes_rejected")
                raise ServiceOverloadedError(pending=pending, limit=self.write_queue_limit)
            self._queue.put(op)
        self._count("writes_admitted")
        return op.future

    # ------------------------------------------------------------------
    # The writer thread
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            op = self._queue.get()
            if op is _SENTINEL:
                break
            if not op.future.set_running_or_notify_cancel():
                # Its future was cancelled while queued; skip silently.
                self._count("writes_cancelled")
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
                        result, save_fault = self._apply(op)
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
                # server before the future resolves, as a publish does; an
                # interrupt then stops the writer.
                self._count("writes_failed")
                interrupt = not isinstance(exc, Exception)
                if landed or interrupt or is_fatal_storage_failure(exc):
                    self._degrade(exc)
                op.future.set_exception(exc)
                if interrupt:
                    raise
            finally:
                self.obs.finish_write(trace, op.kind)

    def _apply(self, op: _WriteOp) -> Tuple[object, Optional[BaseException]]:
        """Run one write through :meth:`QService.apply_once` under the retry policy.

        Returns ``(result, None)``, or, for a write that landed but whose save
        failed past its retries, ``(recorded result, that failure)``.  A write
        that did not land raises what :meth:`RetryPolicy.run` raised.
        """
        try:
            return self._retry_policy.run(
                lambda: self._service.apply_once(op.op_key, op.fn),
                on_retry=lambda _failure, _attempt: self._count("writes_retried"),
            ), None
        except Exception as failure:
            if op.op_key not in self._service.applied_ops:
                raise
            return self._service.applied_ops[op.op_key], failure

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

    def _stop_writer(self, timeout: Optional[float]) -> bool:
        """The writer half of ``close()``, called once ``_closed`` is set.

        Queues the sentinel behind every admitted write and waits up to
        ``timeout`` seconds for the writer to reach it.  If the writer is
        still busy then, every write still queued fails with
        :class:`~repro.exceptions.ServerClosedError`.  Returns whether the
        writer exited.
        """
        self._queue.put(_SENTINEL)
        self._writer.join(timeout)
        if not self._writer.is_alive():
            return True
        failed = self._drain_queue(lambda: ServerClosedError(
            "QServer closed before this write was applied"
        ))
        self._count("writes_failed", failed)
        return False
