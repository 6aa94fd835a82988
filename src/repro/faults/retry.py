"""Storage-fault classification and exponential-backoff retry.

The writer lane of :class:`~repro.service.server.QServer` runs every
mutation through :meth:`RetryPolicy.run`: failures classified as
*transient* — SQLite ``locked`` / ``busy`` contention, or a
:class:`~repro.exceptions.TransientStorageError` injected by the fault
harness — are retried with exponential backoff plus jitter; everything else
propagates on the first attempt, and :func:`is_fatal_storage_failure` says
which of those degrade the server.  Both the sleep function and the RNG are
injectable so tests and the chaos bench run deterministically without real
delays.
"""

from __future__ import annotations

import itertools
import random
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, TypeVar

from ..exceptions import ReproError, SnapshotError, StorageError, TransientStorageError
from ..obs.tracing import active_trace

T = TypeVar("T")

#: ``sqlite3.OperationalError`` message fragments that signal lock
#: contention rather than a real storage fault.  SQLite's own retry advice
#: applies: back off and reissue.
_SQLITE_TRANSIENT_MARKERS = ("database is locked", "database table is locked", "busy")


def classify_storage_error(exc: BaseException) -> BaseException:
    """Wrap recognizably transient failures in :class:`TransientStorageError`.

    Returns the exception to raise/propagate: a ``TransientStorageError``
    (with the original on ``__cause__``) when the failure is transient, the
    original exception object otherwise.  The check walks the cause chain so
    backend wrappers that re-raise ``StorageError from sqlite_error`` are
    still recognized.
    """
    if isinstance(exc, TransientStorageError):
        return exc
    seen = set()
    cause: Optional[BaseException] = exc
    while cause is not None and id(cause) not in seen:
        seen.add(id(cause))
        if isinstance(cause, sqlite3.OperationalError):
            message = str(cause).lower()
            if any(marker in message for marker in _SQLITE_TRANSIENT_MARKERS):
                wrapped = TransientStorageError(str(exc))
                wrapped.__cause__ = exc
                return wrapped
        cause = cause.__cause__ if cause.__cause__ is not None else cause.__context__
    return exc


def is_transient(exc: BaseException) -> bool:
    """Whether the (classified) failure warrants an identical retry."""
    classified = classify_storage_error(exc)
    if isinstance(classified, TransientStorageError):
        return True
    return isinstance(classified, ReproError) and classified.retryable


def is_fatal_storage_failure(exc: BaseException) -> bool:
    """Whether the failure is a non-transient storage/persistence fault.

    Such a fault degrades the server.  Plain operational errors (a
    malformed request surfacing late, a matcher bug) fail only their own
    write: the service state is still trustworthy.
    """
    classified = classify_storage_error(exc)
    return isinstance(classified, (StorageError, SnapshotError)) and not is_transient(classified)


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter over a bounded attempt count.

    ``max_attempts`` counts every try including the first, so ``1`` means
    "no retries".  Delay before retry *n* (1-based) is
    ``min(max_delay_s, base_delay_s * multiplier**(n-1))`` scaled by a
    jitter factor drawn uniformly from ``[1 - jitter, 1]``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    max_delay_s: float = 0.1
    multiplier: float = 2.0
    jitter: float = 0.5
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays_s(self) -> Iterator[float]:
        """The jittered sleep before each retry (``max_attempts - 1`` values)."""
        for attempt in range(self.max_attempts - 1):
            raw = min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)
            yield raw * (1.0 - self.jitter * self.rng.random())

    def run(
        self,
        fn: Callable[[], T],
        on_retry: Optional[Callable[[BaseException, int], None]] = None,
    ) -> T:
        """Call ``fn`` until it succeeds, a non-transient error escapes, or
        attempts are exhausted (the last transient error then propagates,
        classified).

        Each retry calls ``on_retry(classified failure, attempt)``, tallies
        ``retry_attempts`` on the active trace and sleeps under its
        ``retry_backoff`` span.
        """
        delays = self.delays_s()
        for attempt in itertools.count(1):
            try:
                return fn()
            except Exception as exc:
                classified = classify_storage_error(exc)
                delay = next(delays, None) if is_transient(classified) else None
                if delay is None:
                    if classified is exc:
                        raise
                    raise classified from exc
                if on_retry is not None:
                    on_retry(classified, attempt)
                trace = active_trace()
                trace.tally("retry_attempts")
                with trace.span("retry_backoff"):
                    self.sleep(delay)
