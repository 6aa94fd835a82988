"""Explain and slow-query logs: why a read was served the way it was.

Every ranked read finishing under an enabled observability layer appends a
:class:`DecisionRecord` to the bounded :class:`DecisionLog`: which path
served it (posting-join pushdown / Python union / cache) and — for queries
the Python engine ran — the concrete reason the executor's capability check
ruled SQL out, recorded at the decision point, not a reconstruction.  Reads
slower than ``ServiceConfig.slow_query_ms`` additionally land in the
:class:`SlowQueryLog` with their full span tree, so "where did my latency
go" is answerable after the fact without re-running the query.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from .tracing import ReadTrace


@dataclass(frozen=True)
class DecisionRecord:
    """One ranked read's serving decision."""

    view_id: str
    view_name: str
    tenant: Optional[str]
    snapshot_id: Optional[int]
    #: ``posting-join`` / ``python-union`` / ``mixed`` / ``cached`` /
    #: ``shared`` — see :class:`~repro.obs.tracing.ReadTrace`.
    path: str
    #: Why the first query the Python engine ran could not run as SQL;
    #: empty when every executed query did.
    fallback_reason: str = ""
    duration_s: float = 0.0
    degraded: bool = False
    #: Per-query tallies copied off the trace (``queries_pushdown``,
    #: ``queries_python``, ``queries_cached``, and the ``steiner_*`` solver
    #: counters of a read that had to solve).
    tallies: Dict[str, int] = field(default_factory=dict)

    @property
    def ranking(self) -> str:
        """Where the read's k best trees came from.

        ``"solved"``: an enumeration ran; ``"recalled"``: the session had
        already ranked this priced network (``steiner_recalls`` is 1, every
        other solver tally 0); ``"current"``: the solver was never asked (the
        view's own ranking was current, or the answers were pinned).
        """
        if self.tallies.get("steiner_base_solves"):
            return "solved"
        return "recalled" if self.tallies.get("steiner_recalls") else "current"

    def render(self) -> str:
        line = (
            f"view={self.view_name!r} tenant={self.tenant} path={self.path} "
            f"ranking={self.ranking} duration={self.duration_s:.6f}s"
        )
        if self.fallback_reason:
            line += f" fallback_reason={self.fallback_reason!r}"
        if self.degraded:
            line += " degraded"
        return line


@dataclass(frozen=True)
class SlowQueryRecord:
    """A slow read: its decision plus the full span tree."""

    decision: DecisionRecord
    trace: ReadTrace

    def render(self) -> str:
        return self.decision.render() + "\n" + self.trace.render()


class DecisionLog:
    """Bounded ring of the most recent serving decisions."""

    def __init__(self, maxlen: int = 256) -> None:
        self._lock = threading.Lock()
        self._records: Deque[DecisionRecord] = deque(maxlen=max(int(maxlen), 1))

    @property
    def maxlen(self) -> int:
        """How many records the ring retains (oldest fall off)."""
        return self._records.maxlen

    def append(self, record: DecisionRecord) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> List[DecisionRecord]:
        with self._lock:
            return list(self._records)

    def last(self) -> Optional[DecisionRecord]:
        with self._lock:
            return self._records[-1] if self._records else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class SlowQueryLog:
    """Bounded ring of reads that exceeded the slow-query threshold."""

    def __init__(self, maxlen: int = 64, threshold_s: float = 0.25) -> None:
        self._lock = threading.Lock()
        self._records: Deque[SlowQueryRecord] = deque(maxlen=max(int(maxlen), 1))
        self.threshold_s = threshold_s

    def offer(self, decision: DecisionRecord, trace: ReadTrace) -> bool:
        """Record the read iff it crossed the threshold; returns whether."""
        if trace.duration < self.threshold_s:
            return False
        with self._lock:
            self._records.append(SlowQueryRecord(decision=decision, trace=trace))
        return True

    def records(self) -> List[SlowQueryRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
