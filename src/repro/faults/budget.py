"""Cooperative deadline budgets for the read path.

A :class:`Budget` is the single object a deadline-bearing request threads
through the layers that do real work — the k-best Steiner enumerator, the
Dreyfus–Wagner DP / Dijkstra inner loops, and the executor's per-query
loop.  Those layers *poll* the budget at their natural branch points; there
is no preemption and no extra thread.  Two outcomes are possible:

* the budget expires before any ranked answer exists →
  :class:`~repro.exceptions.DeadlineExceededError` (typed, carries elapsed
  time);
* the budget expires after partial work produced usable results → the layer
  stops early and calls :meth:`Budget.mark_truncated`; the serving layer
  surfaces the partial result flagged ``degraded=True``.

The clock is injectable so deterministic tests can drive expiry without
real sleeps: pass any zero-argument callable returning seconds.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..exceptions import DeadlineExceededError

#: How many :meth:`Budget.tick` calls go by between clock reads.  Inner
#: loops (Dijkstra pops, DP merges) tick per iteration; reading a monotonic
#: clock every 64th call keeps the overhead unmeasurable while bounding the
#: detection latency to a few microseconds of loop work.
TICK_STRIDE = 64


class Budget:
    """A cooperative deadline, polled at branch points of the read path."""

    __slots__ = ("deadline_s", "clock", "_start", "_ticks", "truncated", "where")

    def __init__(
        self,
        deadline_s: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if deadline_s < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline_s}")
        self.deadline_s = deadline_s
        self.clock = clock if clock is not None else time.monotonic
        self._start = self.clock()
        self._ticks = 0
        #: Set once any layer stopped early with partial results; the
        #: serving layer maps this onto ``ReadResult.degraded``.
        self.truncated = False
        #: Last layer that observed expiry (diagnostic, rides into the
        #: typed error's message).
        self.where = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_deadline_ms(
        cls, deadline_ms: float, clock: Optional[Callable[[], float]] = None
    ) -> "Budget":
        return cls(deadline_ms / 1000.0, clock=clock)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def deadline_ms(self) -> float:
        return self.deadline_s * 1000.0

    def elapsed_ms(self) -> float:
        return (self.clock() - self._start) * 1000.0

    def expired(self) -> bool:
        """Read the clock now; ``True`` once the deadline has passed."""
        return (self.clock() - self._start) >= self.deadline_s

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------
    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the deadline has passed.

        Used at coarse branch points (per Steiner expansion, per DP subset,
        per executed query) where a clock read per call is negligible.
        """
        if self.expired():
            self.where = where or self.where
            raise DeadlineExceededError(self.deadline_ms, self.elapsed_ms(), where)

    def tick(self, where: str = "") -> None:
        """Cheap per-iteration poll: reads the clock every ``TICK_STRIDE`` calls.

        For tight inner loops (Dijkstra pops) where even a monotonic clock
        read per iteration would be measurable.
        """
        self._ticks += 1
        if self._ticks % TICK_STRIDE == 0:
            self.check(where)

    def mark_truncated(self, where: str = "") -> None:
        """Record that a layer stopped early, keeping partial results."""
        self.truncated = True
        if where:
            self.where = where

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Budget(deadline_ms={self.deadline_ms:g}, "
            f"elapsed_ms={self.elapsed_ms():.3f}, truncated={self.truncated})"
        )
