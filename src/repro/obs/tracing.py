"""Lightweight request tracing: span trees with an injectable clock.

The span API is built for a hot serving path that is usually *not* being
traced:

* When tracing is disabled, :meth:`Tracer.trace` returns the process-wide
  :data:`NOOP_TRACE` singleton whose every method is a no-op — entering it
  activates nothing and allocates nothing.
* Inner layers (the ranked view, the executor, the snapshot materializer,
  the service's autosave hook) never take a trace parameter.  They call
  :func:`active_trace`, which reads a ``threading.local`` slot the lane
  entry points (:meth:`QServer._read`, the writer loop,
  :meth:`QService.answers_page`) populate; with no active trace it returns
  :data:`NOOP_TRACE`, so the instrumentation costs one thread-local read.

A :class:`Trace` owns one :class:`Span` tree plus a flat ``annotations``
dict the explain layer reads: the serving path (``"path"``), the concrete
pushdown fallback reason (``"fallback_reason"``) and per-query tallies
(``"queries_pushdown"`` etc.).  ``annotate_once`` has first-writer-wins
semantics, so a read explains the first query the Python engine ran.

Clocks are injectable (``Tracer(clock=...)``) and default to
:func:`time.perf_counter`; tests drive a deterministic counting clock and
assert exact span nesting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_ACTIVE = threading.local()


def active_trace() -> "Trace":
    """The trace activated on this thread, or the no-op singleton."""
    trace = getattr(_ACTIVE, "trace", None)
    return trace if trace is not None else NOOP_TRACE


class Span:
    """One timed operation; children are the operations it contained.

    ``gc_s`` tallies the collector seconds that landed while this span was
    the innermost open one on the collecting thread: self time net of the
    collector is ``duration`` less the children's less ``gc_s``.
    """

    __slots__ = ("name", "start", "end", "children", "gc_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: float = start
        self.children: List["Span"] = []
        self.gc_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0, unit: str = "s") -> str:
        """The span tree as an indented text block (debugging / slow log)."""
        lines = [f"{'  ' * indent}{self.name}: {self.duration:.6f}{unit}"]
        for child in self.children:
            lines.append(child.render(indent + 1, unit=unit))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, children={len(self.children)})"


class _ActiveSpan:
    """Context manager opening one child span on a live trace."""

    __slots__ = ("_trace", "_name", "span")

    def __init__(self, trace: "Trace", name: str) -> None:
        self._trace = trace
        self._name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        trace = self._trace
        span = Span(self._name, trace.clock())
        trace._stack[-1].children.append(span)
        trace._stack.append(span)
        self.span = span
        return span

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        span = self._trace._stack.pop()
        span.end = self._trace.clock()


class Trace:
    """One request's span tree + annotations.  Activates via ``with``."""

    __slots__ = ("root", "clock", "annotations", "_stack", "_prev", "tracer")

    #: A real trace (the no-op twin overrides this).
    enabled = True

    def __init__(self, name: str, clock: Callable[[], float], tracer: Optional["Tracer"] = None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.root = Span(name, clock())
        self.annotations: Dict[str, object] = {}
        self._stack: List[Span] = [self.root]
        self._prev: Optional[Trace] = None

    # -- activation ----------------------------------------------------
    def __enter__(self) -> "Trace":
        self._prev = getattr(_ACTIVE, "trace", None)
        _ACTIVE.trace = self
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.root.end = self.clock()
        _ACTIVE.trace = self._prev

    # -- span API ------------------------------------------------------
    def span(self, name: str) -> _ActiveSpan:
        """Open a child span of the innermost open span."""
        return _ActiveSpan(self, name)

    def record_span(self, name: str, start: float, end: float) -> None:
        """Attach an already-timed interval (e.g. writer queue wait)."""
        span = Span(name, start)
        span.end = end
        self._stack[-1].children.append(span)

    # -- annotations ---------------------------------------------------
    def annotate(self, key: str, value: object) -> None:
        self.annotations[key] = value

    def annotate_once(self, key: str, value: object) -> None:
        """Set ``key`` only if unset — the first (most fundamental) fact wins."""
        self.annotations.setdefault(key, value)

    def tally(self, key: str, amount: int = 1) -> None:
        """Increment an integer annotation (per-query path counters)."""
        self.annotations[key] = int(self.annotations.get(key, 0)) + amount


class _NoopSpanCtx:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpanCtx":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        pass


_NOOP_SPAN_CTX = _NoopSpanCtx()


class _NoopTrace:
    """Zero-allocation stand-in when tracing is disabled or inactive."""

    __slots__ = ()

    enabled = False
    tracer = None
    annotations: Dict[str, object] = {}

    def __enter__(self) -> "_NoopTrace":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        pass

    def span(self, name: str) -> _NoopSpanCtx:
        return _NOOP_SPAN_CTX

    def record_span(self, name: str, start: float, end: float) -> None:
        pass

    def annotate(self, key: str, value: object) -> None:
        pass

    def annotate_once(self, key: str, value: object) -> None:
        pass

    def tally(self, key: str, amount: int = 1) -> None:
        pass


NOOP_TRACE = _NoopTrace()


class Tracer:
    """Creates traces — or hands out the no-op singleton when disabled."""

    __slots__ = ("enabled", "clock")

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.enabled = enabled
        self.clock = clock

    def trace(self, name: str):
        if not self.enabled:
            return NOOP_TRACE
        return Trace(name, self.clock, self)


@dataclass(frozen=True)
class ReadTrace:
    """The timing breakdown a :class:`~repro.service.server.ReadResult` carries.

    ``path`` names which machinery executed the ranked read's queries —
    ``"posting-join"`` (whole-query SQL pushdown over the backend-resident
    tables), ``"python-union"`` (the Python join engine), ``"mixed"``
    (queries split across pushdown and Python), ``"cached"`` (served from
    a pinned materialization or the per-signature answer cache) or
    ``"shared"`` (a concurrent reader materialized it); the ranked union
    over their answers is Python on every path.  ``fallback_reason`` is
    the concrete condition
    :meth:`~repro.engine.context.ExecutionContext.choose_target` ruled SQL
    out on for the first query the Python engine ran ("backend has no SQL
    pushdown", "deadline-budgeted read…", "relation(s) not stored on the
    SQL backend…", …) — empty when every executed query ran as SQL.
    """

    root: Span
    path: str
    fallback_reason: str = ""

    @property
    def duration(self) -> float:
        return self.root.duration

    def stages(self) -> Dict[str, float]:
        """Total duration per span name across the whole tree (seconds)."""
        totals: Dict[str, float] = {}
        for span in self.root.walk():
            if span is self.root:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def render(self) -> str:
        header = f"path={self.path}"
        if self.fallback_reason:
            header += f" (fallback: {self.fallback_reason})"
        return header + "\n" + self.root.render()


def well_nested(span: Span) -> bool:
    """Whether a span tree is temporally consistent (test helper).

    Every child interval must lie within its parent and siblings must be
    ordered without overlap — exactly what single-threaded span open/close
    on one trace guarantees.
    """
    cursor = span.start
    for child in span.children:
        if child.start < cursor or child.end > span.end or child.end < child.start:
            return False
        if not well_nested(child):
            return False
        cursor = child.end
    return span.end >= span.start


def derive_path(annotations: Dict[str, object]) -> Tuple[str, str]:
    """(path, fallback reason) from a finished trace's annotations.

    The snapshot layer's cached/shared shortcuts annotate ``"path"``
    explicitly; otherwise the executor's per-query tallies decide between
    the whole-query pushdown ("posting-join"), the Python engine
    ("python-union"), a mix, or an all-cache replay.
    """
    reason = str(annotations.get("fallback_reason", ""))
    path = annotations.get("path")
    if path is None:
        pushed = int(annotations.get("queries_pushdown", 0))
        python = int(annotations.get("queries_python", 0))
        if pushed and python:
            path = "mixed"
        elif pushed:
            path = "posting-join"
        elif python:
            path = "python-union"
        else:
            path = "cached"
    return str(path), reason
