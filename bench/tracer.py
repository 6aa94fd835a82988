"""Outside-in layer tracing for the loop benchmark.

The benchmark attributes a run's wall time to the repo's layers without
touching ``src/``: :class:`Tracer` replaces each layer's public entry point
(named in :data:`POINTS`) with a wrapper that records one span per call —
``(name, layer, start, end, parent)`` — in memory, and :func:`fold` turns
the spans into *self time* per point and per layer when the run ends (a
span's duration minus the part its direct children cover).

Points are resolved by dotted name when :meth:`Tracer.install` runs, so a
refactor that removes or renames one degrades to a ``missing`` entry in the
report instead of a crash.  Module-level functions are re-bound in every
``repro.*`` module that imported them by name, otherwise the call sites that
did ``from .base import install_associations`` would bypass the wrapper.

A wrapped call that returns a lazy iterator (``QService.stream_answers``,
``RankedView.stream_answers`` and ``QService.answers`` all do) keeps its
span open until the iterator is exhausted or closed: the query execution a
stream defers happens while the consumer drains it, and the benchmark
always drains a stream in one go before its next call.
"""

from __future__ import annotations

import collections.abc
import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: ``(metric prefix, dotted target, count result length)``.  The prefix is
#: ``<layer>.<point>``; the target is ``<module>:<attribute path>``.  Points
#: flagged ``True`` also accumulate ``len(result)`` per call (trees per
#: solve, answers per execute).  Nothing per-edge or per-row is listed: a
#: point that exceeds 100k calls in a run costs more to trace than the
#: trace is worth (see README "Trace budget").
POINTS: Tuple[Tuple[str, str, bool], ...] = (
    ("api.create_view", "repro.api.service:QService.create_view", False),
    ("api.stream_answers", "repro.api.service:QService.stream_answers", False),
    ("api.answers", "repro.api.service:QService.answers", False),
    ("api.feedback", "repro.api.service:QService.feedback", False),
    ("api.register_source", "repro.api.service:QService.register_source", False),
    ("api.remove_source", "repro.api.service:QService.remove_source", False),
    ("api.save", "repro.api.service:QService.save", False),
    ("api.open", "repro.api.service:QService.open", False),
    ("api.close", "repro.api.service:QService.close", False),
    ("service.query", "repro.service.server:QServer.query", False),
    ("service.snapshot_capture", "repro.service.snapshots:ReadSnapshot.capture", False),
    ("service.answers_for", "repro.service.snapshots:ReadSnapshot.answers_for", False),
    ("service.submit_mutation", "repro.service.server:QServer.submit_mutation", False),
    ("core.prepare", "repro.core.view:RankedView.prepare", False),
    ("core.view_stream_answers", "repro.core.view:RankedView.stream_answers", False),
    ("core.answers_page", "repro.core.view:RankedView.answers_page", False),
    ("core.generate_all", "repro.core.query_generation:QueryGenerator.generate_all", False),
    ("graph.expand", "repro.graph.query_graph:QueryGraphBuilder.expand", False),
    ("graph.builder_add_source", "repro.graph.query_graph:QueryGraphBuilder.add_source", False),
    ("steiner.solve", "repro.steiner.topk:KBestSteiner.solve", True),
    ("steiner.default_tree", "repro.steiner.network:SteinerNetwork.default_tree", False),
    ("steiner.exact_tree", "repro.steiner.network:SteinerNetwork.exact_tree", False),
    ("steiner.approximate_tree", "repro.steiner.network:SteinerNetwork.approximate_tree", False),
    ("steiner.rescored", "repro.steiner.network:SteinerNetwork.rescored", False),
    ("engine.execute", "repro.engine.executor:PlanExecutor.execute", True),
    ("engine.ranked_union", "repro.engine.executor:ranked_union", False),
    ("storage.union_pushdown", "repro.storage.windowed:WindowedUnionPushdown.fetch_raw", False),
    ("storage.ranked_pushdown", "repro.storage.windowed:WindowedUnionPushdown.execute_ranked", False),
    ("storage.query_pushdown", "repro.storage.pushdown:SqlPushdown.execute", False),
    ("storage.posting_sync", "repro.storage.postings:PostingStore.sync", False),
    ("profiling.index_source", "repro.profiling.index:CatalogProfileIndex.index_source", False),
    ("profiling.candidate_pairs", "repro.profiling.index:CatalogProfileIndex.candidate_pairs", False),
    ("profiling.tiered_candidates", "repro.profiling.index:CatalogProfileIndex.tiered_candidates", False),
    ("profiling.remove_source", "repro.profiling.index:CatalogProfileIndex.remove_source", False),
    ("matching.match_relations", "repro.matching.ensemble:MatcherEnsemble.match_relations", False),
    ("matching.match_tables", "repro.matching.ensemble:MatcherEnsemble.match_tables", False),
    # Registration scores its pairs through this pool helper, not the ensemble.
    ("matching.score_pairs", "repro.alignment.parallel:score_pairs", False),
    ("alignment.register", "repro.alignment.registration:SourceRegistrar.register", False),
    ("alignment.align", "repro.alignment.base:BaseAligner.align", False),
    ("alignment.install_associations", "repro.alignment.base:install_associations", False),
    ("learning.process", "repro.learning.mira:OnlineLearner.process", False),
    ("learning.generalize", "repro.learning.feedback:FeedbackGeneralizer.generalize", False),
    ("learning.hildreth_solve", "repro.learning.mira:hildreth_solve", False),
    ("persist.session_save", "repro.persist.session:SessionPersistence.save", False),
    ("persist.restore_core", "repro.persist.session:restore_core", False),
    ("persist.build_delta", "repro.persist.journal:build_delta", False),
)


class Span(NamedTuple):
    """One closed span.  ``parent`` indexes the span list it sits in (-1 =
    root); ``size`` is ``len(result)`` for the points flagged to count it."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    size: int = 0


class _Patch(NamedTuple):
    owner: object
    attribute: str
    original: object


class _ThreadLog:
    """One thread's spans (in open order) and its stack of open ones."""

    __slots__ = ("spans", "stack")

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Points whose dotted name no longer resolves.
        self.missing: List[str] = []
        # Each thread appends to its own log, so recording takes no lock.
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patches: List[_Patch] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def open(self, name: str) -> Tuple[_ThreadLog, str, int, int, float]:
        """Open a span under the calling thread's innermost open span."""
        log = self._log()
        parent = log.stack[-1] if log.stack else -1
        index = len(log.spans)
        log.spans.append(None)
        log.stack.append(index)
        return log, name, index, parent, self.clock()

    def close(self, token: Tuple[_ThreadLog, str, int, int, float], size: int = 0) -> None:
        end = self.clock()
        log, name, index, parent, start = token
        if log.stack and log.stack[-1] == index:
            log.stack.pop()
        elif index in log.stack:  # an abandoned stream closed out of order
            log.stack.remove(index)
        log.spans[index] = Span(name, name.split(".", 1)[0], start, end, parent, size)

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span around the benchmark's own code."""
        return _SpanContext(self, name)

    def _drain(self, token, iterator: Iterator) -> Iterator:
        try:
            yield from iterator
        finally:
            self.close(token)

    def wrap(self, name: str, fn: Callable, count_result: bool = False) -> Callable:
        """``fn`` wrapped to record one span (and optionally a result size) per call."""
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(token)
                raise
            if isinstance(result, collections.abc.Iterator):
                return tracer._drain(token, result)
            tracer.close(token, len(result) if count_result else 0)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self, points: Iterable[Tuple[str, str, bool]] = POINTS) -> None:
        for name, target, count_result in points:
            try:
                owner, attribute, raw = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self.wrap(name, raw.__func__, count_result))
            else:
                wrapped = self.wrap(name, raw, count_result)
            self._patch(owner, attribute, raw, wrapped)
            if not isinstance(owner, type):
                # A module-level function: re-bind the modules that imported
                # it by name, or their call sites would stay untraced.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, alias, raw, wrapped)

    def _patch(self, owner: object, attribute: str, original: object, wrapped: object) -> None:
        self._patches.append(_Patch(owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original object back (latest patch first)."""
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attribute, patch.original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def closed_spans(self) -> List[Span]:
        """Every thread's closed spans in one list, parents re-indexed into it.

        A parent always precedes its children; a child whose parent never
        closed (a stream the consumer abandoned) becomes a root.
        """
        with self._logs_lock:
            logs = list(self._logs)
        closed: List[Span] = []
        for log in logs:
            remap: Dict[int, int] = {}
            for index, span in enumerate(list(log.spans)):
                if span is None:
                    continue
                remap[index] = len(closed)
                closed.append(span._replace(parent=remap.get(span.parent, -1)))
        return closed

    def total(self, name: str) -> float:
        """Summed duration of the ``name`` spans closed so far."""
        return sum(s.end - s.start for s in self.closed_spans() if s.name == name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._token = self._tracer.open(self._name)

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._token)


def _resolve(target: str) -> Tuple[object, str, object]:
    """``"pkg.module:Class.attr"`` -> ``(owner, attribute name, raw attribute)``.

    For a class attribute the owner is the class of the MRO that *defines*
    it and the raw attribute is the stored object (a ``classmethod`` stays a
    ``classmethod``), so uninstalling puts back exactly what was there.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return klass, attribute, vars(klass)[attribute]
        raise AttributeError(f"{target}: no such attribute")
    return owner, attribute, getattr(owner, attribute)


# ----------------------------------------------------------------------
# Folding spans into per-point and per-layer numbers
# ----------------------------------------------------------------------
def fold(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Self time and call count per span name and per layer.

    A span's self time is its duration minus the durations of its direct
    children, so nested spans of one layer never count an interval twice.
    Returns ``{"points": {name: {"self_s", "calls"}}, "layers": {layer:
    {"self_s", "calls"}}}``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    points: Dict[str, Dict[str, float]] = {}
    layers: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        self_s = (span.end - span.start) - child_time[index]
        for table, key in ((points, span.name), (layers, span.layer)):
            entry = table.setdefault(key, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["calls"] += 1
    return {"points": points, "layers": layers}


def covered_seconds(spans: List[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` during which at least one span was open.

    Root spans of every thread are merged, so a concurrent run counts an
    instant as attributed when *any* thread was inside a wrapped call.
    """
    intervals = sorted(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent < 0 and span.end > start and span.start < end
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        if hi > cursor:
            covered += hi - max(lo, cursor)
            cursor = hi
    return covered
