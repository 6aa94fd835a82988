"""repro.obs — tracing, metrics and explain for the serving stack.

One :class:`Observability` object per session bundles the four pieces the
README "Observability" section documents:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  latency histograms with Prometheus-text and JSON exposition
  (``QServer.metrics()`` / ``QService.metrics()``).  The scattered
  pre-registry counters (``ExecutionContext`` pushdown statistics, Steiner
  cache totals, posting builds, retry/degraded counts) are re-homed
  here as callback gauges, and ``SystemStats`` is assembled as a view over
  the registry.
* :class:`~repro.obs.tracing.Tracer` — the span API threaded through the
  read lane (snapshot acquire → materialize → solve → execute →
  paginate) and the writer lane (queue wait → apply →
  prepare_views → publish → autosave).  Disabled tracing is a zero-alloc
  no-op (:data:`~repro.obs.tracing.NOOP_TRACE`).
* :class:`~repro.obs.explain.DecisionLog` — every ranked read's serving
  path and, for queries the Python engine ran, the concrete reason SQL
  was ruled out.
* :class:`~repro.obs.explain.SlowQueryLog` — reads slower than
  ``ServiceConfig.slow_query_ms``, span tree included.

``Observability.from_config`` builds the session's real instance;
``Observability.noop`` builds the do-nothing twin the overhead benchmark
(`benchmarks/obs_bench.py`) prices the disabled mode against.
"""

from __future__ import annotations

import gc
import time
import weakref
from typing import Callable, Dict, Optional

from .explain import DecisionLog, DecisionRecord, SlowQueryLog, SlowQueryRecord
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .tracing import (
    NOOP_TRACE,
    ReadTrace,
    Span,
    Trace,
    Tracer,
    active_trace,
    derive_path,
    well_nested,
)

#: Trace annotation keys copied onto decision records.
_TALLY_KEYS = (
    "queries_pushdown",
    "queries_python",
    "queries_cached",
)


class GcMeter:
    """Collector seconds and passes while a session lives: one ``gc.callbacks`` hook.

    The hook holds the meter weakly and leaves ``gc.callbacks`` with it — on
    :meth:`close`, or when a session is dropped without one.  Two live
    sessions each count every pass; only the one whose ``tracer`` made the
    trace open on the collecting thread adds the pass to its innermost span.
    """

    def __init__(self, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.seconds, self.passes, self._started, self._tracer = 0.0, [0, 0, 0], 0.0, tracer
        meter = weakref.ref(self)

        def hook(phase: str, info: Dict[str, int]) -> None:
            if (live := meter()) is not None:
                live._on_pass(phase, info["generation"])

        gc.callbacks.append(hook)
        self.close = weakref.finalize(self, lambda: hook in gc.callbacks and gc.callbacks.remove(hook))
        registry.gauge("q_gc_seconds_total", "Collector seconds while the session lived", fn=lambda: self.seconds)
        for generation in ("0", "1", "2"):
            registry.gauge(
                "q_gc_passes_total", "Collector passes while the session lived",
                labels={"generation": generation}, fn=lambda index=int(generation): self.passes[index],
            )

    def _on_pass(self, phase: str, generation: int) -> None:
        # The wall clock, not the session's: an injected counting clock must
        # not tick on a pass nobody scheduled.
        if phase == "start":
            self._started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._started
        self.seconds += elapsed
        self.passes[generation] += 1
        trace = active_trace()
        if trace.tracer is self._tracer:
            trace._stack[-1].gc_s += elapsed


class Observability:
    """The session-wide observability bundle (registry + tracer + logs)."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
        slow_query_s: float = 0.25,
        slow_query_log_size: int = 64,
        decision_log_size: int = 256,
    ) -> None:
        self.enabled = enabled
        self.clock = clock if clock is not None else time.perf_counter
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(enabled=enabled, clock=self.clock)
        #: The collector's counter; absent from the record-nothing bundle.
        self.gc_meter = None if isinstance(self.registry, NullRegistry) else GcMeter(self.registry, self.tracer)
        self.decisions = DecisionLog(decision_log_size)
        self.slow_log = SlowQueryLog(slow_query_log_size, threshold_s=slow_query_s)
        reg = self.registry
        # The serving-lane instruments live on the bundle so the hot path
        # pays one attribute read, not a registry lookup.
        self._m_reads = reg.counter("q_reads_total", "Ranked reads served")
        self._m_reads_degraded = reg.counter(
            "q_reads_degraded_total", "Deadline-truncated reads"
        )
        self._m_read_seconds = reg.histogram(
            "q_read_seconds", "End-to-end ranked read latency"
        )
        self._m_write_apply_seconds = reg.histogram(
            "q_write_apply_seconds", "Writer-lane apply latency (incl. retries)"
        )
        self._m_write_queue_wait_seconds = reg.histogram(
            "q_write_queue_wait_seconds", "Time a write spent queued"
        )
        self._m_slow = reg.counter(
            "q_slow_queries_total", "Reads that crossed the slow-query threshold"
        )
        self._path_counters: Dict[str, Counter] = {}
        self._stage_histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "Observability":
        """The bundle a :class:`~repro.api.service.QService` session owns."""
        return cls(
            enabled=config.observability,
            slow_query_s=config.slow_query_ms / 1000.0,
        )

    @classmethod
    def noop(cls) -> "Observability":
        """A bundle that records nothing — the benchmark's no-obs floor."""
        return cls(enabled=False, registry=NullRegistry())

    def close(self) -> None:
        """Take the collector hook out of ``gc.callbacks`` (idempotent)."""
        if self.gc_meter is not None:
            self.gc_meter.close()

    # ------------------------------------------------------------------
    # Lane completion hooks
    # ------------------------------------------------------------------
    def finish_read(
        self,
        trace,
        view_id: str,
        view_name: str,
        tenant: Optional[str],
        snapshot_id: Optional[int] = None,
        degraded: bool = False,
    ) -> Optional[ReadTrace]:
        """Account one finished ranked read; returns its :class:`ReadTrace`.

        Counters move in every mode; the trace-derived work (stage
        histograms, decision record, slow-query capture) only runs when the
        trace is real.  Returns ``None`` when tracing is disabled — the
        value ``ReadResult.trace`` carries.
        """
        self._m_reads.inc()
        if degraded:
            self._m_reads_degraded.inc()
        if not getattr(trace, "enabled", False):
            return None
        path, reason = derive_path(trace.annotations)
        self._path_counter(path).inc()
        duration = trace.root.duration
        self._m_read_seconds.observe(duration)
        for stage, seconds in _stage_totals(trace.root).items():
            self._stage_histogram(stage).observe(seconds)
        read_trace = ReadTrace(root=trace.root, path=path, fallback_reason=reason)
        decision = DecisionRecord(
            view_id=view_id,
            view_name=view_name,
            tenant=tenant,
            snapshot_id=snapshot_id,
            path=path,
            fallback_reason=reason,
            duration_s=duration,
            degraded=degraded,
            tallies={
                key: int(value)
                for key, value in trace.annotations.items()
                if key in _TALLY_KEYS or key.startswith("steiner_")
            },
        )
        self.decisions.append(decision)
        if self.slow_log.offer(decision, read_trace):
            self._m_slow.inc()
        return read_trace

    def finish_write(self, trace, kind: str) -> None:
        """Account one finished writer-lane op (histograms only)."""
        if not getattr(trace, "enabled", False):
            return
        apply_s = 0.0
        queue_wait_s = 0.0
        for child in trace.root.children:
            if child.name == "apply":
                apply_s += child.duration
            elif child.name == "queue_wait":
                queue_wait_s += child.duration
        self._m_write_apply_seconds.observe(apply_s)
        self._m_write_queue_wait_seconds.observe(queue_wait_s)

    # ------------------------------------------------------------------
    # Labeled-instrument caches
    # ------------------------------------------------------------------
    def _path_counter(self, path: str) -> Counter:
        counter = self._path_counters.get(path)
        if counter is None:
            counter = self.registry.counter(
                "q_read_path_total",
                "Ranked reads by serving path",
                labels={"path": path},
            )
            self._path_counters[path] = counter
        return counter

    def _stage_histogram(self, stage: str) -> Histogram:
        histogram = self._stage_histograms.get(stage)
        if histogram is None:
            histogram = self.registry.histogram(
                "q_read_stage_seconds",
                "Per-stage ranked read latency",
                labels={"stage": stage},
            )
            self._stage_histograms[stage] = histogram
        return histogram


def _stage_totals(root: Span) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in root.walk():
        if span is root:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "DecisionLog",
    "DecisionRecord",
    "Gauge",
    "GcMeter",
    "Histogram",
    "MetricsRegistry",
    "NOOP_TRACE",
    "NullRegistry",
    "Observability",
    "ReadTrace",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "Trace",
    "Tracer",
    "active_trace",
    "derive_path",
    "well_nested",
]
