"""The metrics registry: counters, gauges and latency histograms.

One :class:`MetricsRegistry` per session holds every operational counter of
the serving stack — the re-homed ``SystemStats`` counters, the serving
lane's read/write totals, and the latency histograms the tracer feeds.  Two
exposition formats come straight off the registry:

* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` per family, one sample line per labeled child),
  the payload ``QServer.metrics()`` / ``QService.metrics()`` serve to a
  scraper;
* :meth:`MetricsRegistry.as_dict` — a flat JSON-friendly mapping for
  dashboards and tests.

Three instrument shapes:

* :class:`Counter` — a monotone total.  ``inc`` is lock-protected and
  returns the new value, so the serving layer can use one counter both as
  a metric and as an id allocator (``snapshot_id``).
* :class:`Gauge` — a point-in-time value: either set explicitly or backed
  by a zero-argument callback evaluated at scrape time.  Callbacks are how
  live state (queue depth, pending writes, snapshot age) and the scattered
  pre-registry counters (pushdown statistics, Steiner cache totals,
  posting builds) surface without any hot-path bookkeeping: the owning
  object keeps its plain attribute, the registry reads it when asked.
* :class:`Histogram` — fixed exponential buckets (doubling widths), for
  request/stage latencies.  Observation is O(#buckets) worst case with no
  allocation.

A :class:`NullRegistry` with no-op instruments backs the benchmarked
"no observability compiled in" baseline (`benchmarks/obs_bench.py`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 0.5 ms doubling up to ~16 s, +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(0.0005 * (2 ** i) for i in range(16))

LabelsArg = Optional[Dict[str, str]]
_LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: LabelsArg) -> _LabelsKey:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _render_labels(key: _LabelsKey, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(key)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in items)
    return "{" + inner + "}"


def _sample_name(name: str, key: _LabelsKey) -> str:
    return name + _render_labels(key)


class Counter:
    """A monotone total.  ``inc`` returns the new value (atomic)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: _LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value: explicit (``set``) or callback-backed."""

    __slots__ = ("name", "labels", "fn", "_value")

    def __init__(
        self,
        name: str,
        labels: _LabelsKey = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.fn = fn
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self.fn is not None:
            try:
                return float(self.fn())
            except Exception:
                # A scrape must never take a serving lane down with it: a
                # callback racing a shutdown reports 0 rather than raising.
                return 0.0
        return self._value


class Histogram:
    """Latency totals in fixed exponential buckets (cumulative on export)."""

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: _LabelsKey = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets: Tuple[float, ...] = tuple(buckets or DEFAULT_BUCKETS)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        slot = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Tuple[List[int], float, int]:
        """(per-bucket counts incl. +Inf, sum, count) under the lock."""
        with self._lock:
            return list(self._counts), self._sum, self._count


class MetricsRegistry:
    """Get-or-create registry of all instruments, with exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (name, labels key) -> instrument; insertion-ordered so exposition
        # is stable across scrapes.
        self._instruments: "Dict[Tuple[str, _LabelsKey], object]" = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create; idempotent per (name, labels))
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", labels: LabelsArg = None) -> Counter:
        return self._get(name, help, labels, Counter)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: LabelsArg = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        gauge = self._get(name, help, labels, Gauge)
        if fn is not None:
            # Re-registering a callback rebinds it (a second QServer over
            # the same service takes over the serving gauges).
            gauge.fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: LabelsArg = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(name, key[1], buckets=buckets)
                self._instruments[key] = instrument
                if help:
                    self._help.setdefault(name, help)
            if not isinstance(instrument, Histogram):
                raise TypeError(f"metric {name!r} is not a histogram")
            return instrument

    def _get(self, name: str, help: str, labels: LabelsArg, cls):
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1])
                self._instruments[key] = instrument
                if help:
                    self._help.setdefault(name, help)
            if not isinstance(instrument, cls):
                raise TypeError(f"metric {name!r} is not a {cls.__name__.lower()}")
            return instrument

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, labels: LabelsArg = None) -> float:
        """Current value of a counter/gauge (0 when never registered).

        The accessor ``SystemStats`` is assembled from: a stat that has not
        moved yet reads 0, exactly like the pre-registry plain attribute.
        """
        with self._lock:
            instrument = self._instruments.get((name, _labels_key(labels)))
        if instrument is None or isinstance(instrument, Histogram):
            return 0
        return instrument.value

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly exposition: sample name -> value.

        Histograms expand to ``{"count", "sum", "buckets": {le: n}}``
        (cumulative counts, like the text format).
        """
        with self._lock:
            instruments = list(self._instruments.items())
        out: Dict[str, object] = {}
        for (name, key), instrument in instruments:
            sample = _sample_name(name, key)
            if isinstance(instrument, Histogram):
                counts, total, count = instrument.snapshot()
                cumulative: Dict[str, int] = {}
                running = 0
                for bound, n in zip(instrument.buckets, counts):
                    running += n
                    cumulative[repr(bound)] = running
                cumulative["+Inf"] = running + counts[-1]
                out[sample] = {"count": count, "sum": total, "buckets": cumulative}
            else:
                out[sample] = instrument.value
        return out

    def prometheus_text(self) -> str:
        """The registry in the Prometheus text exposition format."""
        with self._lock:
            instruments = list(self._instruments.items())
            help_text = dict(self._help)
        families: "Dict[str, List[Tuple[_LabelsKey, object]]]" = {}
        kinds: Dict[str, str] = {}
        for (name, key), instrument in instruments:
            families.setdefault(name, []).append((key, instrument))
            kinds[name] = (
                "counter"
                if isinstance(instrument, Counter)
                else "histogram"
                if isinstance(instrument, Histogram)
                else "gauge"
            )
        lines: List[str] = []
        for name, children in families.items():
            if name in help_text:
                lines.append(f"# HELP {name} {help_text[name]}")
            lines.append(f"# TYPE {name} {kinds[name]}")
            for key, instrument in children:
                if isinstance(instrument, Histogram):
                    counts, total, count = instrument.snapshot()
                    running = 0
                    for bound, n in zip(instrument.buckets, counts):
                        running += n
                        label = _render_labels(key, ("le", repr(bound)))
                        lines.append(f"{name}_bucket{label} {running}")
                    label = _render_labels(key, ("le", "+Inf"))
                    lines.append(f"{name}_bucket{label} {running + counts[-1]}")
                    lines.append(f"{name}_sum{_render_labels(key)} {total}")
                    lines.append(f"{name}_count{_render_labels(key)} {count}")
                else:
                    lines.append(f"{name}{_render_labels(key)} {instrument.value}")
        return "\n".join(lines) + "\n"


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> int:
        return 0

    value = 0


class _NullGauge:
    __slots__ = ("fn",)

    def __init__(self) -> None:
        self.fn = None

    def set(self, value: float) -> None:
        pass

    value = 0.0


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the no-observability baseline.

    Every accessor returns a shared no-op instrument, so code written
    against the real registry runs unchanged with zero bookkeeping.  Used
    by ``benchmarks/obs_bench.py`` to price the disabled-mode overhead
    against a true do-nothing floor.
    """

    def __init__(self) -> None:  # no locks, no storage
        pass

    def counter(self, name: str, help: str = "", labels: LabelsArg = None):
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", labels: LabelsArg = None, fn=None):
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", labels: LabelsArg = None, buckets=None):
        return _NULL_HISTOGRAM

    def value(self, name: str, labels: LabelsArg = None) -> float:
        return 0

    def as_dict(self) -> Dict[str, object]:
        return {}

    def prometheus_text(self) -> str:
        return ""
