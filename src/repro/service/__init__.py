"""Concurrent multi-tenant serving layer (see README "Serving & multi-tenancy").

Public API
----------
* :class:`QServer` — thread-pooled front end over one
  :class:`~repro.api.service.QService`: concurrent snapshot-isolated reads,
  a bounded single-writer mutation queue with
  :class:`~repro.exceptions.ServiceOverloadedError` backpressure, and
  per-tenant weight-overlay ranking.
* :class:`ReadResult` / :class:`ServerStats` — read answers with snapshot
  provenance (each carrying its :class:`~repro.obs.tracing.ReadTrace`
  timing breakdown when observability is on); aggregate serving counters.
* :class:`ReadSnapshot` / :class:`SnapshotView` — the copy-on-publish
  frozen states reads run against.
"""

from .server import QServer, ReadResult, ServerStats
from .snapshots import ReadSnapshot, SnapshotView

__all__ = [
    "QServer",
    "ReadResult",
    "ReadSnapshot",
    "ServerStats",
    "SnapshotView",
]
