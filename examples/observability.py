"""Observability: trace a serving stack, explain its reads, scrape its metrics.

Every ranked read through :class:`repro.service.QServer` comes back with a
:class:`repro.obs.ReadTrace`: a well-nested span tree over the read lane
(snapshot acquire → materialize → solve → execute → paginate), the serving
path the engine actually took (``posting-join`` SQL pushdown,
``python-union``, ``cached`` …) and — whenever a query ran on the Python
engine — a concrete reason, not a silent fallback.  The same bundle keeps a bounded
explain/decision log, a slow-query log, and a metrics registry that
exposes everything in the Prometheus text format.

The script builds a GBCO session behind a ``QServer``, drives mixed
traffic (a cold view build, hot cached reads, a write, a per-tenant read),
then prints per-request traces, the decision log, and a metrics scrape.

Run with::

    python examples/observability.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco
from repro.learning import AnnotationKind
from repro.service import QServer


def main() -> None:
    dataset = build_gbco(rows_per_relation=30)
    keywords = tuple(list(dataset.query_log)[0].keywords)

    # slow_query_ms=0 drops every read into the slow-query log so the demo
    # has something to show; production keeps the default (250ms).
    config = ServiceConfig(top_k=5, top_y=1, slow_query_ms=0.0)
    # The database lives in a directory removed when the demo ends.
    with tempfile.TemporaryDirectory() as scratch, QService(
        sources=dataset.catalog.sources(),
        config=config,
        backend=f"sqlite:{Path(scratch) / 'obs-example.db'}",
    ) as service:
        service.bootstrap_alignments()
        with QServer(service) as server:

            print("=== 1. Cold read: view build + first ranked answers ===")
            cold = server.query(QueryRequest(keywords=keywords))
            print(f"view {cold.view_id} ({cold.view_name!r}): {len(cold.answers)} answers")
            print(f"serving path: {cold.trace.path}")
            if cold.trace.fallback_reason:
                print(f"fallback reason: {cold.trace.fallback_reason}")
            print(cold.trace.render())

            print("\n=== 2. Hot read: the snapshot answer cache ===")
            hot = server.query(QueryRequest(view=cold.view_id))
            print(f"serving path: {hot.trace.path}  (stages: {hot.trace.stages()})")

            print("\n=== 3. A write through the single-writer queue ===")
            answers = list(cold.answers)
            other = next(
                (
                    a
                    for a in answers
                    if a.provenance.query_id != answers[0].provenance.query_id
                ),
                None,
            )
            if other is not None:
                server.feedback(
                    FeedbackRequest(
                        view=cold.view_id,
                        answer=answers[0],
                        kind=AnnotationKind.PREFERRED_OVER,
                        other=other,
                        tenant="acme",
                    )
                )
                print("tenant 'acme' feedback applied (queue wait + apply traced)")

                print("\n=== 4. Per-tenant read: same path, the tenant's prices ===")
                service.answers_page(QueryRequest(view=cold.view_id, tenant="acme"))
                decision = service.obs.decisions.last()
                print(decision.render())
                if decision.fallback_reason:
                    print(f"fallback reason: {decision.fallback_reason}")

            print("\n=== 5. The explain/decision log ===")
            for record in service.obs.decisions.records():
                print("  " + record.render())
            print(f"slow-query log holds {len(service.obs.slow_log)} capture(s)")

            print("\n=== 6. Metrics scrape (Prometheus text format, excerpt) ===")
            interesting = (
                "q_reads_total",
                "q_read_path_total",
                "q_read_seconds_count",
                "q_write_apply_seconds_count",
                "q_writes_applied_total",
                "q_snapshot_id",
                "q_pushdown_queries_total",
                "q_steiner_cache_builds_total",
                "q_slow_queries_total",
            )
            for line in server.metrics().splitlines():
                if not line.startswith("#") and line.startswith(interesting):
                    print("  " + line)

            stats = service.stats()
            print(
                f"\nSystemStats (same registry, typed): reads via "
                f"{stats.backend}, {stats.pushdown_queries} pushdown "
                f"queries, {stats.steiner_cache_builds} Steiner builds"
            )


if __name__ == "__main__":
    main()
