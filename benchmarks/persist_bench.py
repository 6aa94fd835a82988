"""Persistence benchmark: warm-start ``QService.open`` vs cold re-registration.

Builds one full session per storage backend — GBCO base sources, bootstrap
alignment, fig8-style synthetic growth to the target catalog size, a ranked
keyword view — then checkpoints it through :mod:`repro.persist` and times
reopening it from disk.  The *cold* number is what a restarted process had
to pay before durable sessions existed: re-ingest, re-profile, re-match and
re-align everything, then rebuild the view.  The *warm* number is
``QService.open(...)`` plus the first view read.

Parity is asserted, not assumed: the reopened session must produce
byte-identical ranked answers (values, costs, provenance) and identical
deterministic counts (sources, graph nodes/edges, answers) to the live
session that saved them.

With ``--check BASELINE`` the run compares itself against a checked-in
baseline and exits non-zero when (a) any deterministic count drifts, or
(b) the warm-start speedup regresses by more than 20%.  The acceptance
configuration (``--config large``) runs the largest fig8 catalog and must
show warm-start ≥ 5x faster than cold re-registration.

Usage::

    PYTHONPATH=src python benchmarks/persist_bench.py \
        --config large --out BENCH_persist.json
    PYTHONPATH=src python benchmarks/persist_bench.py \
        --config small --check benchmarks/BENCH_persist_baseline.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_HERE), str(_SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.api import (  # noqa: E402
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco, grow_catalog_and_graph  # noqa: E402
from repro.datastore.csvio import source_from_dict, source_to_dict  # noqa: E402
from repro.matching import MetadataMatcher, ValueOverlapMatcher  # noqa: E402

#: Memory runs first, process-cold: its cold-build number then excludes any
#: warm-cache advantage, and the sqlite leg (which runs second, with warm
#: similarity caches) reports a conservative cold baseline of its own.
BACKENDS = ("memory", "sqlite")

CONFIGS = {
    "small": dict(rows_per_relation=10, fig8_size=30),
    "large": dict(rows_per_relation=10, fig8_size=100),
}

#: Allowed relative slack on the (machine-normalized) warm-start speedup.
REGRESSION_TOLERANCE = 0.20

#: The acceptance bar: warm open must beat cold re-registration by this
#: factor at the large configuration.
LARGE_CONFIG_MIN_SPEEDUP = 5.0


def _clone(source):
    return source_from_dict(source_to_dict(source))


def _answer_fingerprint(answers) -> List:
    return [
        (
            tuple(answer.values.items()),
            answer.cost,
            tuple(sorted(answer.provenance.base_tuples))
            if answer.provenance is not None
            else None,
        )
        for answer in answers
    ]


def _read(service, view_ref):
    return _answer_fingerprint(
        list(service.stream_answers(QueryRequest(view=view_ref)))
    )


def _run_backend(kind: str, rows: int, fig8_size: int, workdir: Path) -> Dict[str, object]:
    """One cold build + save + warm reopen on one backend."""
    gbco = build_gbco(rows_per_relation=rows)
    keywords = tuple(list(gbco.query_log)[0].keywords)
    if kind == "sqlite":
        backend: Optional[str] = f"sqlite:{workdir / 'session.db'}"
        save_path: Optional[Path] = None
        location: Path = workdir / "session.db"
    else:
        backend = None
        save_path = workdir / "session.json"
        location = save_path

    # Cold: everything a restarted process had to redo before durable
    # sessions — ingest, profiling, bootstrap matching, fig8 growth to the
    # target catalog size, and the fig6-style *re-registration* of the query
    # log's new sources (full alignment against the grown graph: the
    # dominant restart cost the paper's Figure 8 measures) — then view
    # construction and the first ranked read.
    new_source_names = sorted(
        {
            relation.split(".")[0]
            for entry in gbco.query_log
            for relation in entry.new_relations
        }
    )
    cold_start = time.perf_counter()
    service = QService(
        sources=[
            _clone(source)
            for source in gbco.catalog
            if source.name not in new_source_names
        ],
        matchers=[ValueOverlapMatcher(min_confidence=0.6, min_shared_values=5)],
        config=ServiceConfig(top_k=5, top_y=1),
        backend=backend,
    )
    service.bootstrap_alignments()
    growth = grow_catalog_and_graph(
        service.catalog, service.graph, target_source_count=fig8_size, seed=fig8_size
    )
    for name in growth.added_sources:
        service.profile_index.index_source(service.catalog.source(name))
    registrations = [
        service.register_source(
            RegisterSourceRequest(
                source=_clone(gbco.catalog.source(name)),
                strategy="exhaustive",
                matcher=MetadataMatcher(),
            )
        )
        for name in new_source_names
    ]
    info = service.create_view(QueryRequest(keywords=keywords))
    cold_setup_seconds = time.perf_counter() - cold_start

    read_start = time.perf_counter()
    live = _read(service, info.view_id)
    cold_read_seconds = time.perf_counter() - read_start

    save_start = time.perf_counter()
    report = service.save(save_path)
    save_seconds = time.perf_counter() - save_start
    counts = {
        "sources": service.catalog.source_count,
        "graph_nodes": service.graph.node_count,
        "graph_edges": service.graph.edge_count,
        "answers": len(live),
        "registrations": len(registrations),
        "attribute_comparisons": sum(
            response.attribute_comparisons for response in registrations
        ),
        "snapshot_version": report.snapshot_version,
    }
    service.close()

    # Warm: reopen from disk (graph, weights, profiles, views restored —
    # no profiling, no matching, no alignment), then the same first read.
    open_start = time.perf_counter()
    reopened = QService.open(location)
    warm_open_seconds = time.perf_counter() - open_start
    read_start = time.perf_counter()
    restored = _read(reopened, info.view_id)
    warm_read_seconds = time.perf_counter() - read_start

    if restored != live:
        raise AssertionError(
            f"parity violated on {kind}: reopened session answered differently"
        )
    if not live:
        raise AssertionError(f"{kind} workload produced no answers — vacuous parity")
    if reopened.catalog.source_count != counts["sources"]:
        raise AssertionError(f"{kind} reopened catalog lost sources")
    reopened.close()

    cold_total = cold_setup_seconds + cold_read_seconds
    warm_total = warm_open_seconds + warm_read_seconds
    return {
        "cold_setup_seconds": round(cold_setup_seconds, 4),
        "cold_read_seconds": round(cold_read_seconds, 4),
        "save_seconds": round(save_seconds, 4),
        "warm_open_seconds": round(warm_open_seconds, 4),
        "warm_read_seconds": round(warm_read_seconds, 4),
        "warm_start_speedup": round(cold_total / warm_total, 2) if warm_total else float("inf"),
        "counts": counts,
        "parity": "byte-identical ranked answers and provenance after reopen",
    }


def run_benchmark(config: str) -> Dict[str, object]:
    spec = CONFIGS[config]
    results: Dict[str, object] = {}
    for kind in BACKENDS:
        workdir = Path(tempfile.mkdtemp(prefix=f"persist-bench-{kind}-"))
        try:
            results[kind] = _run_backend(
                kind, spec["rows_per_relation"], spec["fig8_size"], workdir
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return {
        "benchmark": "persist_warm_start",
        "workload": (
            "gbco bootstrap + fig8 synthetic growth + ranked keyword view, "
            "saved and reopened per storage backend"
        ),
        "config": {
            "name": config,
            "rows_per_relation": spec["rows_per_relation"],
            "fig8_size": spec["fig8_size"],
        },
        "backends": results,
    }


def check_against_baseline(report: Dict[str, object], baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for kind in BACKENDS:
        base = baseline["backends"].get(kind)
        new = report["backends"].get(kind)
        if base is None or new is None:
            failures.append(f"backend {kind!r} missing from baseline or run")
            continue
        # Deterministic counts are held to exact equality: drift means the
        # restore (or the workload) changed behavior, not performance.
        for metric, old_value in base["counts"].items():
            new_value = new["counts"].get(metric)
            if new_value != old_value:
                failures.append(
                    f"{kind}.counts.{metric} drifted: baseline {old_value}, got {new_value}"
                )
        # The speedup is machine-normalized (cold and warm run on the same
        # machine in the same process); allow 20% noise.
        old_speedup = base["warm_start_speedup"]
        new_speedup = new["warm_start_speedup"]
        if new_speedup < old_speedup * (1.0 - REGRESSION_TOLERANCE):
            failures.append(
                f"{kind} warm-start speedup regressed >20%: "
                f"baseline {old_speedup}x, got {new_speedup}x"
            )
    if report["config"]["name"] == "large":
        for kind in BACKENDS:
            speedup = report["backends"][kind]["warm_start_speedup"]
            if speedup < LARGE_CONFIG_MIN_SPEEDUP:
                failures.append(
                    f"{kind} warm-start speedup {speedup}x below the "
                    f"{LARGE_CONFIG_MIN_SPEEDUP}x acceptance bar"
                )
    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    speedups = {k: report["backends"][k]["warm_start_speedup"] for k in BACKENDS}
    print(f"baseline check ok: warm-start speedups {speedups}, counts exactly match")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="large")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/BENCH_persist.json"), help="report path"
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="baseline JSON to compare against"
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.config)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for kind in BACKENDS:
        numbers = report["backends"][kind]
        print(
            f"{kind}: cold {numbers['cold_setup_seconds'] + numbers['cold_read_seconds']:.3f}s "
            f"-> warm {numbers['warm_open_seconds'] + numbers['warm_read_seconds']:.3f}s "
            f"({numbers['warm_start_speedup']}x; save {numbers['save_seconds']}s)"
        )
    print(f"report written to {args.out}")
    if args.check is not None:
        return check_against_baseline(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
