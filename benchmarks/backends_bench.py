"""Storage-backend benchmark: memory vs SQLite on one full service workload.

Replays an identical end-to-end workload — bulk source ingest, bootstrap
alignment, new-source registrations from the GBCO query log, and ranked
keyword-view query reads — once per storage backend, asserts cross-backend
parity (byte-identical ranked answers and registration correspondences),
and emits ``BENCH_backends.json`` comparing registration and query wall
time across backends.  A fig8-style scaling replay is also run per backend
(`experiments.run_scaling_experiment(backend=...)`) so the Figure 8 numbers
can be reported per storage layer.

With ``--check BASELINE`` the run compares itself against a checked-in
baseline and exits non-zero when (a) any deterministic count drifts —
answers produced, registrations, attribute comparisons — or (b) the
**memory** backend regresses by more than 20% on registration or query
wall time against the baseline (the same tolerance as the registration
benchmark's gate; the SQLite backend is reported but not gated — it trades
latency for durability/pushdown by design).

Usage::

    PYTHONPATH=src python benchmarks/backends_bench.py \
        --config small --out BENCH_backends.json \
        --check benchmarks/BENCH_backends_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_HERE), str(_SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from experiments import run_scaling_experiment  # noqa: E402

from repro.api import (  # noqa: E402
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco  # noqa: E402
from repro.datastore.csvio import source_from_dict, source_to_dict  # noqa: E402
from repro.matching import MetadataMatcher, ValueOverlapMatcher  # noqa: E402

BACKENDS = ("memory", "sqlite")

#: SQLite runs first: process-global similarity caches (name trigrams, pair
#: memos) warm up during the first run, so the gated memory backend gets the
#: warm-cache advantage and the reported SQLite-vs-memory relative cost is
#: conservative — the same convention as the registration benchmark.
RUN_ORDER = ("sqlite", "memory")

CONFIGS = {
    "small": dict(rows_per_relation=15, trial_count=6, fig8_sizes=(18, 40)),
    "large": dict(rows_per_relation=30, trial_count=None, fig8_sizes=(18, 100)),
}

#: Allowed relative slack when gating the memory backend against a baseline.
REGRESSION_TOLERANCE = 0.20


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


def _run_backend(kind: str, rows: int, trials) -> Dict[str, object]:
    """One full workload on one backend; returns timings + parity artifacts."""
    gbco = build_gbco(rows_per_relation=rows)
    new_source_names = sorted(
        {
            relation.split(".")[0]
            for entry in trials
            for relation in entry.new_relations
        }
    )

    wall_start = time.perf_counter()
    start = time.perf_counter()
    service = QService(
        sources=[
            _clone(source)
            for source in gbco.catalog
            if source.name not in new_source_names
        ],
        matchers=[ValueOverlapMatcher(min_confidence=0.6, min_shared_values=5)],
        config=ServiceConfig(top_k=5, top_y=1),
        backend=kind,
    )
    service.bootstrap_alignments()
    ingest_seconds = time.perf_counter() - start

    start = time.perf_counter()
    correspondences = []
    comparisons = 0
    for name in new_source_names:
        response = service.register_source(
            RegisterSourceRequest(
                source=_clone(gbco.catalog.source(name)),
                strategy="exhaustive",
                matcher=MetadataMatcher(),
            )
        )
        comparisons += response.attribute_comparisons
        correspondences.append(
            sorted(
                (c.source.qualified, c.target.qualified, c.confidence, c.matcher)
                for c in response.alignment.correspondences
            )
        )
    registration_seconds = time.perf_counter() - start

    start = time.perf_counter()
    answers = []
    for entry in trials:
        info = service.create_view(QueryRequest(keywords=tuple(entry.keywords)))
        answers.append(_answer_fingerprint(service.view(info.view_id).answers()))
    query_seconds = time.perf_counter() - start
    stats = service.stats()
    wall_seconds = time.perf_counter() - wall_start
    service.close()

    return {
        "timings": {
            "ingest_seconds": round(ingest_seconds, 4),
            "registration_seconds": round(registration_seconds, 4),
            "query_seconds": round(query_seconds, 4),
            "wall_seconds": round(wall_seconds, 4),
        },
        "counts": {
            "registrations": len(new_source_names),
            "attribute_comparisons": comparisons,
            "views": len(answers),
            "answers_total": sum(len(a) for a in answers),
            "storage_bytes": stats.storage_bytes,
        },
        "backend_reported": stats.backend,
        "_answers": answers,
        "_correspondences": correspondences,
    }


def _assert_parity(runs: Dict[str, Dict[str, object]]) -> None:
    """Byte-identical ranked answers + correspondences across all backends."""
    reference_kind = BACKENDS[0]
    reference = runs[reference_kind]
    for kind in BACKENDS[1:]:
        run = runs[kind]
        if run["_answers"] != reference["_answers"]:
            raise AssertionError(
                f"answer parity violated: {kind!r} returned different ranked "
                f"answers than {reference_kind!r}"
            )
        if run["_correspondences"] != reference["_correspondences"]:
            raise AssertionError(
                f"correspondence parity violated between {kind!r} and {reference_kind!r}"
            )


def _run_fig8(kind: str, sizes, trials) -> Dict[str, object]:
    start = time.perf_counter()
    results = run_scaling_experiment(
        graph_sizes=sizes, rows_per_relation=10, trials=trials, backend=kind
    )
    return {
        "wall_seconds": round(time.perf_counter() - start, 4),
        "avg_comparisons": {
            str(size): {name: round(value, 2) for name, value in row.items()}
            for size, row in results.items()
        },
    }


def run_benchmark(
    config: str, rows: Optional[int] = None, trial_count: Optional[int] = None
) -> Dict[str, object]:
    spec = dict(CONFIGS[config])
    if rows is not None:
        spec["rows_per_relation"] = rows
    if trial_count is not None:
        spec["trial_count"] = trial_count
    gbco = build_gbco(rows_per_relation=spec["rows_per_relation"])
    trials = list(gbco.query_log)
    if spec["trial_count"] is not None:
        trials = trials[: spec["trial_count"]]

    runs = {kind: _run_backend(kind, spec["rows_per_relation"], trials) for kind in RUN_ORDER}
    runs = {kind: runs[kind] for kind in BACKENDS}  # report in canonical order
    _assert_parity(runs)
    fig8_trials = trials[:2]
    fig8 = {kind: _run_fig8(kind, spec["fig8_sizes"], fig8_trials) for kind in BACKENDS}
    # The comparison counts of the fig8 replay are storage-independent.
    if any(
        fig8[kind]["avg_comparisons"] != fig8[BACKENDS[0]]["avg_comparisons"]
        for kind in BACKENDS[1:]
    ):
        raise AssertionError("fig8 comparison counts drifted across backends")

    def _ratio(a: float, b: float) -> Optional[float]:
        # Ratios over sub-10ms denominators are noise, not signal.
        return round(a / b, 2) if b >= 0.01 else None

    memory, sqlite = runs["memory"], runs["sqlite"]
    return {
        "benchmark": "storage_backends",
        "workload": "gbco ingest + bootstrap + fig6 registrations + ranked view reads",
        "config": {
            "name": config,
            "rows_per_relation": spec["rows_per_relation"],
            "trials": len(trials),
        },
        "parity": "identical ranked answers and registration correspondences",
        "backends": {
            kind: {key: value for key, value in run.items() if not key.startswith("_")}
            for kind, run in runs.items()
        },
        "relative_cost_sqlite_vs_memory": {
            metric: _ratio(
                sqlite["timings"][f"{metric}_seconds"],
                memory["timings"][f"{metric}_seconds"],
            )
            for metric in ("ingest", "registration", "query", "wall")
        },
        "fig8_per_backend": fig8,
    }


def check_against_baseline(report: Dict[str, object], baseline_path: Path) -> int:
    """Compare ``report`` to a checked-in baseline; return a process exit code."""
    baseline = json.loads(baseline_path.read_text())
    failures = []

    # Deterministic counts: any drift means behaviour changed, not speed.
    for kind in BACKENDS:
        base_counts = baseline["backends"][kind]["counts"]
        new_counts = report["backends"][kind]["counts"]
        for metric in ("registrations", "attribute_comparisons", "views", "answers_total"):
            if new_counts[metric] != base_counts[metric]:
                failures.append(
                    f"{kind}.{metric} drifted: baseline {base_counts[metric]}, "
                    f"got {new_counts[metric]}"
                )

    # Wall-time gate on the memory backend only (the seed-equivalent fast
    # path must not regress >20%; absolute times vary with the host, so the
    # baseline should be refreshed when hardware changes materially).
    base_timings = baseline["backends"]["memory"]["timings"]
    new_timings = report["backends"]["memory"]["timings"]
    for metric in ("registration_seconds", "query_seconds"):
        allowed = base_timings[metric] * (1.0 + REGRESSION_TOLERANCE)
        if new_timings[metric] > allowed:
            failures.append(
                f"memory backend {metric} regressed >20%: baseline "
                f"{base_timings[metric]}s, got {new_timings[metric]}s"
            )

    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    print(
        "baseline check ok: deterministic counts match; memory backend "
        f"registration {new_timings['registration_seconds']}s "
        f"(baseline {base_timings['registration_seconds']}s), "
        f"query {new_timings['query_seconds']}s "
        f"(baseline {base_timings['query_seconds']}s)"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="small")
    parser.add_argument("--rows", type=int, default=None, help="rows per relation override")
    parser.add_argument("--trials", type=int, default=None, help="trial count override")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/BENCH_backends.json"), help="report path"
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="baseline JSON to compare against"
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.config, rows=args.rows, trial_count=args.trials)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for kind in BACKENDS:
        timings = report["backends"][kind]["timings"]
        print(
            f"  {kind:>7}: ingest {timings['ingest_seconds']}s, "
            f"registration {timings['registration_seconds']}s, "
            f"query {timings['query_seconds']}s"
        )
    if args.check is not None:
        return check_against_baseline(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
