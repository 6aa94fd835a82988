"""Mixed-traffic serving benchmark: concurrent reads vs serial replay.

Exercises the :mod:`repro.service` layer the way a deployment would: a
:class:`~repro.service.QServer` over one GBCO session, ``workers`` threads
interleaving ranked keyword queries (80%), feedback events (15%, a mix of
base and per-tenant VALID / PREFERRED_OVER annotations) and new-source
registrations (5%, drawn from held-out query-log sources).  Three legs:

* **serial** — the identical operation multiset replayed single-threaded
  through a plain :class:`~repro.api.QService`.  Its wall time is the
  throughput baseline and its counts (answers read, feedback applied,
  registrations) are the deterministic signature the ``--check`` gate
  holds to exact equality.
* **concurrent** — the timed mixed-traffic run.  Every query records the
  snapshot id it was served from, its ranking fingerprint (values, cost,
  producing tree, base tuples) and its latency; the writer lane's applied
  order is captured from ``QServer.write_log``.
* **oracle** — a fresh session serially replays the concurrent leg's
  *actual* applied write order and recomputes, at every write count, the
  answers of each (view, tenant) pair that a concurrent read observed at
  that snapshot.  Any fingerprint mismatch is an isolation violation; the
  run (and the gate) require exactly zero.  This is a stronger property
  than "some serial interleaving": each read must match *the* serial
  execution of the writes its snapshot id names.

The ≥2x concurrent-read-throughput acceptance gate applies only on hosts
with ≥2 CPUs at ``--config large`` (pure-python readers share the GIL on a
single core; the baseline machine has one CPU, so it records the measured
ratio and skips the gate honestly).

Usage::

    PYTHONPATH=src python benchmarks/service_bench.py \
        --config large --out BENCH_service.json
    PYTHONPATH=src python benchmarks/service_bench.py \
        --config small --check benchmarks/BENCH_service_baseline.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_HERE), str(_SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.api import (  # noqa: E402
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco  # noqa: E402
from repro.datastore.csvio import source_from_dict, source_to_dict  # noqa: E402
from repro.learning import AnnotationKind  # noqa: E402
from repro.matching import MetadataMatcher  # noqa: E402
from repro.service import QServer  # noqa: E402

CONFIGS = {
    "small": dict(
        rows_per_relation=10, view_entries=(2, 3), workers=4, ops_per_worker=16
    ),
    "large": dict(
        rows_per_relation=30, view_entries=(2, 3, 7), workers=8, ops_per_worker=24
    ),
}

#: Tenants the traffic mix rotates through (``None`` = shared base ranking).
TENANTS: Tuple[Optional[str], ...] = (None, "alice", "bob")

SEED = 7

#: Allowed relative slack on machine-normalized timings (throughput ratio,
#: latency percentiles) against the checked-in baseline.
REGRESSION_TOLERANCE = 0.20

#: Serial-leg wall time below which the throughput-ratio gate is
#: noise-dominated and skipped (the bench-scale convention).
TIMING_GATE_FLOOR_SECONDS = 0.25

#: Absolute latency slack: percentile regressions smaller than this are
#: scheduler jitter, not code.
LATENCY_NOISE_FLOOR_SECONDS = 0.02

#: The acceptance bar on multi-core hosts at the large configuration.
MIN_CONCURRENT_READ_SPEEDUP = 2.0


def _clone(source):
    return source_from_dict(source_to_dict(source))


def _fingerprint(answers) -> List:
    """Ranking fingerprint including the producing tree and base tuples —
    distinct Steiner trees frequently project identical (values, cost)."""
    return [
        (
            tuple(answer.values.items()),
            answer.cost,
            answer.provenance.query_id if answer.provenance is not None else None,
            tuple(sorted(answer.provenance.base_tuples))
            if answer.provenance is not None
            else None,
        )
        for answer in answers
    ]


# ----------------------------------------------------------------------
# Workload schedule (generated once, executed by every leg)
# ----------------------------------------------------------------------
def build_schedules(spec: Dict[str, object], held_out: List[str]) -> List[List[Dict]]:
    """Per-worker op lists: ~80% query / 15% feedback / 5% register."""
    schedules: List[List[Dict]] = []
    n_views = len(spec["view_entries"])
    for worker in range(spec["workers"]):
        rng = random.Random(SEED * 1000 + worker)
        ops: List[Dict] = []
        for _ in range(spec["ops_per_worker"]):
            roll = rng.random()
            view = rng.randrange(n_views)
            tenant = TENANTS[rng.randrange(len(TENANTS))]
            if roll < 0.80:
                ops.append({"op": "query", "view": view, "tenant": tenant})
            elif roll < 0.95:
                ops.append(
                    {
                        "op": "feedback",
                        "view": view,
                        "tenant": tenant,
                        "index": rng.randrange(10),
                        "prefer": rng.random() < 0.5,
                        "replay": rng.randrange(1, 3),
                    }
                )
            else:
                ops.append({"op": "register"})
        schedules.append(ops)
    return schedules


def merge_round_robin(schedules: List[List[Dict]]) -> List[Dict]:
    merged: List[Dict] = []
    for batch in itertools.zip_longest(*schedules):
        merged.extend(op for op in batch if op is not None)
    return merged


# ----------------------------------------------------------------------
# Session setup shared by all three legs
# ----------------------------------------------------------------------
def build_session(gbco, spec, held_out: List[str]):
    """Fresh bootstrap-aligned session minus held-out sources, with the
    workload's views created (unmaterialized) in a fixed order."""
    service = QService(
        sources=[
            _clone(source) for source in gbco.catalog if source.name not in held_out
        ],
        config=ServiceConfig(top_k=5, top_y=1, write_queue_limit=256),
        backend=None,
    )
    service.bootstrap_alignments()
    view_ids = []
    for entry_index in spec["view_entries"]:
        keywords = tuple(gbco.query_log[entry_index].keywords)
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        view_ids.append(info.view_id)
    return service, view_ids


def _apply_feedback(service, view_id, index, tenant, prefer, replay):
    """The writer-lane feedback closure: choose the annotated answer from
    the *current* serial state so the op is replayable from its descriptor
    alone (choice inside the writer lane = deterministic in write order)."""
    answers = list(service.stream_answers(QueryRequest(view=view_id)))
    if not answers:
        return
    answer = answers[index % len(answers)]
    other = None
    kind = AnnotationKind.VALID
    if prefer:
        other = next(
            (
                candidate
                for candidate in answers
                if candidate.provenance.query_id != answer.provenance.query_id
            ),
            None,
        )
        if other is not None:
            kind = AnnotationKind.PREFERRED_OVER
    service.feedback(
        FeedbackRequest(
            view=view_id,
            answer=answer,
            kind=kind,
            other=other,
            replay=replay,
            tenant=tenant,
        )
    )


def _register_request(gbco, name: str) -> RegisterSourceRequest:
    return RegisterSourceRequest(
        source=_clone(gbco.catalog.source(name)),
        strategy="exhaustive",
        matcher=MetadataMatcher(),
    )


# ----------------------------------------------------------------------
# Leg 1: serial replay (throughput baseline + deterministic counts)
# ----------------------------------------------------------------------
def run_serial(gbco, spec, held_out, schedules) -> Dict[str, object]:
    service, view_ids = build_session(gbco, spec, held_out)
    pending_sources = list(held_out)
    counts = {"queries": 0, "feedback": 0, "registrations": 0, "answers_total": 0}
    start = time.perf_counter()
    for op in merge_round_robin(schedules):
        kind = op["op"]
        if kind == "register" and not pending_sources:
            kind = "query"
            op = {"op": "query", "view": 0, "tenant": None}
        if kind == "query":
            answers = list(
                service.stream_answers(
                    QueryRequest(view=view_ids[op["view"]], tenant=op["tenant"])
                )
            )
            counts["queries"] += 1
            counts["answers_total"] += len(answers)
        elif kind == "feedback":
            _apply_feedback(
                service,
                view_ids[op["view"]],
                op["index"],
                op["tenant"],
                op["prefer"],
                op["replay"],
            )
            counts["feedback"] += 1
        else:
            service.register_source(_register_request(gbco, pending_sources.pop(0)))
            counts["registrations"] += 1
    wall = time.perf_counter() - start
    service.close()
    return {"wall_seconds": round(wall, 4), "counts": counts}


# ----------------------------------------------------------------------
# Leg 2: concurrent mixed traffic through QServer
# ----------------------------------------------------------------------
def run_concurrent(gbco, spec, held_out, schedules) -> Dict[str, object]:
    service, view_ids = build_session(gbco, spec, held_out)
    observations: List[Tuple[int, str, Optional[str], List]] = []
    latencies: List[float] = []
    source_lock = threading.Lock()
    pending_sources = list(held_out)
    record_lock = threading.Lock()
    errors: List[BaseException] = []

    with QServer(service, read_workers=spec["workers"]) as server:

        def run_worker(ops: List[Dict]) -> None:
            for op in ops:
                kind = op["op"]
                if kind == "register":
                    with source_lock:
                        name = pending_sources.pop(0) if pending_sources else None
                    if name is None:
                        kind, op = "query", {"op": "query", "view": 0, "tenant": None}
                    else:
                        server.register(
                            _register_request(gbco, name), tag=f"register:{name}"
                        )
                        continue
                if kind == "query":
                    op_start = time.perf_counter()
                    result = server.query(
                        QueryRequest(view=view_ids[op["view"]], tenant=op["tenant"])
                    )
                    elapsed = time.perf_counter() - op_start
                    with record_lock:
                        latencies.append(elapsed)
                        observations.append(
                            (
                                result.snapshot_id,
                                result.view_id,
                                result.tenant,
                                _fingerprint(result.answers),
                            )
                        )
                else:  # feedback through the writer lane, replayable by tag
                    descriptor = {
                        "view": view_ids[op["view"]],
                        "index": op["index"],
                        "tenant": op["tenant"],
                        "prefer": op["prefer"],
                        "replay": op["replay"],
                    }
                    server.submit_mutation(
                        lambda d=descriptor: _apply_feedback(
                            service,
                            d["view"],
                            d["index"],
                            d["tenant"],
                            d["prefer"],
                            d["replay"],
                        ),
                        kind="feedback",
                        tag=json.dumps(descriptor, sort_keys=True),
                    ).result()

        def guarded(ops: List[Dict]) -> None:
            try:
                run_worker(ops)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        start = time.perf_counter()
        threads = [
            threading.Thread(target=guarded, args=(ops,), name=f"bench-worker-{i}")
            for i, ops in enumerate(schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]

        # Final serial reads extend oracle coverage to the end state.
        for view_id in view_ids:
            for tenant in TENANTS:
                result = server.query(QueryRequest(view=view_id, tenant=tenant))
                observations.append(
                    (
                        result.snapshot_id,
                        result.view_id,
                        result.tenant,
                        _fingerprint(result.answers),
                    )
                )
        stats = server.stats()
        write_log = list(server.write_log)
        if stats.snapshot_id != len(write_log):
            raise AssertionError(
                f"snapshot id {stats.snapshot_id} != applied writes {len(write_log)}"
            )

    service.close()
    latencies.sort()

    def percentile(fraction: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(fraction * len(latencies)))]

    queries = len(latencies)
    return {
        "wall_seconds": round(wall, 4),
        "read_throughput_per_second": round(queries / wall, 2) if wall else 0.0,
        "latency_p50_seconds": round(percentile(0.50), 4),
        "latency_p95_seconds": round(percentile(0.95), 4),
        "latency_p99_seconds": round(percentile(0.99), 4),
        "counts": {
            "queries": queries,
            "writes_applied": stats.writes_applied,
            "writes_failed": stats.writes_failed,
            "writes_rejected": stats.writes_rejected,
            "snapshots_published": stats.snapshots_published,
            "observations": len(observations),
        },
        "pinned_materializations": stats.pinned_materializations,
        "pinned_carryovers": stats.pinned_carryovers,
        "write_log": write_log,
        "observations": observations,
    }


# ----------------------------------------------------------------------
# Leg 3: isolation oracle (serial replay of the applied write order)
# ----------------------------------------------------------------------
def run_oracle(gbco, spec, held_out, concurrent: Dict[str, object]) -> Dict[str, object]:
    service, _view_ids = build_session(gbco, spec, held_out)
    # Mirror QServer's expansion schedule exactly: all views prepared
    # before snapshot 0 and again after every applied write, so lazy
    # refresh timing cannot skew edge-id allocation between legs.
    service.prepare_views(structural_only=True)

    by_snapshot: Dict[int, List[Tuple[str, Optional[str], List]]] = {}
    for snapshot_id, view_id, tenant, fingerprint in concurrent["observations"]:
        by_snapshot.setdefault(snapshot_id, []).append((view_id, tenant, fingerprint))

    violations = 0
    checked = 0

    def check(snapshot_id: int) -> None:
        nonlocal violations, checked
        for view_id, tenant, observed in by_snapshot.get(snapshot_id, ()):
            expected = _fingerprint(
                service.stream_answers(QueryRequest(view=view_id, tenant=tenant))
            )
            checked += 1
            if expected != observed:
                violations += 1
                print(
                    f"ISOLATION VIOLATION: snapshot {snapshot_id} view {view_id} "
                    f"tenant {tenant!r} diverged from serial replay",
                    file=sys.stderr,
                )

    check(0)
    for write_count, (kind, tag) in enumerate(concurrent["write_log"], start=1):
        if kind == "register":
            service.register_source(_register_request(gbco, tag.split(":", 1)[1]))
        elif kind == "feedback":
            descriptor = json.loads(tag)
            _apply_feedback(
                service,
                descriptor["view"],
                descriptor["index"],
                descriptor["tenant"],
                descriptor["prefer"],
                descriptor["replay"],
            )
        else:
            raise AssertionError(f"unreplayable write kind {kind!r} in write_log")
        service.prepare_views(structural_only=True)
        check(write_count)
    service.close()
    if checked != len(concurrent["observations"]):
        raise AssertionError(
            "oracle coverage hole: "
            f"checked {checked} of {len(concurrent['observations'])} observations "
            "(a read named a snapshot the write log cannot reach)"
        )
    return {"isolation_checks": checked, "isolation_violations": violations}


# ----------------------------------------------------------------------
def run_benchmark(config: str) -> Dict[str, object]:
    spec = CONFIGS[config]
    gbco = build_gbco(rows_per_relation=spec["rows_per_relation"])
    held_out = sorted(
        {
            relation.split(".")[0]
            for entry_index in spec["view_entries"]
            for relation in gbco.query_log[entry_index].new_relations
        }
    )
    schedules = build_schedules(spec, held_out)

    serial = run_serial(gbco, spec, held_out, schedules)
    concurrent = run_concurrent(gbco, spec, held_out, schedules)
    oracle = run_oracle(gbco, spec, held_out, concurrent)
    if oracle["isolation_violations"]:
        raise AssertionError(
            f"{oracle['isolation_violations']} isolation violations — concurrent "
            "reads diverged from the serial replay of the applied write order"
        )

    serial_wall = serial["wall_seconds"]
    concurrent_wall = concurrent["wall_seconds"]
    speedup = round(serial_wall / concurrent_wall, 2) if concurrent_wall else 0.0
    report = {
        "benchmark": "service_mixed_traffic",
        "workload": (
            "gbco serving: concurrent snapshot-isolated queries + tenant/base "
            "feedback + held-out registrations, oracle-replayed for isolation"
        ),
        "config": {
            "name": config,
            "cpu_count": os.cpu_count(),
            **{k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()},
        },
        "serial": serial,
        "concurrent": {
            k: v for k, v in concurrent.items() if k not in ("write_log", "observations")
        },
        "oracle": oracle,
        "concurrent_read_speedup": speedup,
    }
    return report


def check_against_baseline(report: Dict[str, object], baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures: List[str] = []

    # Deterministic signatures are held to exact equality: drift means the
    # serving layer (or the workload) changed behavior, not performance.
    for leg in ("serial", "concurrent"):
        for metric, old_value in baseline[leg]["counts"].items():
            new_value = report[leg]["counts"].get(metric)
            if new_value != old_value:
                failures.append(
                    f"{leg}.counts.{metric} drifted: baseline {old_value}, got {new_value}"
                )
    for metric in ("isolation_checks", "isolation_violations"):
        if report["oracle"][metric] != baseline["oracle"][metric]:
            failures.append(
                f"oracle.{metric} drifted: baseline {baseline['oracle'][metric]}, "
                f"got {report['oracle'][metric]}"
            )
    if report["oracle"]["isolation_violations"] != 0:
        failures.append("isolation violations must be exactly zero")

    # Machine-normalized throughput ratio (serial and concurrent legs run on
    # the same machine in the same process): allow 20% noise, and skip when
    # the serial leg finishes below the measurement floor.
    old_ratio = baseline["concurrent_read_speedup"]
    new_ratio = report["concurrent_read_speedup"]
    if report["serial"]["wall_seconds"] >= TIMING_GATE_FLOOR_SECONDS:
        if new_ratio < old_ratio * (1.0 - REGRESSION_TOLERANCE):
            failures.append(
                f"concurrent-read speedup regressed >20%: baseline {old_ratio}x, "
                f"got {new_ratio}x"
            )
    else:
        print(
            "note: throughput-ratio gate skipped "
            f"(serial wall {report['serial']['wall_seconds']}s below "
            f"{TIMING_GATE_FLOOR_SECONDS}s noise floor)"
        )

    # Latency percentiles: 20% relative + absolute noise floor.
    for metric in ("latency_p50_seconds", "latency_p95_seconds"):
        old_value = baseline["concurrent"][metric]
        new_value = report["concurrent"][metric]
        if (
            new_value > old_value * (1.0 + REGRESSION_TOLERANCE)
            and new_value - old_value > LATENCY_NOISE_FLOOR_SECONDS
        ):
            failures.append(
                f"concurrent.{metric} regressed >20%: baseline {old_value}s, "
                f"got {new_value}s"
            )

    # The multi-core acceptance gate (large config only; honest skip below).
    if report["config"]["name"] == "large":
        if (os.cpu_count() or 1) >= 2:
            if new_ratio < MIN_CONCURRENT_READ_SPEEDUP:
                failures.append(
                    f"concurrent-read speedup {new_ratio}x below the "
                    f"{MIN_CONCURRENT_READ_SPEEDUP}x multi-core acceptance bar"
                )
        else:
            print(
                "note: >=2x concurrent-read gate skipped (single-CPU host; "
                f"measured ratio {new_ratio}x)"
            )

    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    print(
        f"baseline check ok: speedup {new_ratio}x, "
        f"p95 {report['concurrent']['latency_p95_seconds']}s, "
        f"{report['oracle']['isolation_checks']} isolation checks, 0 violations"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="large")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/BENCH_service.json"), help="report path"
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="baseline JSON to compare against"
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.config)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    serial, concurrent = report["serial"], report["concurrent"]
    print(
        f"serial: {serial['wall_seconds']}s for {serial['counts']['queries']} queries"
        f" / {serial['counts']['feedback']} feedback"
        f" / {serial['counts']['registrations']} registrations"
    )
    print(
        f"concurrent: {concurrent['wall_seconds']}s, "
        f"{concurrent['read_throughput_per_second']} reads/s, "
        f"p50 {concurrent['latency_p50_seconds']}s "
        f"p95 {concurrent['latency_p95_seconds']}s "
        f"p99 {concurrent['latency_p99_seconds']}s "
        f"(speedup {report['concurrent_read_speedup']}x)"
    )
    print(
        f"oracle: {report['oracle']['isolation_checks']} reads checked against "
        f"serial replay, {report['oracle']['isolation_violations']} violations"
    )
    if (os.cpu_count() or 1) < 2:
        print(
            "note: >=2x concurrent-read gate not applicable on this host "
            f"(cpu_count={os.cpu_count()}); ratio recorded for multi-core runs"
        )
    print(f"report written to {args.out}")
    if args.check is not None:
        return check_against_baseline(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
