"""Observability overhead benchmark: the disabled mode must be (nearly) free.

Builds three identical GBCO serving stacks — same sources, same bootstrap
alignment, same ranked keyword view behind a :class:`repro.service.QServer`
— that differ only in how observability is wired:

* ``noop``     — ``service.obs`` replaced with ``Observability.noop()``
  (NullRegistry, disabled tracer): the true do-nothing floor.
* ``disabled`` — ``ServiceConfig(observability=False)``: the supported
  off switch users actually flip.  Counters still move on the real
  registry; tracing, explain and slow-query logging are bypassed.
* ``enabled``  — the default: full span trees, decision log, per-stage
  histograms.

The timed workload is the serving hot path: repeated cached reads of the
pinned view through ``QServer.query``.  Legs are interleaved round-robin
and each leg's cost is the *minimum* across rounds, so a GC pause or a
noisy neighbour in one round cannot fail the gate.

The acceptance gate (enforced with ``--check``): the disabled-mode leg may
cost at most 3% more than the noop floor (plus an absolute noise floor for
very fast runs).  Answer parity across all three legs is asserted — the
observability layer must never change what a read returns.

Usage::

    PYTHONPATH=src python benchmarks/obs_bench.py \
        --config small --out benchmarks/BENCH_obs.json
    PYTHONPATH=src python benchmarks/obs_bench.py \
        --config small --check benchmarks/BENCH_obs_baseline.json
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

from repro.api import QService, QueryRequest, ServiceConfig  # noqa: E402
from repro.datasets import build_gbco  # noqa: E402
from repro.datastore.csvio import source_from_dict, source_to_dict  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.service import QServer  # noqa: E402

LEGS = ("noop", "disabled", "enabled")

CONFIGS = {
    "small": dict(rows_per_relation=30, reads_per_round=2000, rounds=3),
    "large": dict(rows_per_relation=30, reads_per_round=10000, rounds=5),
}

#: The acceptance bar: disabled-mode observability may add at most this
#: fraction on top of the no-observability floor.
MAX_DISABLED_OVERHEAD = 0.03

#: Absolute slack for very fast runs where a single scheduler hiccup
#: exceeds 3% of the whole leg.
NOISE_FLOOR_SECONDS = 0.05

#: Allowed relative drift on the enabled-mode overhead ratio vs baseline.
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


def _build_leg(leg: str, rows: int):
    """One full serving stack for one observability mode."""
    gbco = build_gbco(rows_per_relation=rows)
    keywords = tuple(list(gbco.query_log)[0].keywords)
    config = ServiceConfig(
        top_k=5,
        top_y=1,
        observability=(leg == "enabled"),
    )
    service = QService(
        sources=[_clone(source) for source in gbco.catalog],
        config=config,
    )
    service.bootstrap_alignments()
    if leg == "noop":
        # Replace the whole bundle before the server binds it: NullRegistry
        # instruments, disabled tracer — the true do-nothing floor.
        service.obs = Observability.noop()
    server = QServer(service)
    # Prime: the first read materializes the view into the snapshot slot so
    # every timed read afterwards is a hot cached replay.
    first = server.query(QueryRequest(keywords=keywords))
    return server, first


def run_benchmark(config: str) -> Dict[str, object]:
    spec = CONFIGS[config]
    rows = spec["rows_per_relation"]
    reads = spec["reads_per_round"]
    rounds = spec["rounds"]

    stacks = {}
    fingerprints = {}
    view_ids = {}
    for leg in LEGS:
        server, first = _build_leg(leg, rows)
        stacks[leg] = server
        fingerprints[leg] = _answer_fingerprint(first.answers)
        view_ids[leg] = first.view_id

    # Parity: observability must never change what a read returns.
    if not fingerprints["enabled"]:
        raise AssertionError("workload produced no answers — vacuous parity")
    for leg in ("noop", "disabled"):
        if fingerprints[leg] != fingerprints["enabled"]:
            raise AssertionError(
                f"parity violated: {leg} leg answered differently from enabled"
            )

    # Interleaved min-of-rounds timing over the cached-read hot path.
    best: Dict[str, float] = {leg: float("inf") for leg in LEGS}
    for _ in range(rounds):
        for leg in LEGS:
            server = stacks[leg]
            request = QueryRequest(view=view_ids[leg])
            start = time.perf_counter()
            for _ in range(reads):
                server.query(request)
            elapsed = time.perf_counter() - start
            best[leg] = min(best[leg], elapsed)

    enabled_service = stacks["enabled"]._service
    total_reads = 1 + rounds * reads  # prime + timed, per leg
    counts = {
        "answers": len(fingerprints["enabled"]),
        "reads_per_leg": total_reads,
        "enabled_reads_counted": int(
            enabled_service.obs.registry.value("q_reads_total")
        ),
        "disabled_reads_counted": int(
            stacks["disabled"]._service.obs.registry.value("q_reads_total")
        ),
        "enabled_decisions": len(enabled_service.obs.decisions),
        "enabled_paths": sorted(
            {
                record.path
                for record in enabled_service.obs.decisions.records()
            }
        ),
        "parity": "identical ranked answers across all three legs",
    }
    # The decision log is bounded; it retains min(its bound, reads).
    expected_decisions = min(enabled_service.obs.decisions.maxlen, total_reads)
    if counts["enabled_decisions"] != expected_decisions:
        raise AssertionError(
            f"decision log held {counts['enabled_decisions']} records, "
            f"expected {expected_decisions}"
        )
    if counts["enabled_reads_counted"] != total_reads:
        raise AssertionError(
            f"enabled leg counted {counts['enabled_reads_counted']} reads, "
            f"expected {total_reads}"
        )
    for leg in LEGS:
        stacks[leg].close()

    noop_s = best["noop"]
    disabled_s = best["disabled"]
    enabled_s = best["enabled"]
    budget = max(MAX_DISABLED_OVERHEAD * noop_s, NOISE_FLOOR_SECONDS)
    return {
        "benchmark": "obs_overhead",
        "workload": (
            "gbco ranked keyword view, hot cached QServer reads, "
            "legs interleaved round-robin, min-of-rounds timing"
        ),
        "config": {
            "name": config,
            "rows_per_relation": rows,
            "reads_per_round": reads,
            "rounds": rounds,
        },
        "legs": {
            "noop_seconds": round(noop_s, 4),
            "disabled_seconds": round(disabled_s, 4),
            "enabled_seconds": round(enabled_s, 4),
        },
        "overhead": {
            "disabled_vs_noop_seconds": round(disabled_s - noop_s, 4),
            "disabled_vs_noop_fraction": round(
                (disabled_s - noop_s) / noop_s, 4
            )
            if noop_s
            else 0.0,
            "enabled_vs_noop_fraction": round((enabled_s - noop_s) / noop_s, 4)
            if noop_s
            else 0.0,
            "budget_seconds": round(budget, 4),
            "gate": (
                f"disabled - noop must stay within "
                f"max({MAX_DISABLED_OVERHEAD:.0%} of noop, "
                f"{NOISE_FLOOR_SECONDS}s)"
            ),
            "gate_passed": (disabled_s - noop_s) <= budget,
        },
        "counts": counts,
    }


def check_against_baseline(report: Dict[str, object], baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    # Deterministic counts are held to exact equality: drift means the
    # observability wiring (or the workload) changed behavior.
    for metric, old_value in baseline["counts"].items():
        new_value = report["counts"].get(metric)
        if new_value != old_value:
            failures.append(
                f"counts.{metric} drifted: baseline {old_value!r}, got {new_value!r}"
            )
    # The hard acceptance gate, machine-normalized (all legs run
    # interleaved in the same process on the same machine).
    overhead = report["overhead"]
    if not overhead["gate_passed"]:
        failures.append(
            f"disabled-mode overhead {overhead['disabled_vs_noop_seconds']}s "
            f"exceeds budget {overhead['budget_seconds']}s "
            f"({overhead['disabled_vs_noop_fraction']:+.1%} vs noop floor)"
        )
    # Enabled-mode cost is informational but shouldn't silently balloon:
    # allow baseline ratio + 20 percentage points of slack.
    old_enabled = baseline["overhead"]["enabled_vs_noop_fraction"]
    new_enabled = overhead["enabled_vs_noop_fraction"]
    if new_enabled > old_enabled + REGRESSION_TOLERANCE:
        failures.append(
            f"enabled-mode overhead grew: baseline {old_enabled:+.1%}, "
            f"got {new_enabled:+.1%} (allowed slack {REGRESSION_TOLERANCE:.0%})"
        )
    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    print(
        f"baseline check ok: disabled overhead "
        f"{overhead['disabled_vs_noop_fraction']:+.1%} within gate, "
        f"counts exactly match"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="small")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/BENCH_obs.json"), help="report path"
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="baseline JSON to compare against"
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.config)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    legs = report["legs"]
    overhead = report["overhead"]
    print(
        f"noop {legs['noop_seconds']}s | disabled {legs['disabled_seconds']}s "
        f"({overhead['disabled_vs_noop_fraction']:+.1%}) | "
        f"enabled {legs['enabled_seconds']}s "
        f"({overhead['enabled_vs_noop_fraction']:+.1%})"
    )
    print(f"report written to {args.out}")
    if args.check is not None:
        return check_against_baseline(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
