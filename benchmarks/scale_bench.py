"""Catalog-scale registration benchmark: sharded index + tiered MinHash blocking.

Measures how source registration scales as the catalog grows to 10k+
relations, exercising the two scaling layers of the profile index:

* **sharded posting lists** (``ServiceConfig.profile_shards``),
* **tiered blocking** — MinHash/LSH sketch candidates re-verified by the
  exact posting-list tier (``ServiceConfig.sketch_num_perm``), driven
  through the ``profile_blocked`` aligner strategy.

The synthetic workload extends the Figure 8 generator: community-pooled
values (see :func:`repro.datasets.synthetic.make_community_source`) give
each relation dense overlap with its own community and none outside it, so
the sketch tier has something real to prune against — the exhaustive
baseline would compare every new attribute against every catalog attribute.

At the smallest size the bench asserts **parity**: accepted correspondences
and edge ids are byte-identical across {sharded, unsharded} x {sketch on,
off} and across the exhaustive vs profile_blocked strategies.  For every
size it reports registration seconds, comparisons per tier (sketch
proposals, exact survivors, pairs scored) against the exhaustive pair
count, and the sketch tier's pruning fraction.

With ``--check BASELINE`` the run compares itself against a checked-in
baseline and exits non-zero on any drift of the deterministic per-tier
counts, on a sketch-pruning fraction below the 80% floor at the largest
size, or on a >20% regression of the (machine-normalized) largest/smallest
registration-time scaling ratio.

Usage::

    PYTHONPATH=src python benchmarks/scale_bench.py \
        --config large --out BENCH_scale.json
    PYTHONPATH=src python benchmarks/scale_bench.py \
        --config small --check benchmarks/BENCH_scale_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_HERE), str(_SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.api.service import QService  # noqa: E402
from repro.api.types import RegisterSourceRequest, ServiceConfig  # noqa: E402
from repro.datasets.synthetic import make_community_source  # noqa: E402

#: Named configurations.  ``large`` is the 10k-relation acceptance run;
#: ``small`` is the CI smoke configuration.
CONFIGS = {
    "small": dict(sizes=[120, 300], new_sources=5, communities=8),
    "large": dict(sizes=[1000, 4000, 10000], new_sources=10, communities=16),
}

#: Allowed relative slack on the timing scaling ratio when checking.
REGRESSION_TOLERANCE = 0.20

#: Smallest-size serial registration time below which the scaling-ratio
#: gate is noise-dominated and skipped.
TIMING_GATE_FLOOR_SECONDS = 0.25

#: The tentpole acceptance floor: the sketch tier must keep at least this
#: fraction of exhaustive attribute pairs away from the exact tier.
PRUNING_FLOOR = 0.80

#: MinHash shape used by every sketch-enabled mode.
SKETCH_NUM_PERM = 48


def _service_config(shards: int = 1, sketch: bool = True) -> ServiceConfig:
    return ServiceConfig(
        profile_shards=shards,
        sketch_num_perm=SKETCH_NUM_PERM if sketch else 0,
    )


def _existing_sources(size: int, communities: int) -> List:
    return [
        make_community_source(f"scale_{i:05d}", community=i % communities, seed=i)
        for i in range(size)
    ]


def _new_sources(count: int, size: int, communities: int) -> List:
    # Seeds offset past the catalog so new sources repeat no existing draw.
    return [
        make_community_source(
            f"incoming_{j:03d}", community=j % communities, seed=size + j
        )
        for j in range(count)
    ]


def _run_registrations(
    size: int,
    communities: int,
    new_count: int,
    config: ServiceConfig,
    strategy: str = "profile_blocked",
) -> Dict[str, object]:
    """Build a size-N catalog service and register ``new_count`` sources."""
    existing = _existing_sources(size, communities)
    setup_start = time.perf_counter()
    service = QService(existing, config=config)
    setup_seconds = time.perf_counter() - setup_start

    correspondence_log: List[Tuple] = []
    exhaustive_pairs = 0
    registration_start = time.perf_counter()
    for source in _new_sources(new_count, size, communities):
        new_arity = sum(
            len(t.schema.attribute_names) for t in source.tables()
        )
        exhaustive_pairs += new_arity * service.catalog.attribute_count
        response = service.register_source(
            RegisterSourceRequest(source=source, strategy=strategy, value_filter=True)
        )
        for c in response.alignment.correspondences:
            correspondence_log.append(
                (c.source.qualified, c.target.qualified, c.confidence, c.matcher)
            )
        for edge in response.alignment.edges_added:
            correspondence_log.append(("edge", edge.edge_id))
    registration_seconds = time.perf_counter() - registration_start
    stats = service.stats()
    return {
        "setup_seconds": round(setup_seconds, 4),
        "registration_seconds": round(registration_seconds, 4),
        "sketch_candidates": stats.sketch_candidates,
        "exact_candidates": stats.exact_candidates,
        "pairs_scored": stats.pairs_scored,
        "profile_shards": stats.profile_shards,
        "exhaustive_pairs": exhaustive_pairs,
        "_correspondence_log": correspondence_log,
    }


def _assert_parity(size: int, communities: int, new_count: int) -> Dict[str, object]:
    """Byte-identical registrations across every scaling-knob combination."""
    modes = {
        "exhaustive_serial_flat": ("exhaustive", _service_config(1, sketch=False)),
        "exhaustive_sketch": ("exhaustive", _service_config(1, sketch=True)),
        "blocked_serial_flat": ("profile_blocked", _service_config(1, sketch=False)),
        "blocked_serial_sketch": ("profile_blocked", _service_config(1, sketch=True)),
        "blocked_sharded_sketch": ("profile_blocked", _service_config(4, sketch=True)),
    }
    reference = None
    for name, (strategy, config) in modes.items():
        run = _run_registrations(size, communities, new_count, config, strategy)
        log = run["_correspondence_log"]
        if reference is None:
            reference = (name, log)
        elif log != reference[1]:
            raise AssertionError(
                f"registration parity violated: mode {name!r} accepted different "
                f"correspondences/edges than {reference[0]!r} at {size} relations"
            )
    return {
        "relations": size,
        "modes": sorted(modes),
        "accepted": sum(1 for entry in reference[1] if entry[0] != "edge"),
        "edges": sum(1 for entry in reference[1] if entry[0] == "edge"),
    }


def run_benchmark(config: str) -> Dict[str, object]:
    spec = CONFIGS[config]
    sizes: List[int] = spec["sizes"]
    communities: int = spec["communities"]
    new_count: int = spec["new_sources"]

    parity = _assert_parity(sizes[0], communities, new_count)

    curve = []
    for size in sizes:
        run = _run_registrations(
            size, communities, new_count, _service_config(4, sketch=True)
        )
        exhaustive = run["exhaustive_pairs"]
        pruning = 1.0 - run["sketch_candidates"] / exhaustive if exhaustive else 0.0
        curve.append(
            {
                "relations": size,
                "setup_seconds": run["setup_seconds"],
                "registration_seconds_serial": run["registration_seconds"],
                "exhaustive_pairs": exhaustive,
                "sketch_candidates": run["sketch_candidates"],
                "exact_candidates": run["exact_candidates"],
                "pairs_scored": run["pairs_scored"],
                "sketch_pruning_fraction": round(pruning, 4),
            }
        )

    scaling_ratio = (
        curve[-1]["registration_seconds_serial"]
        / curve[0]["registration_seconds_serial"]
        if curve[0]["registration_seconds_serial"] > 0
        else float("inf")
    )
    return {
        "benchmark": "scale_registration",
        "workload": "community-pooled fig8 synthetic catalog, profile_blocked strategy",
        "config": {
            "name": config,
            "sizes": sizes,
            "new_sources_per_size": new_count,
            "communities": communities,
            "sketch_num_perm": SKETCH_NUM_PERM,
        },
        "cpu_count": os.cpu_count(),
        "parity": parity,
        "curve": curve,
        "scaling_ratio_largest_vs_smallest": round(scaling_ratio, 2),
    }


def check_against_baseline(report: Dict[str, object], baseline_path: Path) -> int:
    """Compare ``report`` to a checked-in baseline; return a process exit code."""
    baseline = json.loads(baseline_path.read_text())
    failures: List[str] = []

    # Per-tier candidate counts are deterministic for a given config: any
    # drift means the blocking tiers changed behaviour.
    base_curve = {point["relations"]: point for point in baseline["curve"]}
    new_curve = {point["relations"]: point for point in report["curve"]}
    for relations, base in base_curve.items():
        new = new_curve.get(relations)
        if new is None:
            failures.append(f"curve point at {relations} relations missing")
            continue
        for metric in (
            "exhaustive_pairs",
            "sketch_candidates",
            "exact_candidates",
            "pairs_scored",
        ):
            if new[metric] != base[metric]:
                failures.append(
                    f"{relations}-relation {metric} drifted: baseline "
                    f"{base[metric]}, got {new[metric]}"
                )

    # The tentpole floor: at the largest size the sketch tier must keep at
    # least PRUNING_FLOOR of exhaustive pairs away from the exact tier.
    largest = report["curve"][-1]
    if largest["sketch_pruning_fraction"] < PRUNING_FLOOR:
        failures.append(
            f"sketch tier pruned only {largest['sketch_pruning_fraction']:.1%} of "
            f"exhaustive pairs at {largest['relations']} relations "
            f"(floor {PRUNING_FLOOR:.0%})"
        )

    # Timing gate, machine-normalized: the largest/smallest registration
    # scaling ratio must not regress more than the tolerance.  Sub-noise
    # measurements (CI smoke sizes finish in hundredths of a second) make
    # the ratio jitter far beyond any real regression, so the gate applies
    # only when the smallest-size timing is meaningfully measurable.
    base_ratio = baseline["scaling_ratio_largest_vs_smallest"]
    new_ratio = report["scaling_ratio_largest_vs_smallest"]
    smallest_seconds = report["curve"][0]["registration_seconds_serial"]
    if smallest_seconds < TIMING_GATE_FLOOR_SECONDS:
        print(
            f"note: scaling-ratio gate skipped (smallest-size registration took "
            f"{smallest_seconds}s < {TIMING_GATE_FLOOR_SECONDS}s, noise-dominated); "
            f"measured {new_ratio}x vs baseline {base_ratio}x"
        )
    elif new_ratio > base_ratio * (1.0 + REGRESSION_TOLERANCE):
        failures.append(
            f"registration scaling ratio regressed >20%: baseline {base_ratio}x, "
            f"got {new_ratio}x"
        )

    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    print(
        f"baseline check ok: pruning {largest['sketch_pruning_fraction']:.1%} at "
        f"{largest['relations']} relations, scaling ratio {new_ratio}x "
        f"(baseline {base_ratio}x), per-tier counts exactly match"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="large")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/BENCH_scale.json"), help="report path"
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="baseline JSON to compare against"
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.config)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    largest = report["curve"][-1]
    print(
        f"scale bench ({args.config}): {largest['relations']} relations, "
        f"{largest['registration_seconds_serial']}s for "
        f"{report['config']['new_sources_per_size']} registrations, sketch tier pruned "
        f"{largest['sketch_pruning_fraction']:.1%} of "
        f"{largest['exhaustive_pairs']} exhaustive pairs; report written to {args.out}"
    )
    if args.check is not None:
        return check_against_baseline(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
