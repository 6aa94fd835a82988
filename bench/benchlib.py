"""Pure helpers of the loop benchmark: metric tables, the percentile rule,
answer fingerprints, seeded schedules and the ``--compare`` verdicts.

Nothing here imports ``repro``; :mod:`workloads` does the measuring and
:mod:`run` the orchestration.  ``test_bench_lib.py`` covers this module and
:mod:`tracer` in tier-1.
"""

from __future__ import annotations

import bisect
import hashlib
import marshal
import random
import statistics
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import tracer as tracing

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "loop_memory",
        "the whole loop on the memory backend: steiner + graph expansion + learning "
        "dominate, the Python engine serves the cold reads after each reopen",
    ),
    (
        "loop_sqlite",
        "byte-identical schedule on a sqlite file: execution moves into storage pushdown, "
        "so a pushdown gain shows here and leaves loop_memory flat, an engine gain the reverse",
    ),
    (
        "solve_topk",
        "top-k Steiner solves over grown graphs, a grid of sources n x terminals t x k: "
        "steiner does >90% of the work, engine almost none (the enumeration cliff)",
    ),
    (
        "register_scale",
        "100 blocked registrations and 25 removals on a 3000-relation catalog: profiling + "
        "matching + alignment do all the work, steiner and engine none",
    ),
    (
        "serve_mixed",
        "QServer with 2 closed-loop clients, 96% reads beside feedback and registrations: "
        "the only workload where snapshot capture, carry-over and the read pool matter",
    ),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)
SERIAL_WORKLOADS = ("loop_memory", "loop_sqlite", "solve_topk", "register_scale")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


#: The end-to-end metrics every workload reports — the ``end_to_end`` list of
#: BENCHMARK.json.  ``op_*`` is the latency of the workload's headline
#: operation (see :data:`HEADLINE`): its mean, because the median of
#: ``serve_mixed`` reads is a 0.2-0.5 ms thread hand-off that flips between
#: two modes from run to run, and a tail percentile.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("op_mean_ms", "ms", "lower", 0.25),
    Metric("op_tail_ms", "ms", "lower", 0.25),
)

#: Per-operation metrics only some workloads can measure.  They are printed
#: and compared by ``run.py`` but are not in BENCHMARK.json, whose contract
#: wants every listed metric from every workload.
DETAIL: Tuple[Metric, ...] = (
    Metric("failed_frac", "ratio", "lower", 0.0),
    Metric("first_read_p50_ms", "ms", "lower", 0.25),
    Metric("page_read_p50_us", "us", "lower", 0.25),
    Metric("reread_p50_ms", "ms", "lower", 0.25),
    Metric("reread_p90_ms", "ms", "lower", 0.25),
    Metric("feedback_p50_ms", "ms", "lower", 0.25),
    Metric("cold_read_p50_ms", "ms", "lower", 0.25),
    Metric("restart_p50_ms", "ms", "lower", 0.25),
    Metric("register_p50_ms", "ms", "lower", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_p95_ms", "ms", "lower", 0.25),
    Metric("read_per_s", "1/s", "higher", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25),
)

#: workload -> (sample series behind ``op_mean_ms``/``op_tail_ms``, what it is).
HEADLINE: Dict[str, Tuple[str, str]] = {
    "loop_memory": ("reread", "first full read of a view after feedback or registration"),
    "loop_sqlite": ("reread", "first full read of a view after feedback or registration"),
    "solve_topk": ("cell", "create_view + full read of one (n, t, k) grid cell"),
    "register_scale": ("register", "one register_source(profile_blocked)"),
    "serve_mixed": ("read", "client-observed QServer.query"),
}

#: The (sources n, terminals t, top_k k) grid of ``solve_topk``.
SOLVE_CELLS: Tuple[Tuple[int, int, int], ...] = (
    (100, 2, 20),
    (100, 3, 5),
    (100, 3, 10),
    (100, 3, 20),
    (100, 4, 5),
    (300, 2, 20),
    (300, 3, 5),
)


def cell_name(n: int, t: int, k: int) -> str:
    return f"n{n}_t{t}_k{k}"


#: Counters and ratios of the traced run, beside the ``.self_s``/``.calls``
#: pair every wrap point yields: ``(name, unit, better)``.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("service.carryover_ratio", "ratio", "higher"),
    ("service.write_wait_s", "s", "lower"),
    ("service.writes_retried", "count", "lower"),
    ("service.reads_degraded", "count", "lower"),
    ("core.refresh_skip_ratio", "ratio", "higher"),
    ("core.answer_reuse_ratio", "ratio", "higher"),
    ("steiner.cache_hit_ratio", "ratio", "higher"),
    ("steiner.rescores", "count", "lower"),
    ("steiner.trees_per_base_solve", "ratio", "higher"),
    *((f"steiner.cell.{cell_name(*cell)}.s", "s", "lower") for cell in SOLVE_CELLS),
    ("engine.answers_per_execute", "ratio", "higher"),
    ("storage.pushdown_union_queries", "count", "lower"),
    ("storage.pushdown_queries", "count", "lower"),
    ("storage.pushdown_scans", "count", "lower"),
    ("storage.posting_builds", "count", "lower"),
    ("storage.bytes", "bytes", "lower"),
    ("profiling.pruned_fraction", "ratio", "higher"),
    ("profiling.verified_ratio", "ratio", "lower"),
    ("profiling.pairs_scored", "count", "lower"),
    ("matching.attribute_comparisons", "count", "lower"),
    ("alignment.edges_added", "count", "higher"),
    ("learning.learner_steps", "count", "lower"),
    ("persist.bytes_on_disk", "bytes", "lower"),
    ("persist.journal_entries", "count", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.points_missing", "count", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric of a traced run: ``(name, unit, better)``."""
    metrics: List[Tuple[str, str, str]] = []
    for name, _target, _count in tracing.POINTS:
        metrics.append((f"{name}.self_s", "s", "lower"))
        metrics.append((f"{name}.calls", "count", "lower"))
    metrics.extend(COUNTERS)
    return metrics


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
#: A median needs this many samples to be reported at all.
MIN_MEDIAN_SAMPLES = 15
#: A tail percentile needs this many samples beyond it ...
MIN_TAIL_SAMPLES = 10
#: ... and the headline tail, the one a regression bound applies to, this
#: many: ten samples ride on a single slow burst of the host too easily.
HEADLINE_TAIL_SAMPLES = 15
_TAILS = (0.99, 0.95, 0.90, 0.75)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (not necessarily sorted)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def supported_tail(count: int, beyond: int = MIN_TAIL_SAMPLES) -> Optional[float]:
    """The highest of p99/p95/p90/p75 with at least ``beyond`` samples beyond it."""
    for fraction in _TAILS:
        if count - int(fraction * count) - 1 >= beyond:
            return fraction
    return None


def median_or_none(samples: Sequence[float]) -> Optional[float]:
    if len(samples) < MIN_MEDIAN_SAMPLES:
        return None
    return statistics.median(samples)


def headline(samples: Sequence[float]) -> Tuple[float, float, str]:
    """``(mean, tail, tail label)`` of a workload's headline operation.

    Unlike the per-operation detail metrics these two are always reported
    (BENCHMARK.json wants them from every workload): with too few samples
    for a percentile — ``solve_topk`` has one sample per grid cell — the
    tail is the slowest sample.
    """
    fraction = supported_tail(len(samples), HEADLINE_TAIL_SAMPLES)
    if fraction is None:
        return statistics.fmean(samples), max(samples), "max"
    return statistics.fmean(samples), percentile(samples, fraction), f"p{round(fraction * 100)}"


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (the driver's measure).

    With fewer than four values the quartiles are not defined; the full
    range stands in, which only overstates the spread.
    """
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


# ----------------------------------------------------------------------
# Reference-speed time
# ----------------------------------------------------------------------
#: What one run of the calibration kernel takes on the reference host (this
#: repo's 2-vCPU bench host on a quiet minute).  Times are reported in
#: seconds *at that speed*: see README "Reference-speed seconds".
CAL_NOMINAL_SECONDS = 0.0012
#: Samples this close to an interval's ends also speak for it.
CAL_PAD_SECONDS = 0.1


def host_speed(
    times: Sequence[float], durations: Sequence[float], start: float, end: float
) -> float:
    """Host speed over ``[start, end]`` relative to the reference host.

    ``times`` (ascending) and ``durations`` are the calibration samples: when
    each kernel run happened and how long it took.  The speed is the mean of
    nominal ÷ observed over the samples inside the padded interval — the
    samples are evenly spaced in time, so this is the time average of the
    rate at which the host got work done; with no sample inside, the nearest
    one speaks.  1.0 when nothing was sampled at all.
    """
    if not times:
        return 1.0
    lo = bisect.bisect_left(times, start - CAL_PAD_SECONDS)
    hi = bisect.bisect_right(times, end + CAL_PAD_SECONDS)
    if lo == hi:
        nearest = min(
            (index for index in (lo - 1, lo) if 0 <= index < len(times)),
            key=lambda index: abs(times[index] - start),
        )
        lo, hi = nearest, nearest + 1
    return statistics.fmean(CAL_NOMINAL_SECONDS / d for d in durations[lo:hi])


def calibration_seconds(
    times: Sequence[float], durations: Sequence[float], start: float, end: float
) -> float:
    """Time the calibration kernel itself took inside ``[start, end]``."""
    return sum(durations[bisect.bisect_left(times, start):bisect.bisect_right(times, end)])


def reference_seconds(
    times: Sequence[float], durations: Sequence[float], start: float, end: float
) -> float:
    """``[start, end]`` net of calibration, in seconds at reference speed."""
    net = end - start - calibration_seconds(times, durations, start, end)
    return net * host_speed(times, durations, start, end)


# ----------------------------------------------------------------------
# Output fingerprints
# ----------------------------------------------------------------------
def fingerprint(answers: Iterable) -> List[Tuple]:
    """Ranking fingerprint of an answer list: values, cost, producing tree
    and sorted base tuples (distinct trees often project identical values)."""
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


def digest(value: object) -> str:
    """Stable short hash of nested tuples/lists of str, float, int and None.

    ``marshal`` version 2 writes neither back-references nor interned-string
    markers, so equal values give equal bytes whatever objects they share —
    and it is four times cheaper than hashing ``repr``, which matters because
    the loops fingerprint every read inside their timed section.
    """
    return hashlib.sha256(marshal.dumps(value, 2)).hexdigest()[:16]


def ascending(costs: Sequence[float]) -> bool:
    return all(a <= b for a, b in zip(costs, costs[1:]))


# ----------------------------------------------------------------------
# Seeded schedules
# ----------------------------------------------------------------------
def loop_schedule(seed: int, views: int, rounds: int, feedbacks: int) -> List[Dict[str, object]]:
    """Per-round plan of the ``loop_*`` workloads.

    The seed decides the order in which the views are paged and re-read.
    Which views get feedback, on which answer rank, and the order the
    held-out sources are registered in are fixed functions of the round:
    solve time is chaotic in those choices (one different annotation
    re-ranks trees for the rest of the run and moved the prototype's wall
    time by 40%), so letting the seed pick them would measure the seed.
    """
    rng = random.Random(seed)
    plan = []
    for index in range(rounds):
        orders = []
        for _ in range(3):  # page-through, re-read after feedback, after registration
            order = list(range(views))
            rng.shuffle(order)
            orders.append(order)
        plan.append(
            {
                "page_order": orders[0],
                "reread_orders": orders[1:],
                # (view to try, answer rank); views with no answers are
                # skipped, so the list offers every view once.
                "feedback": [
                    ((feedbacks * index + offset) % views, 3 * index + offset)
                    for offset in range(views)
                ],
            }
        )
    return plan


def serve_schedule(
    seed: int,
    clients: int,
    ops: int,
    views: int,
    tenants: int,
    write_share: float,
    registrations: int,
) -> List[List[Dict[str, object]]]:
    """Per-client op lists of ``serve_mixed``.

    Each op is a query or, with probability ``write_share``, a feedback;
    the held-out registrations sit at fixed, evenly spaced positions of the
    clients' lists in turn, so every seed pays for them at the same points
    of the run.
    """
    schedules: List[List[Dict[str, object]]] = []
    for client in range(clients):
        rng = random.Random(seed * 1000 + client)
        client_ops: List[Dict[str, object]] = []
        for _ in range(ops):
            op: Dict[str, object] = {
                "op": "feedback" if rng.random() < write_share else "query",
                "view": rng.randrange(views),
                "tenant": rng.randrange(tenants),
            }
            if op["op"] == "feedback":
                op["index"] = rng.randrange(10)
            client_ops.append(op)
        schedules.append(client_ops)
    for number in range(registrations):
        position = (number + 1) * ops // (registrations + 1)
        schedules[number % clients][position] = {"op": "register"}
    return schedules


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def metric_table() -> Dict[str, Metric]:
    return {metric.name: metric for metric in END_TO_END + DETAIL}


def verdict(metric: Metric, a: Sequence[float], b: Sequence[float]) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for B against A.

    ``unresolved`` = either side's own run-to-run spread exceeds the bound,
    so a difference of that size cannot be told from noise.
    """
    median_a, median_b = statistics.median(a), statistics.median(b)
    if metric.bound == 0.0:  # failed_frac: any increase is a regression
        return "worse" if median_b > median_a else "better" if median_b < median_a else "same"
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    if not median_a:
        return "same" if not median_b else "unresolved"
    change = (median_b - median_a) / abs(median_a)
    if metric.better == "higher":
        change = -change
    if change > metric.bound:
        return "worse"
    if change < -metric.bound:
        return "better"
    return "same"


def compare(result_a: Dict, result_b: Dict) -> Tuple[List[Dict[str, object]], bool]:
    """One row per workload x end-to-end metric present in both files."""
    rows: List[Dict[str, object]] = []
    any_worse = False
    table = metric_table()
    for workload in WORKLOAD_NAMES:
        metrics_a = result_a.get("workloads", {}).get(workload, {}).get("metrics", {})
        metrics_b = result_b.get("workloads", {}).get(workload, {}).get("metrics", {})
        for name, metric in table.items():
            if name not in metrics_a or name not in metrics_b:
                continue
            values_a, values_b = metrics_a[name]["values"], metrics_b[name]["values"]
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            outcome = verdict(metric, values_a, values_b)
            any_worse = any_worse or outcome == "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric.unit,
                    "a": median_a,
                    "b": median_b,
                    "ratio": (median_b / median_a) if median_a else None,
                    "spread_a": spread(values_a),
                    "spread_b": spread(values_b),
                    "bound": metric.bound,
                    "verdict": outcome,
                }
            )
    return rows, any_worse
