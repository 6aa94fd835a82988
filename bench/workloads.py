"""The five workloads of the loop benchmark, run one per child process.

``python bench/workloads.py --workload W --seed N --seconds S --trace 0|1``
builds the workload's inputs from the seed, times its closed loop, checks
the outputs and prints one JSON report as the last line of stdout;
:mod:`run` spawns it (with ``PYTHONHASHSEED=0``) and aggregates.

The timed paths import only ``repro.api``, ``repro.service``,
``repro.datasets`` and ``repro.datastore.csvio``.  Everything a later
refactor may remove is looked up at run time and tolerated when absent: the
tracer's wrap points, and the process-global edge-id counter that
:func:`reset_edge_ids` restarts so two sessions built in one process get
the same edge ids.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import gc
import json
import os
import random
import heapq
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
for _path in (str(_HERE), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import benchlib  # noqa: E402
import tracer as tracing  # noqa: E402
from repro.api import (  # noqa: E402
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco, grow_catalog_and_graph  # noqa: E402
from repro.datasets.synthetic import make_community_source  # noqa: E402
from repro.datastore.csvio import source_from_dict, source_to_dict  # noqa: E402
from repro.service import QServer  # noqa: E402

#: Scratch files (session sidecars, sqlite databases) live here, inside the
#: checkout, one temporary directory per run, removed when the run ends.
WORK_ROOT = _ROOT / ".bench_work"

#: ``--seconds`` the sizes below were tuned for; other values scale the
#: repeat counts linearly, so the work stays a function of (seed, seconds).
NOMINAL_SECONDS = 15

#: Set-ups per run: ``setup_s`` is their median, the last one built is the
#: one the timed section uses.  A set-up that takes under a second is cheap
#: enough to repeat more often, which its relative jitter needs.
SETUP_REPS = 3
CHEAP_SETUP_REPS = 7

# ---- loop_memory / loop_sqlite ---------------------------------------
LOOP_ROWS = 100
LOOP_TOP_K = 10
LOOP_ROUNDS = 8
LOOP_FEEDBACKS = 4
LOOP_RESTARTS = 20
LOOP_COLD_READ_EVERY = 4
LOOP_PAGE_SIZE = 10
#: Held out of the initial catalog and registered one per round.  Fixed,
#: not seeded: see :func:`benchlib.loop_schedule`.
LOOP_HELD_OUT = (
    "author", "experiment", "gene", "ortholog", "pathway", "probe", "protein", "publication",
)

# ---- solve_topk --------------------------------------------------------
SOLVE_ROWS = 10
SOLVE_GROWTH_SEED = 3
SOLVE_KEYWORDS = {
    2: ("insulin", "pathway"),
    3: ("insulin", "pathway", "expression"),
    4: ("insulin", "pathway", "expression", "publication"),
}
#: The cell after which one feedback + re-read runs (cold solve beside
#: re-solve after MIRA).
SOLVE_FEEDBACK_CELL = (100, 3, 5)

# ---- register_scale ----------------------------------------------------
SCALE_RELATIONS = 2000
SCALE_COMMUNITIES = 16
SCALE_REGISTRATIONS = 200
SCALE_REMOVE_EVERY = 4
SCALE_SHARDS = 4
SCALE_SKETCH_PERM = 48

# ---- serve_mixed -------------------------------------------------------
SERVE_ROWS = 30
SERVE_VIEWS = (2, 3, 7, 12)  # query-log entries
SERVE_TENANTS: Tuple[Optional[str], ...] = (None, "alice", "bob")
SERVE_CLIENTS = 2
SERVE_OPS = 3500
SERVE_WRITE_SHARE = 0.02
SERVE_PAGE_SIZE = 10


def clone(source):
    return source_from_dict(source_to_dict(source))


def reset_edge_ids() -> None:
    """Restart the process-global edge-id counter, while there is one."""
    try:
        from repro.graph.edges import set_edge_id_counter
    except ImportError:  # ids became per-graph: nothing to restart
        return
    set_edge_id_counter(0)


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _calibration_kernel() -> None:
    """About 1 ms of the interpreter work the workloads are made of: heap
    pushes and pops, dict updates, small-int arithmetic."""
    heap: list = []
    seen: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(1500):
        push(heap, (i * 7919 % 1009, i))
        seen[i % 97] = seen.get(i % 97, 0) + i
    while heap:
        pop(heap)


class Calibration:
    """Samples the host's speed while a run measures.

    The bench host's effective CPU speed drifts by +-15% within seconds and
    between minutes, in CPU time as much as in wall time, so identical work
    gives wall times 20-40% apart.  A fixed kernel run every 20 ms — from a
    ``SIGALRM`` handler, which Python runs on the main thread between two
    bytecodes, so it also samples *inside* a three-second Steiner solve —
    records how fast the host was at each moment; the reporter divides that
    out (``benchlib.reference_seconds``) and subtracts the kernel's own time.

    ``serve_mixed`` is sampled the same way: the handler waits for the GIL
    like any thread, but the clock starts once it runs, and the kernel is
    shorter than the interpreter's 5 ms switch interval, so the program's
    own threads rarely cut into a sample.  (Bracketing the section with
    bursts instead was tried: speed 10 s apart says little, spread tripled.)
    """

    INTERVAL_SECONDS = 0.02

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _calibration_kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_SECONDS, self.INTERVAL_SECONDS)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference(self, start: float, end: float) -> float:
        return benchlib.reference_seconds(self.times, self.durations, start, end)

    def raw(self, start: float, end: float) -> float:
        """``[start, end]`` on the clock, net of the kernel's own time."""
        return end - start - benchlib.calibration_seconds(self.times, self.durations, start, end)


class Recorder:
    """Operation intervals, attempt/failure counts and output checks of one run."""

    def __init__(self) -> None:
        #: series -> ``(start, end)`` of every operation that completed
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.messages) < 8:
                self.messages.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(f"check: {message}")

    def op(self, series: str, fn: Callable, *args):
        """Run one timed operation; a raise counts as failed and returns None."""
        with self._lock:
            self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted, reported, the loop goes on
            self.fail(f"{series}: {exc!r}")
            return None
        end = time.perf_counter()
        with self._lock:
            self.samples.setdefault(series, []).append((start, end))
        return result


class Run:
    """What a workload's timed section hands back."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        #: Per-step output digests, compared across backends and reps.
        self.steps: List[str] = []
        #: Program counters that must repeat exactly on a serial workload.
        self.counters: Dict[str, float] = {}
        #: Per-layer counters/ratios (see ``benchlib.COUNTERS``).
        self.layer: Dict[str, float] = collections.defaultdict(float)
        self.sizes: Dict[str, object] = {}
        #: When the timed section ended, if the workload went on to do
        #: untimed checks before returning.
        self.end: Optional[float] = None
        #: ``serve_mixed`` only: what the oracle replays and compares.
        self.write_log: List[Tuple[str, Optional[str]]] = []
        self.final_reads: Dict[Tuple[str, Optional[str]], list] = {}


def read_view(service, view_id: str, tenant: Optional[str] = None) -> list:
    return list(service.stream_answers(QueryRequest(view=view_id, tenant=tenant)))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def service_layer_counters(services: Sequence[QService], layer: Dict[str, float]) -> None:
    """The per-layer counters ``QService.stats()`` and the views expose,
    summed over the run's sessions (ratios are taken of the sums)."""
    total: Dict[str, float] = collections.defaultdict(float)
    for service in services:
        stats = service.stats()
        for name in (
            "view_refreshes", "view_refreshes_skipped", "steiner_cache_hits",
            "steiner_cache_builds", "steiner_rescores", "pushdown_union_queries",
            "pushdown_queries", "pushdown_scans", "posting_builds", "storage_bytes",
            "pairs_scored", "sketch_candidates", "learner_steps", "journal_entries",
        ):
            total[name] += getattr(stats, name)
        for record in service.views.records():
            total["reused"] += record.view.last_refresh.queries_reused
            total["executed"] += record.view.last_refresh.queries_executed
    layer["core.refresh_skip_ratio"] = ratio(
        total["view_refreshes_skipped"], total["view_refreshes"] + total["view_refreshes_skipped"]
    )
    layer["core.answer_reuse_ratio"] = ratio(total["reused"], total["reused"] + total["executed"])
    layer["steiner.cache_hit_ratio"] = ratio(
        total["steiner_cache_hits"], total["steiner_cache_hits"] + total["steiner_cache_builds"]
    )
    layer["profiling.verified_ratio"] = ratio(total["pairs_scored"], total["sketch_candidates"])
    for metric, field in (
        ("steiner.rescores", "steiner_rescores"),
        ("storage.pushdown_union_queries", "pushdown_union_queries"),
        ("storage.pushdown_queries", "pushdown_queries"),
        ("storage.pushdown_scans", "pushdown_scans"),
        ("storage.posting_builds", "posting_builds"),
        ("storage.bytes", "storage_bytes"),
        ("profiling.pairs_scored", "pairs_scored"),
        ("learning.learner_steps", "learner_steps"),
        ("persist.journal_entries", "journal_entries"),
    ):
        layer[metric] = total[field]


def program_counters(service) -> Dict[str, float]:
    stats = service.stats()
    return {
        name: getattr(stats, name)
        for name in (
            "sources", "relations", "attributes", "views", "feedback_events",
            "learner_steps", "registrations", "weights_version", "structure_version",
            "view_refreshes", "view_refreshes_skipped", "pairs_scored",
            "sketch_candidates", "exact_candidates",
        )
    }


# ======================================================================
# loop_memory / loop_sqlite
# ======================================================================
@dataclass
class LoopState:
    gbco: object
    service: QService
    #: The held-out sources, cloned and ready to register.
    incoming: list
    #: ``save(path)`` argument and ``open`` location (sqlite saves in place).
    save_path: Optional[Path]
    location: Path


def loop_setup(backend: str, seed: int, workdir: Path) -> LoopState:
    reset_edge_ids()
    gbco = build_gbco(seed=seed, rows_per_relation=LOOP_ROWS)
    if backend == "sqlite":
        location = workdir / "session.db"
        spec, save_path = f"sqlite:{location}", None
    else:
        location = workdir / "session.json"
        spec, save_path = None, location
    service = QService(
        sources=[clone(s) for s in gbco.catalog if s.name not in LOOP_HELD_OUT],
        config=ServiceConfig(top_k=LOOP_TOP_K),
        backend=spec,
    )
    service.bootstrap_alignments()
    incoming = [clone(gbco.catalog.source(name)) for name in LOOP_HELD_OUT]
    return LoopState(gbco, service, incoming, save_path, location)


def loop_run(state: LoopState, seed: int, scale: float, trace, cal) -> Run:
    run = Run()
    rec = run.recorder
    rounds = min(scaled(LOOP_ROUNDS, scale), len(LOOP_HELD_OUT))
    restarts = scaled(LOOP_RESTARTS, scale)
    log = state.gbco.query_log
    plan = benchlib.loop_schedule(seed, len(log), rounds, LOOP_FEEDBACKS)
    run.sizes = {
        "rows_per_relation": LOOP_ROWS, "top_k": LOOP_TOP_K, "views": len(log),
        "rounds": rounds, "feedbacks_per_round": LOOP_FEEDBACKS,
        "held_out": list(LOOP_HELD_OUT[:rounds]), "restart_cycles": restarts,
        "cold_read_every": LOOP_COLD_READ_EVERY, "page_size": LOOP_PAGE_SIZE,
    }
    service = state.service
    #: view id -> digest of its latest full read: paged and cold reads of an
    #: unchanged session must reproduce it.
    latest: Dict[str, str] = {}

    def full_read(series: str, view_id: str, step: str):
        answers = rec.op(series, read_view, service, view_id)
        if answers is None:
            return None
        rec.check(benchlib.ascending([a.cost for a in answers]), f"{step}: costs not ascending")
        latest[view_id] = benchlib.digest(benchlib.fingerprint(answers))
        run.steps.append(f"{step}:{latest[view_id]}")
        return answers

    def first_read(keywords):
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        return info.view_id, read_view(service, info.view_id)

    views: List[str] = []
    for index, entry in enumerate(log):
        view_id, answers = rec.op("first_read", first_read, entry.keywords)
        views.append(view_id)
        latest[view_id] = benchlib.digest(benchlib.fingerprint(answers))
        run.steps.append(f"first/{index}:{latest[view_id]}")

    feedback_answers = 0
    for number, step in enumerate(plan):
        for index in step["page_order"]:
            view_id = views[index]
            pages = service.answers(QueryRequest(view=view_id, page_size=LOOP_PAGE_SIZE))
            paged: list = []
            while True:
                page = rec.op("page_read", next, pages, None)
                if page is None:  # a view without answers has no page at all
                    break
                paged.extend(page.answers)
                if not page.has_more:
                    break
            pages.close()
            rec.check(
                benchlib.digest(benchlib.fingerprint(paged)) == latest[view_id],
                f"round {number} view {index}: pages differ from the full read",
            )
        applied = 0
        for index, rank in step["feedback"]:
            if applied == LOOP_FEEDBACKS:
                break
            answers = read_view(service, views[index])  # cached: nothing changed
            if not answers:
                continue
            request = FeedbackRequest(
                view=views[index], answer=answers[rank % min(10, len(answers))], replay=2
            )
            rec.op("feedback", service.feedback, request)
            applied += 1
            feedback_answers += len(answers)
        for index in step["reread_orders"][0]:
            full_read("reread", views[index], f"r{number}/feedback/{index}")
        request = RegisterSourceRequest(source=state.incoming[number], strategy="exhaustive")
        response = rec.op("register", service.register_source, request)
        if response is not None:
            run.layer["matching.attribute_comparisons"] += response.attribute_comparisons
            run.layer["alignment.edges_added"] += response.edges_added
        for index in step["reread_orders"][1]:
            full_read("reread", views[index], f"r{number}/register/{index}")

    def restart():
        nonlocal service
        service.save(state.save_path)
        service.close()
        service = state.service = QService.open(state.location)

    for cycle in range(restarts):
        rec.op("restart", restart)
        if cycle % LOOP_COLD_READ_EVERY == LOOP_COLD_READ_EVERY - 1:
            for index, view_id in enumerate(views):
                before = latest[view_id]
                full_read("cold_read", view_id, f"c{cycle}/{index}")
                rec.check(
                    latest[view_id] == before,
                    f"cycle {cycle} view {index}: reopened session answers differently",
                )

    run.counters = program_counters(service)
    run.counters["feedback_answers"] = feedback_answers
    service_layer_counters([service], run.layer)
    run.layer["persist.bytes_on_disk"] = sum(
        path.stat().st_size for path in state.location.parent.iterdir() if path.is_file()
    )
    return run


def loop_teardown(state: LoopState) -> None:
    state.service.close()


# ======================================================================
# solve_topk
# ======================================================================
@dataclass
class SolveState:
    #: sources n -> the session grown to n sources
    services: Dict[int, QService]


def solve_setup(seed: int, workdir: Path) -> SolveState:
    services: Dict[int, QService] = {}
    for n in sorted({cell[0] for cell in benchlib.SOLVE_CELLS}):
        reset_edge_ids()
        gbco = build_gbco(seed=seed, rows_per_relation=SOLVE_ROWS)
        service = QService(sources=[clone(s) for s in gbco.catalog], config=ServiceConfig())
        service.bootstrap_alignments()
        # The growth wiring is fixed (solve time is chaotic in the topology);
        # the seed varies the GBCO values the keywords match against.
        grow_catalog_and_graph(
            service.catalog, service.graph, target_source_count=n, seed=SOLVE_GROWTH_SEED
        )
        services[n] = service
    return SolveState(services)


def solve_run(state: SolveState, seed: int, scale: float, trace, cal) -> Run:
    run = Run()
    rec = run.recorder
    # The grid is the workload: it does not shrink or grow with --seconds.
    run.sizes = {
        "rows_per_relation": SOLVE_ROWS, "growth_seed": SOLVE_GROWTH_SEED,
        "cells": [list(cell) for cell in benchlib.SOLVE_CELLS],
        "keywords": {str(t): list(words) for t, words in SOLVE_KEYWORDS.items()},
        "feedback_after": list(SOLVE_FEEDBACK_CELL),
    }

    def cell(service, t: int, k: int, name: str):
        info = service.create_view(
            QueryRequest(keywords=SOLVE_KEYWORDS[t], k=k, name=name), materialize=False
        )
        return info, read_view(service, info.view_id)

    for n, t, k in benchlib.SOLVE_CELLS:
        service = state.services[n]
        name = benchlib.cell_name(n, t, k)
        solving = trace.total("steiner.solve") if trace else 0.0
        outcome = rec.op("cell", cell, service, t, k, name)
        if trace:
            run.layer[f"steiner.cell.{name}.s"] = trace.total("steiner.solve") - solving
        if outcome is None:
            continue
        info, answers = outcome
        costs = [a.cost for a in answers]
        rec.check(benchlib.ascending(costs), f"{name}: costs not ascending")
        rec.check(0 < info.tree_count <= k, f"{name}: {info.tree_count} trees for k={k}")
        again = read_view(service, info.view_id)
        rec.check(
            benchlib.fingerprint(again) == benchlib.fingerprint(answers),
            f"{name}: an unchanged view re-read differently",
        )
        run.steps.append(f"{name}:{benchlib.digest(benchlib.fingerprint(answers))}")
        run.counters[f"trees.{name}"] = info.tree_count
        run.counters[f"answers.{name}"] = len(answers)
        if (n, t, k) == SOLVE_FEEDBACK_CELL and answers:
            rec.op(
                "feedback", service.feedback,
                FeedbackRequest(view=info.view_id, answer=answers[0], replay=1),
            )
            after = rec.op("reread", read_view, service, info.view_id)
            if after is not None:
                rec.check(
                    benchlib.ascending([a.cost for a in after]),
                    f"{name}: costs not ascending after feedback",
                )
                run.steps.append(f"{name}/fb:{benchlib.digest(benchlib.fingerprint(after))}")

    for n, service in state.services.items():
        for key, value in program_counters(service).items():
            run.counters[f"n{n}.{key}"] = value
    service_layer_counters(list(state.services.values()), run.layer)
    return run


def solve_teardown(state: SolveState) -> None:
    for service in state.services.values():
        service.close()


# ======================================================================
# register_scale
# ======================================================================
@dataclass
class ScaleState:
    service: QService
    #: The sources the timed section registers, generated from the seed.
    incoming: list


def _community_of(name: str) -> int:
    return int(name.rsplit("_", 1)[1]) % SCALE_COMMUNITIES


def scale_setup(seed: int, workdir: Path) -> ScaleState:
    reset_edge_ids()
    base = seed * 1_000_000
    existing = [
        make_community_source(
            f"scale_{index:05d}", community=index % SCALE_COMMUNITIES, seed=base + index
        )
        for index in range(SCALE_RELATIONS)
    ]
    # Twice the nominal count, so --seconds may scale the run up to 2x.
    incoming = [
        make_community_source(
            f"incoming_{number:04d}", community=number % SCALE_COMMUNITIES,
            seed=base + SCALE_RELATIONS + number,
        )
        for number in range(2 * SCALE_REGISTRATIONS)
    ]
    config = ServiceConfig(profile_shards=SCALE_SHARDS, sketch_num_perm=SCALE_SKETCH_PERM)
    return ScaleState(QService(existing, config=config), incoming)


def scale_run(state: ScaleState, seed: int, scale: float, trace, cal) -> Run:
    run = Run()
    rec = run.recorder
    service = state.service
    registrations = min(scaled(SCALE_REGISTRATIONS, scale), len(state.incoming))
    rng = random.Random(seed)
    victims = rng.sample(range(SCALE_RELATIONS), registrations // SCALE_REMOVE_EVERY)
    run.sizes = {
        "relations": SCALE_RELATIONS, "communities": SCALE_COMMUNITIES,
        "profile_shards": SCALE_SHARDS, "sketch_num_perm": SCALE_SKETCH_PERM,
        "registrations": registrations, "removals": len(victims),
        "strategy": "profile_blocked", "value_filter": True,
    }
    log: List[Tuple] = []
    exhaustive_pairs = comparisons = edges = 0
    # Community sources all have two attributes; counting the catalog's by
    # hand keeps an O(catalog) property read out of the timed loop.
    arity = 2
    attributes = arity * SCALE_RELATIONS
    for number, source in enumerate(state.incoming[:registrations]):
        exhaustive_pairs += arity * attributes
        request = RegisterSourceRequest(
            source=source, strategy="profile_blocked", value_filter=True
        )
        response = rec.op("register", service.register_source, request)
        if response is not None:
            attributes += arity
            comparisons += response.attribute_comparisons
            edges += response.edges_added
            found = response.alignment.correspondences
            rec.check(bool(found), f"incoming_{number:04d}: no correspondence found")
            for c in found:
                log.append((c.source.qualified, c.target.qualified, c.confidence, c.matcher))
                other = c.target if c.source.relation.startswith("incoming") else c.source
                rec.check(
                    _community_of(other.relation.split(".")[0]) == number % SCALE_COMMUNITIES,
                    f"incoming_{number:04d} aligned across communities: {other.qualified}",
                )
            log.extend(("edge", edge.edge_id) for edge in response.alignment.edges_added)
        if number % SCALE_REMOVE_EVERY == SCALE_REMOVE_EVERY - 1 and victims:
            if rec.op("remove", service.remove_source, f"scale_{victims.pop():05d}") is not None:
                attributes -= arity

    stats = service.stats()
    rec.check(
        stats.attributes == attributes,
        f"catalog holds {stats.attributes} attributes after the run, expected {attributes}",
    )
    run.steps.append(f"correspondences:{benchlib.digest(log)}")
    run.counters = program_counters(service)
    run.counters["correspondence_log_entries"] = len(log)
    service_layer_counters([service], run.layer)
    run.layer["profiling.pruned_fraction"] = 1.0 - ratio(stats.sketch_candidates, exhaustive_pairs)
    run.layer["matching.attribute_comparisons"] = comparisons
    run.layer["alignment.edges_added"] = edges
    return run


def scale_teardown(state: ScaleState) -> None:
    state.service.close()


# ======================================================================
# serve_mixed
# ======================================================================
@dataclass
class ServeState:
    gbco: object
    service: QService
    view_ids: List[str]
    held_out: List[str]


def serve_setup(seed: int, workdir: Path) -> ServeState:
    reset_edge_ids()
    gbco = build_gbco(seed=seed, rows_per_relation=SERVE_ROWS)
    held_out = sorted(
        {
            relation.split(".")[0]
            for index in SERVE_VIEWS
            for relation in gbco.query_log[index].new_relations
        }
    )[:6]
    service = QService(
        sources=[clone(s) for s in gbco.catalog if s.name not in held_out],
        config=ServiceConfig(top_k=5, top_y=1, write_queue_limit=256),
    )
    service.bootstrap_alignments()
    view_ids = [
        service.create_view(
            QueryRequest(keywords=tuple(gbco.query_log[index].keywords)), materialize=False
        ).view_id
        for index in SERVE_VIEWS
    ]
    return ServeState(gbco, service, view_ids, held_out)


def apply_feedback(service, view: str, tenant: Optional[str], index: int) -> None:
    """Writer-lane feedback: the annotated answer is chosen from the state the
    write applies to, so the op replays from its descriptor alone and a
    stale-answer race cannot fail it (the ``service_bench`` convention)."""
    answers = read_view(service, view)
    if answers:
        service.feedback(
            FeedbackRequest(
                view=view, answer=answers[index % len(answers)], replay=2, tenant=tenant
            )
        )


def serve_register_request(state: ServeState, name: str) -> RegisterSourceRequest:
    return RegisterSourceRequest(
        source=clone(state.gbco.catalog.source(name)), strategy="exhaustive"
    )


def serve_run(state: ServeState, seed: int, scale: float, trace, cal) -> Run:
    run = Run()
    rec = run.recorder
    ops = scaled(SERVE_OPS, scale)
    schedules = benchlib.serve_schedule(
        seed, SERVE_CLIENTS, ops, len(state.view_ids), len(SERVE_TENANTS),
        SERVE_WRITE_SHARE, len(state.held_out),
    )
    run.sizes = {
        "rows_per_relation": SERVE_ROWS, "views": list(SERVE_VIEWS),
        "tenants": [t or "base" for t in SERVE_TENANTS], "held_out": state.held_out,
        "clients": SERVE_CLIENTS, "ops_per_client": ops, "read_workers": 2,
        "write_share": SERVE_WRITE_SHARE, "page_size": SERVE_PAGE_SIZE,
    }
    service = state.service
    pending = list(state.held_out)
    pending_lock = threading.Lock()
    span = trace.span if trace else (lambda name: contextlib.nullcontext())
    apply_seconds: List[float] = []
    with QServer(service, read_workers=2) as server:
        for view_id in state.view_ids:  # warm every (view, tenant) before timing
            for tenant in SERVE_TENANTS:
                server.query(QueryRequest(view=view_id, tenant=tenant))

        def query(op) -> None:
            result = server.query(
                QueryRequest(
                    view=state.view_ids[op["view"]], tenant=SERVE_TENANTS[op["tenant"]],
                    page_size=SERVE_PAGE_SIZE,
                )
            )
            if result.degraded:
                raise RuntimeError("degraded read")

        def feedback(op) -> None:
            descriptor = {
                "view": state.view_ids[op["view"]], "tenant": SERVE_TENANTS[op["tenant"]],
                "index": op["index"],
            }

            def apply() -> None:
                start = time.perf_counter()
                with span("service.write_apply"):
                    apply_feedback(service, **descriptor)
                apply_seconds.append(time.perf_counter() - start)

            server.submit_mutation(
                apply, kind="feedback", tag=json.dumps(descriptor, sort_keys=True)
            ).result()

        def register(name: str) -> None:
            server.register(serve_register_request(state, name), tag=f"register:{name}")

        def client(client_ops) -> None:
            for op in client_ops:
                if op["op"] == "query":
                    rec.op("read", query, op)
                elif op["op"] == "feedback":
                    rec.op("write", feedback, op)
                else:
                    with pending_lock:
                        name = pending.pop(0)
                    rec.op("write", register, name)

        threads = [
            threading.Thread(target=client, args=(client_ops,), name=f"bench-client-{number}")
            for number, client_ops in enumerate(schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.end = time.perf_counter()  # the final reads below are untimed

        final = {
            (view_id, tenant): benchlib.fingerprint(
                server.query(QueryRequest(view=view_id, tenant=tenant)).answers
            )
            for view_id in state.view_ids
            for tenant in SERVE_TENANTS
        }
        stats = server.stats()
        write_log = list(server.write_log)

    rec.check(
        stats.snapshot_id == len(write_log),
        f"snapshot id {stats.snapshot_id} != {len(write_log)} applied writes",
    )
    rec.check(stats.writes_failed == 0, f"{stats.writes_failed} writes failed in the lane")
    run.counters = {"writes_applied": len(write_log), "reads": len(rec.samples.get("read", ()))}
    run.layer["service.carryover_ratio"] = ratio(
        stats.pinned_carryovers, stats.pinned_carryovers + stats.pinned_materializations
    )
    run.layer["service.writes_retried"] = stats.writes_retried
    run.layer["service.reads_degraded"] = stats.reads_degraded
    run.layer["service.write_wait_s"] = sum(
        end - start for start, end in rec.samples.get("write", ())
    ) - sum(apply_seconds)
    service_layer_counters([service], run.layer)
    run.steps.append(f"final:{benchlib.digest(sorted(final.items(), key=repr))}")
    run.final_reads = final
    run.write_log = write_log
    return run


def serve_oracle(state: ServeState, seed: int, run: Run, workdir: Path) -> None:
    """Serially replay the applied write order on a fresh session; the
    server's final read of every (view, tenant) must equal the replay's."""
    replay = serve_setup(seed, workdir)
    service = replay.service
    try:
        # QServer expands every view in its writer lane after each write;
        # mirror that, or lazy refresh would allocate edge ids differently.
        service.prepare_views(structural_only=True)
        for kind, tag in run.write_log:
            if kind == "register":
                service.register_source(serve_register_request(replay, tag.split(":", 1)[1]))
            else:
                apply_feedback(service, **json.loads(tag))
            service.prepare_views(structural_only=True)
        for (view_id, tenant), observed in run.final_reads.items():
            expected = benchlib.fingerprint(read_view(service, view_id, tenant))
            run.recorder.check(
                expected == observed,
                f"view {view_id} tenant {tenant!r}: server diverged from the serial replay",
            )
    finally:
        service.close()


def serve_teardown(state: ServeState) -> None:
    state.service.close()


# ======================================================================
# Running one workload
# ======================================================================
#: name -> (setup, timed run, teardown)
WORKLOADS = {
    "loop_memory": (functools.partial(loop_setup, "memory"), loop_run, loop_teardown),
    "loop_sqlite": (functools.partial(loop_setup, "sqlite"), loop_run, loop_teardown),
    "solve_topk": (solve_setup, solve_run, solve_teardown),
    "register_scale": (scale_setup, scale_run, scale_teardown),
    "serve_mixed": (serve_setup, serve_run, serve_teardown),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    setup, timed, teardown = WORKLOADS[name]
    scale = seconds / NOMINAL_SECONDS
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        cal = Calibration()
        cal.start()
        setup_samples: List[Tuple[float, float]] = []
        state = None
        for rep in range(CHEAP_SETUP_REPS):
            if rep >= SETUP_REPS and setup_samples[0][1] - setup_samples[0][0] >= 1.0:
                break
            if state is not None:
                teardown(state)
            rep_dir = workdir / f"setup{rep}"
            rep_dir.mkdir()
            gc.collect()
            start = time.perf_counter()
            state = setup(seed, rep_dir)
            setup_samples.append((start, time.perf_counter()))

        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        gc.collect()
        try:
            start = time.perf_counter()
            run = timed(state, seed, scale, tracer, cal)
            end = run.end or time.perf_counter()
        finally:
            cal.stop()
            if tracer:
                tracer.uninstall()
        if name == "serve_mixed":
            serve_oracle(state, seed, run, workdir)
        teardown(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec = run.recorder
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "attempted": rec.attempted, "failed": rec.failed, "messages": rec.messages,
        "sizes": run.sizes, "counters": run.counters,
        "digest": benchlib.digest(run.steps), "steps": run.steps,
        "samples": {series: len(values) for series, values in rec.samples.items()},
        "metrics": end_to_end_metrics(name, run, cal, (start, end), setup_samples),
    }
    if tracer:
        report["per_layer"], report["layers"] = per_layer_values(tracer, run, cal, start, end)
        report["missing_points"] = tracer.missing
    return report


def end_to_end_metrics(
    name: str,
    run: Run,
    cal: Calibration,
    timed: Tuple[float, float],
    setup_samples: List[Tuple[float, float]],
) -> Dict[str, Dict[str, object]]:
    """Every end-to-end and per-operation metric of one run, by name.

    Times are in reference-speed seconds (see :class:`Calibration`);
    ``wall_raw_s`` and ``host_speed`` say what the clock and the host did.
    """
    rec = run.recorder
    series_seconds = {
        series: [cal.reference(start, end) for start, end in intervals]
        for series, intervals in rec.samples.items()
    }
    wall = cal.reference(*timed)
    metrics: Dict[str, Dict[str, object]] = {}

    def put(metric: str, value: float, unit: str, samples: int, note: str = "") -> None:
        metrics[metric] = {"value": value, "unit": unit, "samples": samples}
        if note:
            metrics[metric]["note"] = note

    setups = [cal.reference(start, end) for start, end in setup_samples]
    put("setup_s", statistics.median(setups), "s", len(setups))
    put("wall_s", wall, "s", 1)
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    series, what = benchlib.HEADLINE[name]
    values = series_seconds.get(series) or [wall]
    mean, tail, label = benchlib.headline(values)
    put("op_mean_ms", mean * 1e3, "ms", len(values), what)
    put("op_tail_ms", tail * 1e3, "ms", len(values), f"{label} of: {what}")
    put("failed_frac", rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)
    put("wall_raw_s", cal.raw(*timed), "s", 1, "as the clock read, net of calibration")
    put(
        "host_speed", benchlib.host_speed(cal.times, cal.durations, *timed), "ratio",
        len(cal.times), "how fast the host ran during the timed section; 1 = the reference host",
    )

    def detail(metric: str, series: str, fraction: float, factor: float, unit: str) -> None:
        values = series_seconds.get(series, ())
        if fraction == 0.5:
            value = benchlib.median_or_none(values)
        else:
            supported = benchlib.supported_tail(len(values))
            value = (
                benchlib.percentile(values, fraction)
                if supported is not None and supported >= fraction
                else None
            )
        if value is not None:
            put(metric, value * factor, unit, len(values))

    if name.startswith("loop_"):
        detail("first_read_p50_ms", "first_read", 0.5, 1e3, "ms")
        detail("page_read_p50_us", "page_read", 0.5, 1e6, "us")
        detail("reread_p50_ms", "reread", 0.5, 1e3, "ms")
        detail("reread_p90_ms", "reread", 0.9, 1e3, "ms")
        detail("feedback_p50_ms", "feedback", 0.5, 1e3, "ms")
        detail("cold_read_p50_ms", "cold_read", 0.5, 1e3, "ms")
        detail("restart_p50_ms", "restart", 0.5, 1e3, "ms")
    elif name == "register_scale":
        detail("register_p50_ms", "register", 0.5, 1e3, "ms")
    elif name == "serve_mixed":
        detail("read_p50_ms", "read", 0.5, 1e3, "ms")
        detail("read_p95_ms", "read", 0.95, 1e3, "ms")
        detail("write_p50_ms", "write", 0.5, 1e3, "ms")
        put("read_per_s", len(series_seconds.get("read", ())) / wall, "1/s", 1)
    return metrics


def per_layer_values(
    tracer: tracing.Tracer, run: Run, cal: Calibration, start: float, end: float
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Every per-layer metric by name, and the self-time fold per layer.

    Span times are clock times; one factor — the section's reference wall
    over its clock wall — turns them into the reference-speed seconds the
    end-to-end metrics are in, so a layer's share of ``wall_s`` reads off.
    """
    spans = tracer.closed_spans()
    folded = tracing.fold(spans)
    wall = cal.reference(start, end)
    to_reference = wall / (end - start)
    for table in folded.values():
        for entry in table.values():
            entry["self_s"] *= to_reference
    values: Dict[str, float] = {}
    for name, _target, _count in tracing.POINTS:
        point = folded["points"].get(name, {"self_s": 0.0, "calls": 0})
        values[f"{name}.self_s"] = point["self_s"]
        values[f"{name}.calls"] = point["calls"]
    sizes: Dict[str, int] = {}
    for span in spans:
        if span.size:
            sizes[span.name] = sizes.get(span.name, 0) + span.size
    layer = dict(run.layer)
    for name in layer:  # the workloads' own clock readings
        if name.startswith("steiner.cell.") or name == "service.write_wait_s":
            layer[name] *= to_reference
    layer["steiner.trees_per_base_solve"] = ratio(
        sizes.get("steiner.solve", 0), values["steiner.default_tree.calls"]
    )
    layer["engine.answers_per_execute"] = ratio(
        sizes.get("engine.execute", 0), values["engine.execute.calls"]
    )
    layer["trace.unattributed_frac"] = 1.0 - ratio(
        tracing.covered_seconds(spans, start, end), end - start
    )
    layer["trace.wall_s"] = wall
    layer["trace.spans"] = len(spans)
    layer["trace.points_missing"] = len(tracer.missing)
    for name, _unit, _better in benchlib.COUNTERS:
        values[name] = layer.get(name, 0)
    return values, folded["layers"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (child process).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
