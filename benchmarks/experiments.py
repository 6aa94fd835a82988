"""Shared experiment drivers for the paper's evaluation (Section 5).

Every table and figure of the paper has a function here that produces its
rows/series; the ``test_*`` benchmark files wrap these functions with
pytest-benchmark timing, and ``harness.py`` exposes them as a CLI that prints
the results in the same shape the paper reports.

GBCO experiments (Section 5.1)
------------------------------
* :func:`run_gbco_alignment_experiment` — Figures 6 and 7: average runtime
  and attribute comparisons of EXHAUSTIVE / VIEWBASEDALIGNER /
  PREFERENTIALALIGNER when introducing the query log's 40 new sources.
* :func:`run_scaling_experiment` — Figure 8: pairwise column comparisons as
  the search graph grows from 18 to 100 to 500 sources.

InterPro–GO experiments (Section 5.2)
-------------------------------------
* :func:`run_table1_experiment` — Table 1: precision/recall/F of the
  metadata matcher vs MAD for Y ∈ {1, 2, 5}.
* :func:`run_feedback_training` / :func:`run_fig10_experiment` /
  :func:`run_fig11_experiment` / :func:`run_fig12_experiment` /
  :func:`run_table2_experiment` — the feedback-learning experiments.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.alignment import ExhaustiveAligner, PreferentialAligner, ViewBasedAligner
from repro.api import QService, QueryRequest, ServiceConfig
from repro.core import (
    GoldStandard,
    RankedView,
    evaluate_top_y,
    gold_vs_nongold_costs,
    max_precision_at_recall,
    precision_recall_curve,
    confidence_precision_recall_curve,
)
from repro.core.simulated_feedback import simulated_feedback_for_view
from repro.datasets import (
    DEFAULT_KEYWORD_QUERIES,
    QUERY_LOG,
    build_gbco,
    build_interpro_go,
    grow_catalog_and_graph,
)
from repro.datastore.database import Catalog, DataSource
from repro.graph import QueryGraphBuilder, SearchGraph
from repro.learning import FeedbackEvent
from repro.matching import (
    Correspondence,
    MadMatcher,
    MatcherEnsemble,
    MetadataMatcher,
    ValueOverlapFilter,
    ValueOverlapMatcher,
)
from repro.profiling import CatalogProfileIndex

STRATEGIES = ("exhaustive", "view_based", "preferential")


# ----------------------------------------------------------------------
# GBCO workload helpers (Section 5.1)
# ----------------------------------------------------------------------
def _clone_source(source: DataSource) -> DataSource:
    """A deep-enough copy of a source so trials do not share schema objects."""
    from repro.datastore.csvio import source_from_dict, source_to_dict

    return source_from_dict(source_to_dict(source))


def _trial_catalog(
    gbco,
    excluded_relations: Sequence[str],
    clone: bool = True,
    backend: Optional[str] = None,
) -> Catalog:
    """The GBCO catalog minus the sources owning ``excluded_relations``.

    The Figure 8 replay clones every source per trial; the Figure 6/7 replay
    (``clone=False``) shares the original (immutable) table objects so the
    persistent profile index built over them stays valid across trials.
    ``backend`` selects
    the trial catalog's storage backend (a fresh instance per trial —
    ``"sqlite"`` ingests the trial's sources into one SQLite database);
    sources are always cloned when a backend is given, since admission
    *moves* a table's storage into the catalog's backend.
    """
    excluded_sources = {relation.split(".")[0] for relation in excluded_relations}
    catalog = Catalog(backend=backend)
    # Admission to a backend-bound catalog MOVES a table's storage, so the
    # shared dataset's sources must be cloned whenever the trial catalog
    # actually has a backend — whether from the explicit parameter or from
    # the REPRO_BACKEND environment default.
    clone = clone or catalog.backend is not None
    for source in gbco.catalog:
        if source.name not in excluded_sources:
            catalog.add_source(_clone_source(source) if clone else source)
    return catalog


def _wire_initial_associations(
    catalog: Catalog, graph: SearchGraph, profile_index: Optional[CatalogProfileIndex] = None
) -> None:
    """Install cheap value-overlap associations so keyword views can form trees.

    This stands in for the paper's calibrated initial search graph (whose
    associations come from earlier feedback); only the graph's connectivity
    matters for the cost experiments.  With a profile index the matcher uses
    posting-list blocking (identical associations, no all-pairs scan).
    """
    matcher = ValueOverlapMatcher(
        min_confidence=0.6, min_shared_values=5, profile_index=profile_index
    )
    tables = catalog.all_tables()
    correspondences = []
    for i, table_a in enumerate(tables):
        for table_b in tables[i + 1 :]:
            correspondences.extend(matcher.match_relations(table_a, table_b))
    from repro.alignment.base import install_associations
    from repro.matching.base import top_y_per_attribute

    install_associations(graph, top_y_per_attribute(correspondences, 1))


def _calibrate_view(view: RankedView) -> float:
    """Emulate the paper's per-trial feedback calibration.

    The paper provides feedback on the keyword query so that the logged base
    query becomes the top-scoring query; the learned effect is that the
    edges used by that query become cheap relative to everything else.  We
    emulate the *outcome* directly: every learnable edge of the view's best
    tree has its per-edge weight adjusted so its cost drops to ~0.1, the
    view is refreshed, and the new k-th best cost (the pruning radius α) is
    returned.
    """
    from repro.graph.features import edge_feature

    state = view.state if view.state.trees else view.refresh()
    if not state.trees:
        return 2.0
    graph = view.query_graph.graph
    best = state.trees[0]
    for edge in best.edges(graph):
        if not edge.is_learnable():
            continue
        current = graph.edge_cost(edge)
        feature = edge_feature(edge.edge_id)
        graph.weights.set(feature, graph.weights.get(feature, 0.0) - (current - 0.1))
    refreshed = view.refresh()
    return refreshed.alpha if refreshed.alpha is not None else 2.0


@dataclass
class StrategyMeasurement:
    """Per-strategy aggregate over all new-source introductions."""

    strategy: str
    total_time_seconds: float = 0.0
    total_comparisons_no_filter: int = 0
    total_comparisons_value_filter: int = 0
    introductions: int = 0

    @property
    def avg_time_ms(self) -> float:
        """Average alignment wall-clock time per introduced source, in ms."""
        if self.introductions == 0:
            return 0.0
        return 1000.0 * self.total_time_seconds / self.introductions

    @property
    def avg_comparisons_no_filter(self) -> float:
        """Average pairwise attribute comparisons without any filter."""
        if self.introductions == 0:
            return 0.0
        return self.total_comparisons_no_filter / self.introductions

    @property
    def avg_comparisons_value_filter(self) -> float:
        """Average pairwise attribute comparisons with the value-overlap filter."""
        if self.introductions == 0:
            return 0.0
        return self.total_comparisons_value_filter / self.introductions


def run_gbco_alignment_experiment(
    rows_per_relation: int = 30,
    trials: Optional[Sequence] = None,
    k: int = 5,
    preferential_budget: int = 5,
) -> Dict[str, StrategyMeasurement]:
    """Figures 6 and 7: cost of aligning new sources under each strategy.

    For every query-log trial: build the search graph over all sources except
    the trial's new ones, create the keyword view (whose k-th best cost is
    the pruning radius α), then register each new source with each strategy,
    measuring wall-clock time and pairwise attribute comparisons (with and
    without the value-overlap filter).

    One **persistent** :class:`~repro.profiling.CatalogProfileIndex` over
    the whole GBCO catalog serves the replay, every source profiled once
    (re-introductions of a source across trials reuse its profiles, as a
    live registration service would); the value-overlap filter answers pair
    counts from its posting lists.  The index remembers no matcher output,
    so each strategy scores every relation pair it selects itself.
    """
    gbco = build_gbco(rows_per_relation=rows_per_relation)
    trials = list(trials) if trials is not None else list(gbco.query_log)
    measurements = {name: StrategyMeasurement(strategy=name) for name in STRATEGIES}
    profile_index = CatalogProfileIndex.from_catalog(gbco.catalog)

    for entry in trials:
        catalog = _trial_catalog(gbco, entry.new_relations, clone=False)
        graph = SearchGraph()
        graph.add_catalog(catalog)
        _wire_initial_associations(catalog, graph, profile_index=profile_index)
        # The dataset-wide index profiles every relation of the trial catalog.
        builder = QueryGraphBuilder(catalog, profile_index)
        view = RankedView(list(entry.keywords), catalog, graph, k=k, builder=builder)
        view.refresh()
        alpha = _calibrate_view(view)

        for relation in entry.new_relations:
            source_name = relation.split(".")[0]
            _run_introduction(
                measurements,
                catalog,
                graph,
                profile_index,
                gbco.catalog.source(source_name),
                view,
                alpha,
                preferential_budget,
            )
    return measurements


def _run_introduction(
    measurements: Dict[str, StrategyMeasurement],
    catalog: Catalog,
    graph: SearchGraph,
    profile_index: CatalogProfileIndex,
    new_source: DataSource,
    view: RankedView,
    alpha: float,
    preferential_budget: int,
) -> None:
    """Introduce one source under every strategy and record what each cost.

    The persistent index already holds the source's profiles; every strategy
    gets its own copy of the graph and a fresh matcher, and shares the index
    and one value filter.  Timed: the unfiltered ``align``.  Counted beside
    it: the same alignment behind the value-overlap filter (count-only).
    """
    catalog.add_source(new_source)
    value_filter = ValueOverlapFilter.from_index(profile_index)
    try:
        for strategy in STRATEGIES:
            trial_graph = graph.copy(share_weights=False)
            trial_graph.add_source(new_source)
            aligner = _make_aligner(
                strategy,
                MetadataMatcher(profile_index=profile_index),
                view,
                alpha,
                preferential_budget,
                value_filter=None,
            )
            start = time.perf_counter()
            result = aligner.align(trial_graph, catalog, new_source)
            elapsed = time.perf_counter() - start

            filtered_aligner = _make_aligner(
                strategy,
                MetadataMatcher(profile_index=profile_index),
                view,
                alpha,
                preferential_budget,
                value_filter=value_filter,
                count_only=True,
            )
            filtered = filtered_aligner.align(trial_graph, catalog, new_source)

            measurement = measurements[strategy]
            measurement.total_time_seconds += elapsed
            measurement.total_comparisons_no_filter += result.attribute_comparisons
            measurement.total_comparisons_value_filter += filtered.attribute_comparisons
            measurement.introductions += 1
    finally:
        catalog.remove_source(new_source.name)


def _make_aligner(
    strategy: str,
    matcher,
    view: RankedView,
    alpha: float,
    preferential_budget: int,
    value_filter: Optional[ValueOverlapFilter] = None,
    count_only: bool = False,
):
    if strategy == "exhaustive":
        return ExhaustiveAligner(matcher, value_filter=value_filter, count_only=count_only)
    if strategy == "view_based":
        return ViewBasedAligner(
            matcher,
            keyword_nodes=view.terminals,
            alpha=alpha,
            value_filter=value_filter,
            count_only=count_only,
            neighborhood_graph=view.query_graph.graph,
        )
    if strategy == "preferential":
        # Prefer the relations that the view's trees actually touch (a stand-in
        # for the learned authoritativeness prior of the paper), then others.
        preferred = {
            node.relation
            for tree in view.trees()
            for node in (view.query_graph.graph.node(n) for n in tree.nodes(view.query_graph.graph))
            if node.relation
        }
        prior = {relation: 1.0 for relation in preferred}
        return PreferentialAligner(
            matcher,
            prior=prior,
            max_relations=preferential_budget,
            value_filter=value_filter,
            count_only=count_only,
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def run_scaling_experiment(
    graph_sizes: Sequence[int] = (18, 100, 500),
    rows_per_relation: int = 10,
    trials: Optional[Sequence] = None,
    preferential_budget: int = 5,
    backend: Optional[str] = None,
) -> Dict[int, Dict[str, float]]:
    """Figure 8: pairwise column comparisons vs search-graph size.

    The original 18-source GBCO-like graph is grown with random two-attribute
    synthetic sources to each target size; the query-log introductions are
    then replayed in *count-only* mode (the synthetic relations carry no
    meaningful labels, so only the number of comparisons is measured — as in
    the paper).

    ``backend`` adds a storage dimension to the replay: every trial catalog
    is created on that backend (``"memory"`` / ``"sqlite"`` /
    ``"sqlite:<path>"``), so the Figure 8 numbers can be reported per
    backend — the comparison *counts* are storage-independent (asserted by
    the cross-backend parity suite), while the wall time reflects the
    chosen storage layer.
    """
    results: Dict[int, Dict[str, float]] = {}
    for size in graph_sizes:
        gbco = build_gbco(rows_per_relation=rows_per_relation)
        trial_entries = list(trials) if trials is not None else list(gbco.query_log)
        totals = {name: 0 for name in STRATEGIES}
        introductions = 0

        for entry in trial_entries:
            catalog = _trial_catalog(gbco, entry.new_relations, backend=backend)
            graph = SearchGraph()
            graph.add_catalog(catalog)
            _wire_initial_associations(catalog, graph)
            if size > catalog.source_count:
                grow_catalog_and_graph(catalog, graph, target_source_count=size, seed=size)
            builder = QueryGraphBuilder(catalog, CatalogProfileIndex.from_catalog(catalog))
            view = RankedView(list(entry.keywords), catalog, graph, k=5, builder=builder)
            view.refresh()
            alpha = _calibrate_view(view)

            for relation in entry.new_relations:
                source_name = relation.split(".")[0]
                new_source = _clone_source(gbco.catalog.source(source_name))
                catalog.add_source(new_source)
                graph.add_source(new_source)
                for strategy in STRATEGIES:
                    aligner = _make_aligner(
                        strategy, MetadataMatcher(), view, alpha, preferential_budget, count_only=True
                    )
                    result = aligner.align(graph, catalog, new_source)
                    totals[strategy] += result.attribute_comparisons
                catalog.remove_source(new_source.name)
                introductions += 1

        results[size] = {
            name: totals[name] / introductions if introductions else 0.0 for name in STRATEGIES
        }
    return results


# ----------------------------------------------------------------------
# InterPro–GO experiments (Section 5.2)
# ----------------------------------------------------------------------
def matcher_correspondences(dataset=None) -> Dict[str, List[Correspondence]]:
    """Raw correspondences of the metadata matcher and MAD over the dataset."""
    dataset = dataset or build_interpro_go()
    tables = dataset.catalog.all_tables()
    metadata = MetadataMatcher()
    meta_corrs: List[Correspondence] = []
    for i, table_a in enumerate(tables):
        for table_b in tables[i + 1 :]:
            meta_corrs.extend(metadata.match_relations(table_a, table_b))
    mad_corrs = MadMatcher(top_y=5).match_tables(tables)
    return {"metadata": meta_corrs, "mad": mad_corrs}


def run_table1_experiment(y_values: Sequence[int] = (1, 2, 5)) -> List[Dict[str, object]]:
    """Table 1: precision / recall / F-measure of each matcher's top-Y edges."""
    dataset = build_interpro_go()
    correspondences = matcher_correspondences(dataset)
    rows: List[Dict[str, object]] = []
    for y in y_values:
        for system_name in ("metadata", "mad"):
            pr = evaluate_top_y(correspondences[system_name], dataset.gold, y)
            precision, recall, f_measure = pr.as_percentages()
            rows.append(
                {
                    "Y": y,
                    "system": system_name,
                    "precision": precision,
                    "recall": recall,
                    "f_measure": f_measure,
                }
            )
    return rows


@dataclass
class FeedbackTrainingResult:
    """Artifacts of a feedback-training run over the InterPro–GO dataset."""

    system: QService
    dataset: object
    views: List[RankedView] = field(default_factory=list)
    events: List[FeedbackEvent] = field(default_factory=list)
    cost_history: List[Dict[str, float]] = field(default_factory=list)
    pr_history: List[Dict[str, float]] = field(default_factory=list)


def run_feedback_training(
    num_queries: int = 10,
    repetitions: int = 4,
    k: int = 5,
    top_y: int = 2,
    record_history: bool = True,
) -> FeedbackTrainingResult:
    """Train Q from simulated feedback (the shared engine behind Figs 10–12 / Table 2).

    Bootstraps the combined matchers at top-Y, creates one view per keyword
    query, generates one simulated gold-consistent feedback event per view,
    and applies the event stream ``repetitions`` times through the service's
    persistent learner, recording the average gold / non-gold edge costs and
    precision-at-recall after every step.  The lazy pull-based service never
    refreshes a view during training — the metrics read the search graph
    directly, so replay cost is pure learning, not view maintenance.
    """
    dataset = build_interpro_go()
    service = QService(
        sources=dataset.catalog.sources(), config=ServiceConfig(top_k=k, top_y=top_y)
    )
    service.bootstrap_alignments(top_y=top_y)

    result = FeedbackTrainingResult(system=service, dataset=dataset)
    for keywords in dataset.keyword_queries[:num_queries]:
        # Solve-only creation: the training loop never reads answers, so
        # query execution is skipped entirely.
        info = service.create_view(
            QueryRequest(keywords=tuple(keywords), k=k), materialize=False
        )
        view = service.view(info.view_id)
        event = simulated_feedback_for_view(view, dataset.gold)
        if event is None:
            continue
        result.views.append(view)
        result.events.append(event)

    step = 0
    for _ in range(repetitions):
        for view, event in zip(result.views, result.events):
            service.apply_feedback_events(view, [event], repetitions=1)
            step += 1
            if record_history:
                gap = gold_vs_nongold_costs(service.graph, dataset.gold)
                result.cost_history.append(
                    {
                        "step": step,
                        "gold_avg_cost": gap.gold_average,
                        "non_gold_avg_cost": gap.non_gold_average,
                    }
                )
                curve = precision_recall_curve(service.graph, dataset.gold)
                result.pr_history.append(
                    {
                        "step": step,
                        **{
                            f"precision_at_recall_{int(level * 1000) / 10:g}": max_precision_at_recall(
                                curve, level
                            )
                            for level in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
                        },
                    }
                )
    return result


def run_fig10_experiment(repetitions: int = 4) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 10: PR curves for the metadata matcher, MAD, and trained Q.

    Returns, per system, a list of (recall, precision) points.
    """
    dataset = build_interpro_go()
    raw = matcher_correspondences(dataset)
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for name in ("metadata", "mad"):
        points = confidence_precision_recall_curve(raw[name], dataset.gold)
        curves[name] = [(p.recall, p.precision) for p in points]
    trained = run_feedback_training(repetitions=repetitions, record_history=False)
    q_points = precision_recall_curve(trained.system.graph, trained.dataset.gold)
    curves["q"] = [(p.recall, p.precision) for p in q_points]
    return curves


def run_fig11_experiment() -> Dict[str, List[Tuple[float, float]]]:
    """Figure 11: PR curves for Q under increasing amounts of feedback.

    Series: the unweighted matcher average (no feedback), Q(1x1), Q(10x1),
    Q(10x2) and Q(10x4).
    """
    dataset = build_interpro_go()

    # Baseline: average the matcher confidences per pair, no feedback.
    ensemble = MatcherEnsemble([MetadataMatcher(), MadMatcher()], top_y=2)
    alignments = ensemble.match_tables(dataset.catalog.all_tables())
    averaged = [
        Correspondence(a.source, a.target, a.average_confidence, "average")
        for a in alignments
    ]
    curves: Dict[str, List[Tuple[float, float]]] = {
        "average": [
            (p.recall, p.precision)
            for p in confidence_precision_recall_curve(averaged, dataset.gold)
        ]
    }

    settings = {
        "q_1x1": dict(num_queries=1, repetitions=1),
        "q_10x1": dict(num_queries=10, repetitions=1),
        "q_10x2": dict(num_queries=10, repetitions=2),
        "q_10x4": dict(num_queries=10, repetitions=4),
    }
    for label, kwargs in settings.items():
        trained = run_feedback_training(record_history=False, **kwargs)
        points = precision_recall_curve(trained.system.graph, trained.dataset.gold)
        curves[label] = [(p.recall, p.precision) for p in points]
    return curves


def run_fig12_experiment(num_queries: int = 10, repetitions: int = 4) -> List[Dict[str, float]]:
    """Figure 12: average gold vs non-gold edge cost after every feedback step."""
    trained = run_feedback_training(
        num_queries=num_queries, repetitions=repetitions, record_history=True
    )
    return trained.cost_history


def run_table2_experiment(num_queries: int = 10, repetitions: int = 4) -> Dict[float, Optional[int]]:
    """Table 2: feedback steps needed to first reach precision 1.0 per recall level."""
    trained = run_feedback_training(
        num_queries=num_queries, repetitions=repetitions, record_history=True
    )
    levels = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
    first_step: Dict[float, Optional[int]] = {level: None for level in levels}
    for snapshot in trained.pr_history:
        for level in levels:
            key = f"precision_at_recall_{int(level * 1000) / 10:g}"
            if first_step[level] is None and snapshot.get(key, 0.0) >= 1.0 - 1e-9:
                first_step[level] = int(snapshot["step"])
    return first_step
