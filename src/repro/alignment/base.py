"""Shared aligner infrastructure.

An *aligner strategy* decides which existing relations a newly registered
source is matched against (paper Section 3.3).  All strategies share the
same mechanics — run a base matcher over the chosen relation pairs, merge
the correspondences, and install association edges in the search graph —
and differ only in the candidate-selection policy, so the shared pieces live
here.  The lane's three steps are each one callable a tracer can wrap:
:meth:`BaseAligner.candidate_relations`, :func:`score_pairs` and
:func:`install_associations`, all on the calling thread.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..datastore.database import Catalog, DataSource
from ..datastore.table import Table
from ..exceptions import UnknownRelationError
from ..graph.edges import ALIGNER_ORIGIN, Edge
from ..graph.search_graph import SearchGraph
from ..matching.base import BaseMatcher, Correspondence, group_correspondences, top_y_per_attribute
from ..matching.value_overlap import ValueOverlapFilter
from ..obs.tracing import active_trace
from ..profiling.index import CatalogProfileIndex


@dataclass
class AlignmentResult:
    """Outcome of aligning one new source against the search graph.

    Attributes
    ----------
    strategy:
        Name of the aligner strategy used.
    new_source:
        Name of the registered source.
    correspondences:
        The correspondences retained after top-Y filtering.
    edges_added:
        Association edges installed in the search graph.
    relation_pairs_considered:
        Number of (new relation, existing relation) pairs the base matcher
        was invoked on.
    attribute_comparisons:
        Number of pairwise attribute comparisons (the metric of Figures 7
        and 8); respects the value-overlap filter when one is configured.
    candidate_relations:
        The existing relations the strategy chose to compare against.
    elapsed_seconds:
        Wall-clock time of the alignment (the metric of Figure 6).
    pairs_scored:
        Number of relation pairs the base matcher was actually invoked on
        (pairs surviving the comparison count).
    """

    strategy: str
    new_source: str
    correspondences: List[Correspondence] = field(default_factory=list)
    edges_added: List[Edge] = field(default_factory=list)
    relation_pairs_considered: int = 0
    attribute_comparisons: int = 0
    candidate_relations: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    pairs_scored: int = 0


class BaseAligner(abc.ABC):
    """Common machinery for the EXHAUSTIVE / VIEWBASED / PREFERENTIAL strategies.

    Parameters
    ----------
    matcher:
        The black-box pairwise matcher (``BASEMATCHER`` in Algorithms 2/3).
    top_y:
        How many candidate alignments to keep per attribute when installing
        association edges.
    value_filter:
        Optional :class:`ValueOverlapFilter`; when present, attribute pairs
        with no shared values are neither counted nor compared (the "Value
        Overlap Filter" configuration of Figure 7).
    count_only:
        If ``True``, the aligner only *counts* comparisons without invoking
        the matcher — used by the Figure 8 scaling experiment, whose
        synthetic relations have no realistic labels to match on.
    profile_index:
        Optional shared :class:`~repro.profiling.index.CatalogProfileIndex`
        (the one the registration service maintains).  The aligner hands it
        to its matcher (:meth:`~repro.matching.base.BaseMatcher.attach_index`),
        replacing whatever index a reused matcher carried, so every strategy
        pulls candidate pairs and table profiles from the same incrementally
        maintained index.  Without one the matcher is left as it was given.
    """

    #: Strategy name, overridden by subclasses.
    strategy_name = "base"

    def __init__(
        self,
        matcher: BaseMatcher,
        top_y: int = 2,
        value_filter: Optional[ValueOverlapFilter] = None,
        count_only: bool = False,
        profile_index: Optional[CatalogProfileIndex] = None,
    ) -> None:
        self.matcher = matcher
        self.top_y = top_y
        self.value_filter = value_filter
        self.count_only = count_only
        self.profile_index = profile_index
        if profile_index is not None:
            matcher.attach_index(profile_index)

    # ------------------------------------------------------------------
    # Strategy-specific candidate selection
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def candidate_relations(
        self, graph: SearchGraph, catalog: Catalog, new_source: DataSource
    ) -> List[str]:
        """Qualified names of the existing relations to align the new source against."""

    # ------------------------------------------------------------------
    # Shared alignment pipeline
    # ------------------------------------------------------------------
    def align(
        self, graph: SearchGraph, catalog: Catalog, new_source: DataSource
    ) -> AlignmentResult:
        """Align ``new_source`` against the graph and install association edges.

        The new source's relations/attributes are expected to already be
        nodes of ``graph`` (the registration service adds them before
        calling the aligner); the catalog must already contain the source.
        """
        start = time.perf_counter()
        # Candidates and comparison counts read the profiles: make them current.
        for index in (self.profile_index, self.value_filter and self.value_filter.index):
            if index is not None:
                index.reprofile_stale()
        trace = active_trace()
        result = AlignmentResult(strategy=self.strategy_name, new_source=new_source.name)
        # Pairs that survive the comparison count, in the order they are scored.
        pair_tasks: List[Tuple[Table, Table]] = []
        with trace.span("candidates"):
            candidates = self.candidate_relations(graph, catalog, new_source)
            result.candidate_relations = list(candidates)
            new_tables = [(table.schema.qualified_name, table) for table in new_source]
            for qualified_relation in candidates:
                try:
                    existing_table = catalog.relation(qualified_relation)
                except UnknownRelationError:
                    # A stale name from a view's α-neighbourhood.
                    continue
                for new_relation, new_table in new_tables:
                    if new_relation == qualified_relation:
                        continue
                    comparisons = self._count_comparisons(new_table, existing_table)
                    if comparisons == 0:
                        continue
                    result.relation_pairs_considered += 1
                    result.attribute_comparisons += comparisons
                    if not self.count_only:
                        pair_tasks.append((new_table, existing_table))
        trace.tally("candidates", len(candidates))

        if not self.count_only:
            with trace.span("score"):
                correspondences = score_pairs(self.matcher, pair_tasks)
                result.pairs_scored = len(pair_tasks)
                result.correspondences = top_y_per_attribute(correspondences, self.top_y)
            trace.tally("pairs_scored", result.pairs_scored)
            edges_before = graph.edge_count
            with trace.span("install"):
                result.edges_added = install_associations(graph, result.correspondences)
            created = graph.edge_count - edges_before
            trace.tally("edges_created", created)
            trace.tally("edges_merged", len(result.edges_added) - created)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    def _count_comparisons(self, table_a: Table, table_b: Table) -> int:
        if self.value_filter is not None:
            return self.value_filter.comparable_pairs(table_a, table_b)
        return len(table_a.schema.attribute_names) * len(table_b.schema.attribute_names)


def score_pairs(
    matcher: BaseMatcher, pairs: Iterable[Tuple[Table, Table]]
) -> List[Correspondence]:
    """Score every (new table, existing table) pair with ``matcher``.

    The result is each pair's ``match_relations`` output, concatenated in
    pair order.
    """
    correspondences: List[Correspondence] = []
    for new_table, existing_table in pairs:
        correspondences.extend(matcher.match_relations(new_table, existing_table))
    return correspondences


def install_associations(
    graph: SearchGraph, correspondences: Iterable[Correspondence]
) -> List[Edge]:
    """Install association edges for ``correspondences`` into ``graph``, as one batch.

    Correspondences for the same attribute pair coming from different
    matchers are merged onto one edge, each contributing its own
    matcher-confidence feature (paper Section 3.2.3 / 3.4).  The grouped
    rows go to :meth:`~repro.graph.search_graph.SearchGraph.add_associations`
    in one call, every edge sharing the one ``ALIGNER_ORIGIN`` record.
    """
    return graph.add_associations(group_correspondences(correspondences), ALIGNER_ORIGIN)
