"""Persistent ranked views over keyword queries (paper Section 2.3).

A :class:`RankedView` materializes the top-k interpretation of a keyword
query: the expanded query graph, the k lowest-cost Steiner trees, the
conjunctive queries generated from them, and the ranked union of their
answers.  The view knows by itself when it is stale: every pull —
:meth:`RankedView.prepare`, :meth:`RankedView.stream_answers`,
:meth:`RankedView.refresh` — re-expands the query graph if the base search
graph's structure moved past the version it was expanded at (new sources or
association edges from registration) and re-solves if edge costs moved
(feedback).  Nothing has to tell it what changed.

There is one read shape: :meth:`RankedView.stream_answers` is the path,
:meth:`RankedView.refresh` is the same stream materialized and
:meth:`RankedView.answers_page` a slice of it.

Pulls are *incremental*: a query executes only if no reader of the shared
:class:`~repro.engine.context.ExecutionContext` has executed the same query
content over the same tables at the same versions.  Every other query
replays the context's rows, whose answers the union stamps with this
query's cost and id — feedback moves costs, and another view's tree may
generate the same query, without touching the joined tuples.  When neither
the edge weights nor the query-graph structure changed since the last
solve, the Steiner solve itself is skipped.  The view keeps no answers of
its own, so nothing has to tell it that a table changed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..datastore.database import Catalog
from ..datastore.provenance import AnswerRow, AnswerTuple
from ..engine.context import ExecutionContext
from ..engine.executor import PlanExecutor, ranked_union
from ..exceptions import DeadlineExceededError, QueryError
from ..faults.budget import Budget
from ..graph.query_graph import QueryGraph, QueryGraphBuilder
from ..graph.features import WeightVector
from ..graph.search_graph import SearchGraph
from ..obs.tracing import active_trace
from ..profiling.index import CatalogProfileIndex
from ..learning.feedback import (
    AnnotationKind,
    AnswerAnnotation,
    FeedbackEvent,
    FeedbackGeneralizer,
)
from ..learning.overlays import graph_with_weights
from ..steiner.topk import KBestSteiner
from ..steiner.tree import SteinerTree
from .query_generation import GeneratedQuery, QueryGenerator


@dataclass
class ViewState:
    """A snapshot of the view's contents after one refresh."""

    trees: List[SteinerTree] = field(default_factory=list)
    queries: List[GeneratedQuery] = field(default_factory=list)
    answers: List[AnswerTuple] = field(default_factory=list)

    @property
    def alpha(self) -> Optional[float]:
        """Cost of the k-th (worst) retained tree — the pruning radius α."""
        if not self.trees:
            return None
        return max(tree.cost for tree in self.trees)


@dataclass
class RefreshStats:
    """Bookkeeping of the last refresh (what was reused vs recomputed)."""

    solver_runs: int = 0
    queries_executed: int = 0
    queries_reused: int = 0


class RankedView:
    """A keyword query saved as a continuously maintained top-k view.

    Parameters
    ----------
    keywords:
        The keyword query terms.
    catalog:
        The system catalog (used for query execution and value matching).
    graph:
        The current search graph.  The view keeps its own expanded *query
        graph* which shares the search graph's weight vector, so feedback
        learning updates both, and re-expands it on the first pull after
        this graph's ``structure_version`` moved.
    k:
        Number of query trees retained.
    builder:
        Optional query-graph builder (shared across views to reuse indexes);
        without one, the view profiles ``catalog`` on its first expansion.
    engine_context:
        Optional shared :class:`~repro.engine.context.ExecutionContext`; the
        Q system passes its session's, so all readers share answers, scans
        and join indexes.
    """

    def __init__(
        self,
        keywords: Sequence[str],
        catalog: Catalog,
        graph: SearchGraph,
        k: int = 5,
        builder: Optional[QueryGraphBuilder] = None,
        answer_limit: Optional[int] = 200,
        engine_context: Optional[ExecutionContext] = None,
    ) -> None:
        self.keywords = list(keywords)
        self.catalog = catalog
        self.base_graph = graph
        self.k = k
        self.answer_limit = answer_limit
        self.builder = builder
        # A view is its definition: it expands on its first pull.  An
        # expansion names its edges by their endpoints, so expanding again
        # reproduces the ids, and the per-edge weights learned under them.
        self._query_graph: Optional[QueryGraph] = None
        #: The base graph's ``structure_version`` the query graph was expanded
        #: at — the view's staleness ledger beside ``_solve_state`` and
        #: ``_expanded_writes``; ``None`` until the view first expands.
        self.expanded_at: Optional[int] = None
        #: The builder's profile index's ``writes`` before that expansion: a
        #: row written since may hold a value a keyword matches.
        self._expanded_writes = 0
        #: A ranking a saved session carried (:meth:`carry_ranking`): its
        #: edge ids, and the base weight and structure versions it is valid at.
        self._carried: Optional[Tuple[List[List[str]], int, int]] = None
        self.state = ViewState()
        self.engine_context = engine_context if engine_context is not None else ExecutionContext(catalog)
        # The solver shares the context's Steiner snapshot cache so repeated
        # solves over an unchanged query graph reuse one network.
        self.solver = KBestSteiner(network_cache=self.engine_context.steiner_cache)
        self.executor = PlanExecutor(catalog, self.engine_context)
        self.last_refresh = RefreshStats()
        #: How many times this view synchronized with the graph (full
        #: refreshes plus streaming solves).  The lazy service layer uses
        #: this to demonstrate that pull-based consistency performs strictly
        #: fewer refreshes than the eager push model.
        self.refresh_count = 0
        self._trees_by_signature: Dict[str, SteinerTree] = {}
        # Whether state.answers reflects the current solve.  A streaming
        # read that re-solved leaves answers unmaterialized; the answers()
        # accessor re-materializes on demand.
        self._answers_materialized = False
        # (weights version, structure version, terminals, k) of the last
        # solve; refresh skips the solver when nothing it depends on moved.
        self._solve_state: Optional[Tuple[int, int, Tuple[str, ...], int]] = None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @classmethod
    def priced_twin(
        cls, query_graph: QueryGraph, weights: WeightVector, keywords: Sequence[str], catalog: Catalog, **options
    ) -> "RankedView":
        """A view over ``query_graph``'s expansion priced under ``weights``.

        How one expansion serves a tenant's overlay or a snapshot's frozen
        vector: same nodes, edge ids and therefore tree signatures, other
        costs.  The twin's base graph is its *own* graph, so it never
        re-expands; whoever holds it replaces it when the view it was taken
        from re-expands (the query-graph object moves).  ``options`` are the
        constructor's (``k``, ``answer_limit``, ``engine_context``).
        """
        twin = cls(keywords, catalog, graph_with_weights(query_graph.graph, weights), **options)
        twin._query_graph = QueryGraph(
            graph=twin.base_graph,
            keyword_nodes=dict(query_graph.keyword_nodes),
            matches=list(query_graph.matches),
        )
        twin.expanded_at = twin.base_graph.structure_version
        return twin

    @property
    def query_graph(self) -> QueryGraph:
        """The view's expansion; a view that never expanded expands now."""
        if self._query_graph is None:
            self.rebuild_query_graph()
        return self._query_graph

    @property
    def expansion_is_current(self) -> bool:
        """Whether the query graph was expanded from the base graph and the rows as they stand."""
        return self.expanded_at == self.base_graph.structure_version and (
            self.builder is None or self._expanded_writes == self.builder.profile_index.writes
        )

    def rebuild_query_graph(self) -> None:
        """Re-expand the query graph from the current base search graph.

        Every pull does this by itself after structural changes to the
        search graph (new sources or new association edges); plain weight
        changes only re-solve.  Answers need nothing: a query the new
        expansion generates again replays from the engine context.

        A carried ranking (:meth:`carry_ranking`) is installed by the first
        expansion, as if this view had just solved it, if neither version
        moved since it was carried; it is dropped either way.  Each cost is
        re-derived from the graph (the solver's ``fsum`` bit for bit).
        """
        if self.builder is None:
            self.builder = QueryGraphBuilder(self.catalog, CatalogProfileIndex.from_catalog(self.catalog))
        writes = self.builder.profile_index.writes
        self._query_graph = graph = self.builder.expand(self.base_graph, self.keywords)
        self.expanded_at, self._expanded_writes = self.base_graph.structure_version, writes
        self._solve_state = None
        carried, self._carried = self._carried, None
        if carried is not None and carried[1:] == self._base_versions():
            trees = [SteinerTree.from_edges(graph.graph, edges, graph.terminals) for edges in carried[0]]
            self.state = ViewState(trees=trees, queries=self._queries_of(graph.graph, trees))
            self._trees_by_signature = {g.signature: g.tree for g in self.state.queries}
            self._solve_state = self._solve_key()

    def _base_versions(self) -> Tuple[int, int]:
        return (self.base_graph.weights.version, self.base_graph.structure_version)

    def _solve_key(self) -> Tuple[int, int, Tuple[str, ...], int]:
        """What a recorded solve must equal for the view to skip the solver."""
        graph = self.query_graph.graph
        return (graph.weights.version, graph.structure_version, self.query_graph.terminals, self.k)

    def current_ranking(self) -> Optional[List[List[str]]]:
        """Each retained tree's sorted edge ids, if the next pull would not re-solve; else ``None``.

        What a saved session carries for :meth:`carry_ranking` on reopening:
        the last complete solve of a current expansion, or the carried
        ranking itself while it would still be adopted.
        """
        if self._carried is not None:
            edge_sets, *versions = self._carried
            return edge_sets if tuple(versions) == self._base_versions() else None
        if self.expansion_is_current and self._solve_state == self._solve_key():
            return [sorted(tree.edge_ids) for tree in self.state.trees]
        return None

    def carry_ranking(self, edge_sets: List[List[str]]) -> None:
        """Hold the ranking a saved session carried until the view first expands.

        It is valid at the base graph's versions as they stand now, so this
        runs once a reopened session's version counters are final.
        """
        self._carried = (edge_sets, *self._base_versions())

    def _ensure_solved(
        self, budget: Optional[Budget] = None
    ) -> Tuple[List[SteinerTree], List[GeneratedQuery], RefreshStats]:
        """Bring trees and generated queries up to date without executing them.

        The query graph is re-expanded first when the base graph's structure
        moved past :attr:`expanded_at`, or a row was written since.
        The Steiner solve is skipped when edge weights, graph structure,
        terminals and ``k`` are all unchanged since the last solve.

        A ``budget`` makes the solve deadline-aware.  If it expires
        mid-enumeration the partial tree list is *used* for this read but
        never *recorded* as the view's authoritative solve state — the next
        unbudgeted read re-solves in full, so a deadline can never poison
        the ranking other readers (or the feedback generalizer) see.
        """
        if not self.expansion_is_current:
            self.rebuild_query_graph()
        stats = RefreshStats()
        graph = self.query_graph.graph
        solve_state = self._solve_key()
        terminals = list(self.query_graph.terminals)
        if self._solve_state == solve_state:
            trees = self.state.trees
            queries = self.state.queries
        else:
            with active_trace().span("solve"):
                trees = (
                    self.solver.solve(graph, terminals, self.k, budget=budget)
                    if terminals
                    else []
                )
                queries = self._queries_of(graph, trees)
            if budget is not None and budget.truncated:
                self._solve_state = None
            else:
                self._solve_state = solve_state
            stats.solver_runs = 1

        self._trees_by_signature = {g.signature: g.tree for g in queries}
        return trees, queries, stats

    def _queries_of(self, graph: SearchGraph, trees: List[SteinerTree]) -> List[GeneratedQuery]:
        """The conjunctive queries of ``trees``, in their order.

        A query follows the graph's structure and the tree's edge set; only
        its cost follows the weights.  So a tree any reader of the engine
        context generated on this graph's topology (its structure stamp, which
        tenant twins, snapshot copies and the view itself share) is re-stamped
        with its new cost (same key and signature, the parts shared: nothing
        mutates a generated query), and only trees new to it are generated.
        """
        context, stamp = self.engine_context, graph.structure_stamp
        known = context.recall_queries(stamp, [tree.edge_ids for tree in trees])
        new = [tree for tree in trees if tree.edge_ids not in known]
        if new:
            generated = {g.tree.edge_ids: g for g in QueryGenerator(graph).generate_all(new)}
            fresh = {tree.edge_ids: generated.get(tree.edge_ids) for tree in new}
            context.remember_queries(stamp, fresh)
            known.update(fresh)
        queries = []
        for tree in trees:
            old = known[tree.edge_ids]
            if old is not None and old.tree is not tree:
                old = replace(old, query=replace(old.query, cost=tree.cost), tree=tree)
            if old is not None:  # else the generator skipped it
                queries.append(old)
        return queries

    def refresh(self) -> ViewState:
        """Recompute trees, queries and answers under the current costs.

        :meth:`prepare` plus the whole of :meth:`stream_answers`, kept in
        ``state.answers``.  Incrementality: the Steiner solve is skipped when
        edge weights and graph structure are unchanged; a query's answers
        are replayed whenever the same query content was already executed
        against the same tables at the same versions.
        """
        answers = list(self.stream_answers())
        self.state = ViewState(trees=self.state.trees, queries=self.state.queries, answers=answers)
        self._answers_materialized = True
        return self.state

    def prepare(self, budget: Optional[Budget] = None) -> ViewState:
        """Bring trees and queries up to date *without* executing queries.

        The solve-only half of :meth:`refresh`: the ranking (Steiner trees,
        generated queries, α) is current afterwards, but ``state.answers``
        is left unmaterialized — the streaming read path executes queries
        lazily, and :meth:`answers` re-materializes on demand.
        """
        trees, queries, stats = self._ensure_solved(budget=budget)
        if stats.solver_runs:
            # The ranking changed; previously materialized answers are no
            # longer authoritative.
            self.state = ViewState(trees=trees, queries=queries, answers=[])
            self._answers_materialized = False
        self.last_refresh = stats
        self.refresh_count += 1
        return self.state

    def stream_answers(self, budget: Optional[Budget] = None) -> Iterator[AnswerTuple]:
        """Ranked answers as a lazy iterator (the pull-based read path).

        The Steiner solve (which determines the ranking) happens eagerly at
        call time, but query *execution* is deferred: the stream is
        :func:`~repro.engine.executor.ranked_union` over the view's queries,
        which asks :meth:`_rows_for` for a query's rows only when it reaches
        them, so a consumer that stops after the first page never pays for
        the remaining queries.

        With a ``budget``, expiry between (or inside) query executions stops
        the stream at a query boundary and marks the budget truncated; every
        already-yielded answer remains exact.  A query interrupted mid-
        execution caches nothing, and a truncated solve is never recorded as
        the view's solve state (see :meth:`_ensure_solved`), so degraded
        reads cannot contaminate later full reads.  Expiry before the first
        answer propagates as
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        self.prepare(budget=budget)
        stats = self.last_refresh
        generated = {id(g.query): g for g in self.state.queries}

        def rows_of(query) -> List[AnswerRow]:
            if budget is not None:
                budget.check("stream")
            return self._rows_for(generated[id(query)], stats, budget=budget)

        answers = ranked_union(
            [g.query for g in self.state.queries], rows_of, self.catalog, limit=self.answer_limit
        )

        def _within_deadline() -> Iterator[AnswerTuple]:
            yielded = False
            try:
                for answer in answers:
                    yield answer
                    yielded = True
            except DeadlineExceededError:
                if not yielded:
                    raise
                budget.mark_truncated("stream")  # type: ignore[union-attr]

        return _within_deadline()

    def _rows_for(
        self,
        generated: GeneratedQuery,
        stats: RefreshStats,
        budget: Optional[Budget] = None,
    ) -> List[AnswerRow]:
        """Execute one generated query, or replay the engine context's rows.

        The context keys rows by query content and replays them only while
        every table the query reads is the same object at the same version.
        The replayed rows may come from another tree or another view;
        :func:`~repro.engine.executor.ranked_union` stamps this query's cost
        and id on the answers it builds from them, and never mutates them.
        An execution aborted by a deadline raises before anything is
        remembered, so partial results are never replayed.
        """
        context = self.engine_context
        reads = context.table_reads(generated.query)
        rows = context.recall_answers(generated.key, reads)
        if rows is not None:
            stats.queries_reused += 1
            active_trace().tally("queries_cached")
            return rows
        with active_trace().span("execute"):
            rows = self.executor.execute(generated.query, budget=budget)
        context.remember_answers(generated.key, reads, rows)
        stats.queries_executed += 1
        return rows

    def answers_page(
        self, limit: Optional[int] = None, offset: int = 0
    ) -> List[AnswerTuple]:
        """One k-best page of the ranked answers (``LIMIT``/``OFFSET``).

        A slice of :meth:`stream_answers`, which replays the engine
        context's answers: paging through a view that was read once executes
        nothing, and a first page runs only the queries it reaches.  The page
        equals ``answers()[offset : offset + limit]``: the window never
        reaches past the view's ``answer_limit`` cap, an ``offset`` past the
        last answer yields ``[]``, and ``limit=0`` is rejected — a page must
        be able to hold an answer (use :meth:`answers` for a full read).
        """
        if limit is not None and limit < 1:
            raise QueryError("answers_page limit must be at least 1")
        if offset < 0:
            raise QueryError("answers_page offset must not be negative")
        end = None if limit is None else offset + limit
        return list(itertools.islice(self.stream_answers(), offset, end))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def terminals(self) -> Tuple[str, ...]:
        """Keyword node ids of the view's query graph."""
        return self.query_graph.terminals

    @property
    def alpha(self) -> Optional[float]:
        """Cost of the k-th best tree (the VIEWBASEDALIGNER pruning radius)."""
        return self.state.alpha

    def answers(self) -> List[AnswerTuple]:
        """The ranked answers under the current solve.

        If a streaming read re-solved since the last materializing refresh,
        ``state.answers`` is unmaterialized; this accessor re-materializes
        (cheap — per-query answers replay from cache) rather than returning
        an empty list that would be indistinguishable from "no answers".
        """
        if not self._answers_materialized:
            self.refresh()
        return list(self.state.answers)

    def trees(self) -> List[SteinerTree]:
        """The retained Steiner trees of the last refresh."""
        return list(self.state.trees)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def trees_by_signature(self) -> Dict[str, SteinerTree]:
        """Tree signature → retained tree of the last solve (a copy).

        The multi-tenant feedback path merges this base map with the trees
        of a tenant-priced re-solve so annotations on answers produced under
        *either* ranking can be generalized.
        """
        return dict(self._trees_by_signature)

    def feedback_generalizer(self) -> FeedbackGeneralizer:
        """A generalizer mapping this view's answer annotations to tree feedback."""
        return FeedbackGeneralizer(self.terminals, dict(self._trees_by_signature))

    def annotate(
        self,
        answer: AnswerTuple,
        kind: AnnotationKind,
        other: Optional[AnswerTuple] = None,
    ) -> FeedbackEvent:
        """Convert one answer annotation into a tree-level feedback event."""
        annotation = AnswerAnnotation(answer=answer, kind=kind, other=other)
        return self.feedback_generalizer().generalize(annotation)
