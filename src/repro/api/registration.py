"""Source registration and alignment of a :class:`~repro.api.service.QService` (paper §3).

Every source joins and leaves through the session's
:class:`~repro.alignment.registration.SourceRegistrar`.  The query-graph
builder learns of a new source only after its alignment ran, so a
view-based alignment does not see the new source's keyword cells.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..alignment.base import AlignmentResult, BaseAligner, install_associations
from ..alignment.exhaustive import ExhaustiveAligner
from ..alignment.preferential import PreferentialAligner
from ..alignment.profile_blocked import ProfileBlockedAligner
from ..alignment.view_based import ViewBasedAligner
from ..datastore.database import DataSource
from ..exceptions import InvalidRequestError, RegistrationError
from ..matching import resolve_matcher
from ..matching.base import Correspondence
from ..matching.ensemble import MatcherEnsemble
from ..matching.value_overlap import ValueOverlapFilter
from .strategies import AlignmentStrategy
from .types import RegisterSourceRequest, RegistrationResponse


class RegistrationMixin:
    """The source calls of :class:`~repro.api.service.QService`."""

    def add_source(self, source: DataSource) -> None:
        """Add a source to the catalog and graph *without* running alignment.

        Used when setting up the initial, already-interlinked databases
        (their joins come from foreign keys and hand-coded associations).
        """
        self.registrar.admit(source)
        self._sync_builder(source)
        self._after_mutation()

    def bootstrap_alignments(self, top_y: Optional[int] = None) -> List[Correspondence]:
        """Run the matcher ensemble over all current tables and install edges.

        Reproduces the Section 5.2 setup.  Lazy semantics: installing the
        association edges bumps the graph's ``structure_version``; no view
        is refreshed here — each one rebuilds on its next read.  A
        ``top_y`` below 1 raises :class:`~repro.exceptions.InvalidRequestError`.
        """
        y = top_y if top_y is not None else self.config.top_y
        if y < 1:
            raise InvalidRequestError(f"top_y must be >= 1, got {y}")
        for matcher in self.matchers:
            matcher.attach_index(self.profile_index)
        alignments = MatcherEnsemble(self.matchers, top_y=y).match_tables(self.catalog.all_tables())
        correspondences = [
            Correspondence(source=alignment.source, target=alignment.target, confidence=confidence, matcher=name)
            for alignment in alignments
            for name, confidence in alignment.confidences.items()
        ]
        install_associations(self.graph, correspondences)
        self._after_mutation()
        return correspondences

    def _sync_builder(self, source: DataSource) -> None:
        """Fold a newly admitted source into the shared query-graph builder.

        Incremental replacement for the seed's builder invalidation: the
        builder's remembered value cells and tf-idf corpus gain exactly the
        new source's entries (ending in the same state a from-scratch rebuild
        over the grown catalog would produce), and every existing view —
        which holds this builder — sees the new source's values on its next
        rebuild instead of expanding against a stale index.
        """
        if self._builder is not None:
            self._builder.add_source(source)

    def _aligner_for(self, request: RegisterSourceRequest) -> Tuple[AlignmentStrategy, BaseAligner]:
        """Build the aligner of the strategy one registration request names.

        The value filter wraps the session's shared profile index (the
        registrar indexes the new source before aligning, so the filter sees
        it) — no per-registration index rebuild.
        """
        strategy = AlignmentStrategy.coerce(request.strategy)
        matcher = resolve_matcher(request.matcher) if request.matcher is not None else self.matchers[0]
        value_filter = ValueOverlapFilter.from_index(self.profile_index) if request.value_filter else None
        common = dict(top_y=self.config.top_y, value_filter=value_filter, profile_index=self.profile_index)
        if strategy is AlignmentStrategy.EXHAUSTIVE:
            return strategy, ExhaustiveAligner(matcher, **common)
        if strategy is AlignmentStrategy.PREFERENTIAL:
            return strategy, PreferentialAligner(matcher, max_relations=request.max_relations, **common)
        if strategy is AlignmentStrategy.PROFILE_BLOCKED:
            return strategy, ProfileBlockedAligner(matcher, **common)
        # The view-based strategy is driven by a view's information need.
        record = self.views.resolve(request.view) if request.view is not None else self.views.latest()
        if record is None:
            raise RegistrationError("view_based registration requires an existing view; create one first")
        # The driving view's α must reflect the current weights: pull it.
        self._pull(record)
        view = record.view
        if view.alpha is None:
            raise RegistrationError("the driving view has no answers; refresh it first")
        # The aligner operates on the persistent search graph, which has no
        # keyword nodes; the α-neighborhood is therefore computed in the
        # view's expanded query graph.
        aligner = ViewBasedAligner(
            matcher,
            keyword_nodes=view.terminals,
            alpha=view.alpha,
            neighborhood_graph=view.query_graph.graph,
            **common,
        )
        return strategy, aligner

    def _registration_response(
        self, request: RegisterSourceRequest, strategy: AlignmentStrategy, result: AlignmentResult
    ) -> RegistrationResponse:
        return RegistrationResponse(
            source=request.source.name,
            strategy=strategy,
            edges_added=len(result.edges_added),
            attribute_comparisons=result.attribute_comparisons,
            candidate_relations=tuple(result.candidate_relations),
            elapsed_seconds=result.elapsed_seconds,
            alignment=result,
        )

    def register_source(self, request: RegisterSourceRequest) -> RegistrationResponse:
        """Register a new source and align it against the existing graph.

        Lazy semantics: the graph's ``structure_version`` moves and no view
        is touched; each rebuilds on its next pull, and a query it generates
        again over unchanged tables replays from the engine context.
        """
        strategy, aligner = self._aligner_for(request)
        result = self.registrar.register(request.source, aligner)
        self._pairs_scored += result.pairs_scored
        self._sync_builder(request.source)
        self._after_mutation()
        return self._registration_response(request, strategy, result)

    def register_sources(
        self, requests: Sequence[RegisterSourceRequest]
    ) -> Tuple[RegistrationResponse, ...]:
        """Batch ingest: profile every new source in one pass, then align each.

        All sources are admitted to the catalog, graph and shared profile
        index **before** any alignment runs, so (a) profiling happens once
        per source rather than once per alignment, and (b) each source's
        alignment can also propose correspondences against the other batch
        members — registering interlinked sources in one batch wires them to
        each other as well as to the existing catalog.  Aligner construction
        is deferred into the batch (factories resolved after admission), so
        even the view-based strategy — which snapshots its driving view's
        query graph and α at build time — sees the whole batch: the view
        pull inside the factory rebuilds against the grown graph.  The
        batch is atomic: any failure rolls every batch source back.
        """
        requests = list(requests)
        if not requests:
            return ()
        strategies = [AlignmentStrategy.coerce(request.strategy) for request in requests]

        def factory(request: RegisterSourceRequest):
            return lambda: self._aligner_for(request)[1]

        results = self.registrar.register_batch(
            [request.source for request in requests],
            [factory(request) for request in requests],
        )
        self._pairs_scored += sum(result.pairs_scored for result in results)
        for request in requests:
            self._sync_builder(request.source)
        self._after_mutation()
        return tuple(
            self._registration_response(request, strategy, result)
            for request, strategy, result in zip(requests, strategies, results)
        )

    def remove_source(self, name: str) -> DataSource:
        """Remove a source from the session: catalog, graph, indexes, builder.

        The inverse of :meth:`add_source` / :meth:`register_source` at the
        session level (association edges incident to the source's nodes are
        dropped with them).  Like registration, it touches no view, and the
        engine context, which holds tables weakly, needs no telling.
        Removals are journaled, so a persisted session reopens without it.
        """
        source = self.registrar.evict(name)
        if self._builder is not None:
            self._builder.remove_source(source)
        self._after_mutation()
        return source
