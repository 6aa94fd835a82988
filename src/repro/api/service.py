"""The Q service session: typed, pull-based facade over the whole pipeline.

:class:`QService` is the public surface of the reproduction.  Three
structural properties:

**Lazy pull-based view consistency.**  Mutations — feedback, source
registration, bootstrap alignment — touch no view.  They only
move version counters (the shared :class:`~repro.graph.features.WeightVector`
version, the search graph's ``structure_version``).  A view is brought up
to date *at most once, on read*, by the one pull every consumer goes through
(:meth:`QService._pull`): the view itself compares those counters with what
it expanded and solved at.  Replaying ``n`` feedback events
against ``v`` views therefore costs ``O(n + reads)`` refreshes instead of
the ``O(n · v)`` of refreshing every view after every mutation.

**One persistent learner.**  The session owns a single
:class:`~repro.learning.mira.OnlineLearner`; each feedback call hands it the
originating view's query graph (where the keyword terminals live) while the
weight vector — shared across all graphs — accumulates every update.

**Streaming reads.**  :meth:`QService.answers` returns an iterator of
:class:`~repro.api.types.AnswerPage`\\ s backed by
:meth:`~repro.core.view.RankedView.stream_answers`: the k-best Steiner solve
runs eagerly (it determines the ranking) but conjunctive-query execution is
deferred until the stream reaches each query's answers.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import fields as dataclass_fields
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..alignment.base import AlignmentResult, install_associations
from ..alignment.registration import SourceRegistrar
from ..core.view import RankedView
from ..datastore.database import Catalog, DataSource
from ..datastore.provenance import AnswerTuple
from ..engine.context import ExecutionContext
from ..exceptions import InvalidRequestError, RegistrationError
from ..graph.query_graph import QueryGraphBuilder
from ..graph.search_graph import SearchGraph
from ..learning.feedback import (
    AnswerAnnotation,
    FeedbackEvent,
    FeedbackGeneralizer,
    FeedbackLog,
)
from ..learning.mira import OnlineLearner
from ..learning.overlays import TenantProfile, TenantRegistry
from ..matching.base import BaseMatcher, Correspondence, resolve_matcher
from ..matching.ensemble import MatcherEnsemble
from ..matching.mad import MadMatcher
from ..matching.metadata_matcher import MetadataMatcher
from ..matching.value_overlap import ValueOverlapFilter
from ..obs import Observability
from ..obs.tracing import active_trace
from ..persist import (
    FileSessionStore,
    SessionPersistence,
    SessionStore,
    SnapshotError,
    SqliteSessionStore,
    restore_core,
    restore_overlay,
    sniff_sqlite_file,
)
from ..persist.snapshot import restore_graph_config
from ..profiling.index import CatalogProfileIndex
from ..steiner.topk import KBestSteiner
from .strategies import AlignerSpec, AlignmentStrategy, build_aligner
from .streaming import paginate
from .types import (
    AnswerPage,
    FeedbackRequest,
    FeedbackResponse,
    QueryRequest,
    RegisterSourceRequest,
    RegistrationResponse,
    ServiceConfig,
    SystemStats,
    ViewInfo,
    ViewRef,
)
from .views import ViewRecord, ViewRegistry


def _restore_config(payload) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig` from its persisted payload.

    Field names come from the dataclass itself — the same source
    :func:`repro.persist.session.service_config_payload` serializes from —
    so a future config knob round-trips without touching either side.  A
    key no field names (a retired knob) is not read.
    """
    config = ServiceConfig()
    for field in dataclass_fields(ServiceConfig):
        if field.name != "graph":
            setattr(config, field.name, payload[field.name])
    config.graph = restore_graph_config(payload["graph"])
    return config


#: How many idempotency keys :meth:`QService.apply_once` remembers.
_APPLIED_OPS_LIMIT = 1024

#: Every session counter, declared once: ``(SystemStats field, metric name,
#: help, reader over the session)``.  :meth:`QService._register_metrics` binds
#: each reader as a callback gauge and :meth:`QService.stats` reads each field
#: back through the registry under the same name.
_SESSION_COUNTERS = (
    ("sources", "q_sources", "Registered data sources", lambda s: s.catalog.source_count),
    ("relations", "q_relations", "Relations in the catalog", lambda s: s.catalog.relation_count),
    ("attributes", "q_attributes", "Attributes in the catalog",
     lambda s: s.catalog.attribute_count),
    ("views", "q_views", "Registered ranked views", lambda s: len(s.views)),
    ("tenants", "q_tenants", "Tenants holding a weight overlay", lambda s: len(s.tenants)),
    ("feedback_events", "q_feedback_events_total", "Feedback events in the session log",
     lambda s: len(s.feedback_log)),
    ("learner_steps", "q_learner_steps_total", "MIRA learner steps processed",
     lambda s: s.learner.steps_processed),
    ("registrations", "q_registrations_total", "Source registrations performed",
     lambda s: s.registrar.epoch),
    ("weights_version", "q_weights_version", "Shared weight-vector version",
     lambda s: s.graph.weights.version),
    ("structure_version", "q_structure_version", "Search-graph structure version",
     lambda s: s.graph.structure_version),
    ("view_refreshes", "q_view_refreshes_total", "Materializing view refreshes/solves",
     lambda s: s._refreshes),
    ("view_refreshes_skipped", "q_view_refreshes_skipped_total", "Reads whose view snapshot was already current",
     lambda s: s._refreshes_skipped),
    ("pushdown_scans", "q_pushdown_scans_total", "Per-relation filtered scans served inside the backend",
     lambda s: s.engine_context.statistics.pushdown_scans),
    ("pushdown_queries", "q_pushdown_queries_total", "Whole conjunctive queries served inside the backend",
     lambda s: s.engine_context.statistics.pushdown_queries),
    ("steiner_cache_hits", "q_steiner_cache_hits_total", "Steiner-network snapshot cache hits",
     lambda s: s.engine_context.steiner_cache.hits),
    ("steiner_cache_builds", "q_steiner_cache_builds_total", "Steiner networks built from scratch",
     lambda s: s.engine_context.steiner_cache.builds),
    ("steiner_rescores", "q_steiner_rescores_total", "Steiner networks derived from a twin of the same topology",
     lambda s: s.engine_context.steiner_cache.rescores),
    ("posting_builds", "q_posting_builds_total", "Full in-memory posting rebuilds of the profile index",
     lambda s: s.profile_index.posting_builds),
    ("sketch_candidates", "q_sketch_candidates_total", "Attribute pairs proposed by the MinHash/rare-token tier",
     lambda s: s.profile_index.sketch_candidates_generated),
    ("exact_candidates", "q_exact_candidates_total", "Candidate pairs surviving exact re-verification",
     lambda s: s.profile_index.exact_candidates_kept),
    ("pairs_scored", "q_pairs_scored_total", "Relation pairs the base matcher scored",
     lambda s: s._pairs_scored),
    ("profile_shards", "q_profile_shards", "Hash shards of the profile index",
     lambda s: s.profile_index.shard_count),
)


class QService:
    """A Q session: sources, views, feedback and registration behind typed requests.

    Parameters
    ----------
    sources:
        Initial (already interlinked) data sources.
    matchers:
        Matcher stack for bootstrap alignment and registration; defaults to
        the metadata matcher plus MAD.
    config:
        Session knobs; see :class:`~repro.api.types.ServiceConfig`.
    backend:
        Storage backend for the session's catalog — a
        :class:`~repro.storage.base.StorageBackend` instance or a name
        (``"memory"``, ``"sqlite"``, ``"sqlite:<path>"``).  Defaults to the
        ``REPRO_BACKEND`` environment variable, falling back to per-table
        memory storage.  A persistent SQLite backend that already holds a
        catalog is reopened: its sources load without re-ingest and every
        registration routes through the backend's bulk ingest.
    autosave:
        Durable sessions: ``True`` checkpoints the session after every
        mutating call (requires a SQLite-backed catalog, whose database
        hosts the snapshot), a path value does the same into that JSON
        sidecar file, ``False`` (the default) leaves persistence to
        explicit :meth:`save` calls.
    """

    def __init__(
        self,
        sources: Optional[Iterable[DataSource]] = None,
        matchers: Optional[Sequence[BaseMatcher]] = None,
        config: Optional[ServiceConfig] = None,
        backend=None,
        autosave=False,
    ) -> None:
        self.config = config or ServiceConfig()
        catalog = Catalog(sources, backend=backend)
        graph = SearchGraph(config=self.config.graph)
        graph.add_catalog(catalog)
        profile_index = CatalogProfileIndex.from_catalog(
            catalog, **self._profile_index_kwargs()
        )
        self._assemble(catalog, graph, profile_index, matchers)
        self._init_persistence(autosave)

    def _profile_index_kwargs(self) -> dict:
        """Constructor knobs of the session's profile index, from the config.

        On warm restore the *persisted* structural configuration wins
        instead (:meth:`CatalogProfileIndex.from_state` applies the saved
        shard count and sketch shape), so a reopened index routes exactly
        like the one that saved.
        """
        config = self.config
        sketch = None
        if config.sketch_num_perm > 0:
            from ..profiling.sketches import SketchConfig

            sketch = SketchConfig(
                num_perm=config.sketch_num_perm,
                bands=max(config.sketch_num_perm // 2, 1),
            )
        return {
            "shard_count": max(int(config.profile_shards), 1),
            "sketch": sketch,
        }

    def _assemble(
        self,
        catalog: Catalog,
        graph: SearchGraph,
        profile_index: CatalogProfileIndex,
        matchers: Optional[Sequence[BaseMatcher]],
    ) -> None:
        """Wire the session around its three core structures.

        Shared between cold construction (``__init__`` builds graph and
        profile index from the catalog) and warm restore (:meth:`open`
        rebuilds them from a snapshot + journal without recomputation).
        """
        self.catalog = catalog
        self.graph = graph
        #: The session's observability spine (see :mod:`repro.obs`): one
        #: metrics registry + tracer + explain/slow-query logs, shared with
        #: any :class:`~repro.service.server.QServer` wrapped around this
        #: session.  Built before everything else so the wiring below can
        #: register gauges over the live structures.
        self.obs = Observability.from_config(self.config)
        #: Shared per-attribute profiles + posting lists over the catalog,
        #: profiled once per source and updated incrementally by the
        #: registrar (see :mod:`repro.profiling`).  Every matcher and value
        #: filter of this session reads it instead of re-deriving state.
        self.profile_index = profile_index
        self.matchers: List[BaseMatcher] = (
            list(matchers) if matchers else [MetadataMatcher(), MadMatcher()]
        )
        self.registrar = SourceRegistrar(
            self.catalog, self.graph, indexes=(self.profile_index,)
        )
        self.views = ViewRegistry()
        self.feedback_log = FeedbackLog()
        self._builder: Optional[QueryGraphBuilder] = None
        # One execution context for the whole session: every reader shares its
        # answers, scans and join indexes; nothing invalidates it.
        self.engine_context = ExecutionContext(self.catalog)
        # Non-owning, like the gauges below: held strongly by the session's
        # own registrar, the bound method would make the session a reference
        # cycle, freed by a collector pass instead of its last reference going.
        hook = weakref.WeakMethod(self._on_registration)
        self.registrar.add_listener(lambda *event: (notify := hook()) and notify(*event))
        #: The session's single persistent learner.  Feedback calls pass the
        #: originating view's query graph per event; the shared weight
        #: vector makes every update visible to all views.
        self.learner = OnlineLearner(
            self.graph,
            k=self.config.top_k,
            solver=KBestSteiner(network_cache=self.engine_context.steiner_cache),
        )
        #: Per-tenant weight overlays over the shared base vector (created
        #: on first use by a tenant-scoped query or feedback request).
        self.tenants = TenantRegistry(self.graph.weights)
        self._refreshes = 0
        self._refreshes_skipped = 0
        #: Registration-scaling counter (surfaced through :meth:`stats`).
        self._pairs_scored = 0
        #: Idempotency keys of the writes :meth:`apply_once` ran, each with
        #: its result: the latest ``_APPLIED_OPS_LIMIT``, oldest first.  Keys
        #: persist in the session overlay; results do not.
        self.applied_ops: "OrderedDict[str, object]" = OrderedDict()
        #: Set while :meth:`apply_once` runs a write: its save waits until
        #: the write's key is recorded.
        self._applying = False
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Bind the session's live counters onto the metrics registry.

        Everything here is a callback gauge: the hot paths keep mutating
        their plain attributes (no lock, no indirection), and the registry
        reads the live objects only when scraped.  :meth:`stats` reads the
        re-homed counters back *through* the registry, making
        :class:`~repro.api.types.SystemStats` a view over it.
        """
        gauge = self.obs.registry.gauge
        # The callbacks must not own the session (see ``_assemble``'s listener).
        session = weakref.proxy(self)
        for _, name, help_text, read in _SESSION_COUNTERS:
            gauge(name, help_text, fn=lambda read=read: read(session))
        steiner = self.engine_context.steiner_cache
        for counter in vars(steiner.solver):
            gauge(
                f"q_steiner_{counter}_total",
                f"Top-k Steiner solver: {counter.replace('_', ' ')}",
                fn=lambda counter=counter: getattr(steiner.solver, counter),
            )

    def _init_persistence(self, autosave) -> None:
        self._persistence: Optional[SessionPersistence] = None
        self._autosave = bool(autosave)
        #: Sidecar path remembered from ``autosave=<path>`` or the first
        #: explicit ``save(path)``; ``None`` for in-database sessions.
        self._save_path = None
        if autosave and not isinstance(autosave, bool):
            self._save_path = autosave
        if self._autosave and self._save_path is None:
            # Fail at construction, not on the first (already applied)
            # mutation: autosave=True needs somewhere to write.
            backend = self.catalog.backend
            if backend is None or not backend.supports_session_store:
                raise SnapshotError(
                    "autosave=True needs a session-capable (SQLite) catalog "
                    "backend; pass autosave=<path> to checkpoint a "
                    "memory-backed session into a sidecar file"
                )

    # ------------------------------------------------------------------
    # Sources and alignments
    # ------------------------------------------------------------------
    def add_source(self, source: DataSource) -> None:
        """Add a source to the catalog and graph *without* running alignment.

        Used when setting up the initial, already-interlinked databases
        (their joins come from foreign keys and hand-coded associations).
        """
        self.catalog.add_source(source)
        self.graph.add_source(source)
        self.profile_index.index_source(source)
        self._sync_builder(source)
        self._after_mutation()

    def bootstrap_alignments(self, top_y: Optional[int] = None) -> List[Correspondence]:
        """Run the matcher ensemble over all current tables and install edges.

        Reproduces the Section 5.2 setup.  Lazy semantics: installing the
        association edges bumps the graph's ``structure_version``; no view
        is refreshed here — each one rebuilds on its next read.
        """
        y = top_y if top_y is not None else self.config.top_y
        for matcher in self.matchers:
            matcher.attach_index(self.profile_index)
        ensemble = MatcherEnsemble(self.matchers, top_y=y)
        alignments = ensemble.match_tables(self.catalog.all_tables())
        correspondences: List[Correspondence] = []
        for alignment in alignments:
            for matcher_name, confidence in alignment.confidences.items():
                correspondences.append(
                    Correspondence(
                        source=alignment.source,
                        target=alignment.target,
                        confidence=confidence,
                        matcher=matcher_name,
                    )
                )
        install_associations(self.graph, correspondences)
        self._after_mutation()
        return correspondences

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def create_view(
        self, request: Union[QueryRequest, Sequence[str]], materialize: bool = True
    ) -> ViewInfo:
        """Create a ranked view for a keyword query; returns its description.

        Creation performs the view's first solve (trees, queries, α); the
        view records the versions it ran against.  With ``materialize``
        (the default) the answers are executed and cached immediately — the
        seed semantics; pass ``materialize=False`` to defer all query
        execution to the first streamed read (pure pay-per-page).
        """
        if not isinstance(request, QueryRequest):
            request = QueryRequest(keywords=tuple(request))
        if not request.keywords:
            raise InvalidRequestError("create_view requires at least one keyword")
        k = request.k if request.k is not None else self.config.top_k
        if k < 1:
            raise InvalidRequestError(f"k must be >= 1, got {k}")
        view = RankedView(
            list(request.keywords),
            self.catalog,
            self.graph,
            k=k,
            builder=self._query_builder(),
            answer_limit=self.config.answer_limit,
            engine_context=self.engine_context,
        )
        if materialize:
            view.refresh()
        else:
            view.prepare()
        record = self.views.add(view, request.name or " ".join(request.keywords))
        self._refreshes += 1
        self._after_mutation()
        return self._info(record)

    def view(self, ref: Union[ViewRef, ViewRecord]) -> RankedView:
        """The live :class:`RankedView` behind a view reference."""
        return self.views.resolve(ref).view

    def view_info(self, ref: Union[ViewRef, ViewRecord]) -> ViewInfo:
        """Fresh description of a view (pulls it up to date first)."""
        record = self.views.resolve(ref)
        self._pull(record)
        return self._info(record)

    def latest_view(self) -> Optional[ViewInfo]:
        """The most recently created view, by explicit creation order."""
        record = self.views.latest()
        return self._info(record) if record is not None else None

    def _info(self, record: ViewRecord) -> ViewInfo:
        view = record.view
        return ViewInfo(
            view_id=record.view_id,
            name=record.name,
            keywords=tuple(view.keywords),
            k=view.k,
            created_index=record.created_index,
            tree_count=len(view.state.trees),
            alpha=view.alpha,
        )

    def _query_builder(self) -> QueryGraphBuilder:
        if self._builder is None:
            self._builder = QueryGraphBuilder(self.catalog, self.profile_index)
        return self._builder

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

    # ------------------------------------------------------------------
    # Lazy consistency
    # ------------------------------------------------------------------
    def _pull(self, record: ViewRecord, read: str = "prepare", tenant: Optional[str] = None, **window):
        """Bring ``record``'s view up to date and return what ``read`` yields.

        The *only* place a registered view is expanded, solved or executed;
        mutations never call it.  ``read`` names the pull — ``prepare`` (solve
        only), ``stream_answers``, ``answers_page`` (with its ``window``) or
        ``refresh`` — each of which prepares the view exactly once; whether
        that ran the solver is what the session counts as a refresh.  With a
        ``tenant`` the view is prepared (its expansion is what the twin
        prices) and the read runs on the twin, whose own solve state is keyed
        on the overlay's effective version: base-weight and overlay movement
        both invalidate it.
        """
        view = record.view
        if tenant is None:
            result = getattr(view, read)(**window)
        else:
            view.prepare()
            result = getattr(self._tenant_view(record, tenant), read)(**window)
        if view.last_refresh.solver_runs:
            self._refreshes += 1
        else:
            self._refreshes_skipped += 1
        return result

    def prepare_view(self, ref: Union[ViewRef, ViewRecord]) -> ViewInfo:
        """Bring one view's *ranking* up to date without executing queries.

        The solve-only analogue of a read's lazy sync: stale views re-solve
        (re-expanding if the graph structure moved), current views are left
        alone.  The serving layer calls this in its writer lane before
        applying feedback, so annotation generalization always runs against
        the current retained trees.
        """
        return self.view_info(ref)

    def prepare_views(self, structural_only: bool = True) -> int:
        """Re-expand every view whose staleness demands it; returns the count.

        With ``structural_only`` (the default) only views whose query-graph
        *structure* is stale (or that never expanded) re-expand — the serving
        layer runs this in its single writer lane after each mutation so that
        all query-graph expansion (which seeds new keyword edges' weights on
        the shared vector) happens there, never on a concurrent read.
        Weight-only staleness needs no eager work: rankings re-solve lazily
        under whatever weight vector prices the next read.
        ``structural_only=False`` also re-solves weight-stale views
        (administrative warm-up).
        """
        prepared = 0
        for record in self.views.records():
            view = record.view
            if not view.expansion_is_current or (not structural_only and view.current_ranking() is None):
                self._pull(record)
                prepared += 1
        return prepared

    def refresh_all_views(self) -> int:
        """Pull every view up to date; returns how many actually refreshed.

        Administrative warm-up; ordinary clients never need it — reads pull
        on demand.
        """
        refreshed = 0
        for record in self.views.records():
            self._pull(record, "refresh")
            refreshed += record.view.last_refresh.solver_runs
        return refreshed

    # ------------------------------------------------------------------
    # Answers (streaming reads)
    # ------------------------------------------------------------------
    def answers(self, request: QueryRequest) -> Iterator[AnswerPage]:
        """Ranked answers of a view as a lazy stream of pages.

        The read pulls the view's consistency (refreshing at most once if
        stale), then streams: query execution happens page by page.  A
        ``tenant`` on the request ranks under that tenant's weight overlay.
        """
        record = self._record_for_query(request)
        stream = self._pull(record, "stream_answers", request.tenant)
        page_size = (
            request.page_size
            if request.page_size is not None
            else self.config.default_page_size
        )
        return paginate(stream, record.view_id, page_size, limit=request.limit)

    def stream_answers(self, request: QueryRequest) -> Iterator[AnswerTuple]:
        """Like :meth:`answers` but yielding raw answers without paging."""
        record = self._record_for_query(request)
        stream = self._pull(record, "stream_answers", request.tenant)
        if request.limit is not None:
            return itertools.islice(stream, request.limit)
        return stream

    def answers_page(self, request: QueryRequest) -> Tuple[AnswerTuple, ...]:
        """One random-access k-best page of a view's ranked answers.

        The ``LIMIT``/``OFFSET`` read: ``request.offset`` positions the
        window, ``request.page_size`` (default: the session's page size)
        bounds it.  The page is the corresponding slice of a full
        :meth:`stream_answers` read, taken from the same stream over the
        session's answer cache — paging through a view that was read once
        executes no query.  A ``tenant`` prices the page under
        that tenant's overlay.
        """
        record = self._record_for_query(request)
        page_size = (
            request.page_size
            if request.page_size is not None
            else self.config.default_page_size
        )
        trace = self.obs.tracer.trace("read")
        with trace:
            page = tuple(
                self._pull(record, "answers_page", request.tenant, limit=page_size, offset=request.offset)
            )
        self.obs.finish_read(
            trace,
            view_id=record.view_id,
            view_name=record.name,
            tenant=request.tenant,
        )
        return page

    def _record_for_query(self, request: QueryRequest) -> ViewRecord:
        if request.view is not None:
            record = self.views.resolve(request.view)
            self._check_k(record, request)
            return record
        if not request.keywords:
            raise InvalidRequestError("QueryRequest needs keywords or a view reference")
        name = request.name or " ".join(request.keywords)
        record = self.views.find_by_name(name)
        if record is not None:
            self._check_k(record, request)
            return record
        # Auto-created views defer all query execution to the stream: the
        # first read is genuinely pay-per-page.
        info = self.create_view(request, materialize=False)
        return self.views.resolve(info.view_id)

    @staticmethod
    def _check_k(record: ViewRecord, request: QueryRequest) -> None:
        """A request must not silently get a ranking of a different width."""
        if request.k is not None and record.view.k != request.k:
            raise InvalidRequestError(
                f"view {record.name!r} ({record.view_id}) has k={record.view.k}; "
                f"the request asked for k={request.k} — omit k to read the "
                "existing ranking, or create a view under another name"
            )

    # ------------------------------------------------------------------
    # Tenant overlays
    # ------------------------------------------------------------------
    def _tenant_view(self, record: ViewRecord, tenant: str) -> RankedView:
        """The tenant-priced twin of ``record``'s view, kept on the record.

        Shares the base view's query-graph *topology* (same nodes, edge ids
        and therefore tree signatures) through a structural graph clone
        whose weight vector is the tenant's overlay.  Rebuilt whenever the
        base view re-expands (the query-graph object identity moves).
        """
        twins = record.tenant_twins()
        if tenant not in twins:
            base = record.view
            twins[tenant] = RankedView.priced_twin(
                base.query_graph,
                self.tenants.overlay(tenant),
                base.keywords,
                self.catalog,
                k=base.k,
                answer_limit=base.answer_limit,
                engine_context=self.engine_context,
            )
        return twins[tenant]

    # ------------------------------------------------------------------
    # Registration of new sources
    # ------------------------------------------------------------------
    def _aligner_for(self, request: RegisterSourceRequest):
        """Build the aligner for one registration request.

        The value filter wraps the session's shared profile index (the
        registrar indexes the new source before aligning, so the filter sees
        it) — no per-registration index rebuild.
        """
        strategy = AlignmentStrategy.coerce(request.strategy)
        matcher = (
            resolve_matcher(request.matcher)
            if request.matcher is not None
            else self.matchers[0]
        )
        value_filter = None
        if request.value_filter:
            value_filter = ValueOverlapFilter.from_index(self.profile_index)

        driving_view: Optional[RankedView] = None
        if strategy is AlignmentStrategy.VIEW_BASED:
            record = (
                self.views.resolve(request.view)
                if request.view is not None
                else self.views.latest()
            )
            if record is None:
                raise RegistrationError(
                    "view_based registration requires an existing view; create one first"
                )
            # The driving view's α must reflect the current weights: pull it.
            self._pull(record)
            driving_view = record.view

        aligner = build_aligner(
            strategy,
            AlignerSpec(
                matcher=matcher,
                top_y=self.config.top_y,
                value_filter=value_filter,
                max_relations=request.max_relations,
                view=driving_view,
                profile_index=self.profile_index,
            ),
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
        strategies: List[AlignmentStrategy] = [
            AlignmentStrategy.coerce(request.strategy) for request in requests
        ]

        def factory(request: RegisterSourceRequest):
            return lambda: self._aligner_for(request)[1]

        results = self.registrar.register_batch(
            [request.source for request in requests],
            [factory(request) for request in requests],
        )
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
        source = self.catalog.remove_source(name)
        self.graph.remove_source(name)
        self.profile_index.remove_source(name)
        if self._builder is not None:
            self._builder.remove_source(source)
        self._after_mutation()
        return source

    def _on_registration(self, source: DataSource, result: AlignmentResult) -> None:
        # Only counts: views see the moved structure version on their next
        # pull, and the engine context's staleness is table identity + version.
        del source
        self._pairs_scored += result.pairs_scored

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def feedback(self, request: FeedbackRequest) -> FeedbackResponse:
        """Apply user feedback on one answer of a view.

        The annotation is generalized to the producing query tree, logged,
        and fed to the session's persistent MIRA learner on the view's query
        graph (whose weight vector is shared with the search graph, so all
        views see the adjusted costs on their next read — no view is
        refreshed here).

        With a ``tenant`` on the request the learned update lands in that
        tenant's weight overlay instead: the tenant's own ranking moves,
        the shared base vector (and thus every other tenant) does not.
        """
        record = self.views.resolve(request.view)
        if request.tenant is not None:
            return self._tenant_feedback(record, request)
        event = record.view.annotate(request.answer, request.kind, other=request.other)
        return self._learn(record, [event], request.replay)

    def _tenant_feedback(self, record: ViewRecord, request: FeedbackRequest) -> FeedbackResponse:
        """Apply feedback into one tenant's overlay.

        The annotation is generalized against the union of the base view's
        and the tenant view's retained trees (the answer may have been read
        under either ranking — signatures agree because both price the same
        expansion), then replayed through the shared learner with the
        overlay as the ``weights=`` override.  The event still lands in the
        session-wide feedback log for introspection and persistence.
        """
        profile = self.tenants.profile(request.tenant)
        tenant_view = self._tenant_view(record, request.tenant)
        tenant_view.prepare()
        trees = record.view.trees_by_signature()
        trees.update(tenant_view.trees_by_signature())
        generalizer = FeedbackGeneralizer(tenant_view.terminals, trees)
        event = generalizer.generalize(
            AnswerAnnotation(answer=request.answer, kind=request.kind, other=request.other)
        )
        return self._learn(record, [event], request.replay, profile)

    def apply_feedback_events(
        self,
        view: Union[ViewRef, ViewRecord],
        events: Sequence[FeedbackEvent],
        repetitions: int = 1,
    ) -> FeedbackResponse:
        """Apply pre-built feedback events (used by the experiment harnesses)."""
        return self._learn(self.views.resolve(view), list(events), repetitions)

    def _learn(
        self,
        record: ViewRecord,
        events: List[FeedbackEvent],
        repetitions: int,
        profile: Optional[TenantProfile] = None,
    ) -> FeedbackResponse:
        """The one feedback step: log, replay on the view's query graph, autosave.

        The shared base weights learn unless a tenant ``profile`` is given;
        then its overlay learns and counts the steps applied to it.
        """
        for event in events:
            self.feedback_log.add(event)
        overlay = profile.overlay if profile is not None else None
        results = self.learner.replay(
            events, repetitions, graph=record.view.query_graph.graph, weights=overlay
        )
        if profile is not None:
            profile.events_applied += len(results)
        self._after_mutation()
        return FeedbackResponse(
            view_id=record.view_id,
            events=tuple(events),
            steps_processed=len(results),
            weight_change=sum(step.weight_change for step in results),
            weights_version=(self.graph.weights if overlay is None else overlay).version,
        )

    # ------------------------------------------------------------------
    # Durability (see :mod:`repro.persist`)
    # ------------------------------------------------------------------
    def save(self, path=None, compact: bool = False):
        """Checkpoint the whole session so :meth:`open` can restore it.

        The first call writes a full snapshot — search graph (nodes and
        alignment edges with features and original edge ids), weight
        vector, learner state, profile index, view registry (each view's
        keywords and ``k``, and its ranking while current), feedback log,
        and the graph's next edge number.  Later calls are *incremental*:
        one journal delta entry capturing the mutations since the previous
        save.  Once the journal reaches
        ``config.journal_compact_after`` entries (or ``compact=True``, or a
        change a delta cannot express), journal and snapshot fold into a
        fresh snapshot.

        Where the bytes go: on a SQLite-backed catalog, into
        ``_repro_session_*`` tables inside the catalog database itself
        (one file holds the whole session) — unless ``path`` is given,
        which always selects a JSON sidecar (snapshot at ``path``, journal
        at ``path + ".journal"``).  A memory-backed catalog requires a
        ``path`` on the first save; the sidecar then also carries the
        catalog's rows, giving the memory backend durability it never had.

        Returns a :class:`~repro.persist.SaveReport`.
        """
        if self._persistence is None:
            self._persistence = SessionPersistence(
                self._resolve_store(path),
                compact_after=self.config.journal_compact_after,
            )
        elif path is not None:
            store = self._persistence.store
            if not isinstance(store, FileSessionStore) or str(store.path) != str(path):
                raise SnapshotError(
                    f"this session already persists to {store.description}; "
                    "save() cannot be re-targeted to a different location"
                )
        # A table appended to since it was profiled is saved with its new values.
        self.profile_index.refresh(self.catalog)
        return self._persistence.save(self, compact=compact)

    def _resolve_store(self, path) -> SessionStore:
        if path is None:
            path = self._save_path
        if path is not None:
            self._save_path = path
            return FileSessionStore(path)
        backend = self.catalog.backend
        if backend is not None and backend.supports_session_store:
            return SqliteSessionStore(backend)
        raise SnapshotError(
            "a memory-backed session has no durable home for its snapshot; "
            "pass save(path=...) (or autosave=<path>) to choose a sidecar file"
        )

    @classmethod
    def open(
        cls,
        path=None,
        backend=None,
        config: Optional[ServiceConfig] = None,
        matchers: Optional[Sequence[BaseMatcher]] = None,
        autosave=False,
    ) -> "QService":
        """Warm-start a session from a previously saved snapshot + journal.

        ``open(path)`` sniffs the file: a SQLite database restores the
        whole session from its ``_repro_session_*`` tables (rows included);
        a JSON sidecar restores a memory-style session, re-ingesting the
        rows serialized in the snapshot.  ``backend=`` overrides the sniff
        — pass ``"sqlite:<path>"`` (or a live
        :class:`~repro.storage.base.StorageBackend`) to name the catalog
        database explicitly.

        No profiling, matching or alignment runs: graph, weights, profiles
        and view definitions come straight from the snapshot, the journal
        replays any post-snapshot mutations, and the graph's next edge
        number is set so the reopened session allocates the same ids a
        continuing live session would.  No view expands here: each expands
        on its first pull, to the ids it had, and resumes its saved ranking
        if nothing moved before then.  Restored sessions answer queries
        byte-identically to the session that saved them.  Only the current
        format opens: a session saved in an older one raises
        :class:`~repro.exceptions.SnapshotError` and is converted once with
        ``scripts/upgrade_session.py``.  So does a stored body that lacks a
        key the current writers write; the error names the key.

        ``config`` / ``matchers`` override the persisted session knobs and
        the (non-serializable) matcher stack; by default the saved config
        is restored and the default matchers are installed.
        """
        from ..storage import SqliteBackend, resolve_backend
        from ..storage.base import StorageBackend

        # A backend we construct here is ours to close if the restore
        # fails; one handed in live belongs to the caller.
        owns_backend = not isinstance(backend, StorageBackend)
        resolved = resolve_backend(backend) if backend is not None else None
        if resolved is None and path is not None and sniff_sqlite_file(path):
            resolved = SqliteBackend(path)
        if resolved is not None and resolved.supports_session_store:
            store: SessionStore = SqliteSessionStore(resolved)
        elif path is not None:
            store = FileSessionStore(path)
        else:
            raise SnapshotError(
                "QService.open needs a session location: a path (sqlite "
                "database or JSON sidecar) and/or a session-capable backend"
            )
        try:
            loaded = store.load()
            if loaded is None:
                raise SnapshotError(f"no session stored in {store.description}")
            body, entries = loaded

            service = cls.__new__(cls)
            service.config = config if config is not None else _restore_config(body["config"])
            if store.holds_rows:
                catalog = Catalog(backend=resolved)
            else:
                from ..datastore.csvio import source_from_dict

                catalog = Catalog(
                    [source_from_dict(payload) for payload in body["catalog"]["sources"]],
                    backend=resolved,
                )
            graph, profile_index, overlay = restore_core(
                body, entries, catalog, service.config.graph, store.holds_rows
            )
            service._assemble(catalog, graph, profile_index, matchers)
            restore_overlay(service, overlay)
            profile_index.rebind_tables(catalog)
            if autosave is True and isinstance(store, FileSessionStore):
                autosave = store.path
            service._init_persistence(autosave)
            if isinstance(store, FileSessionStore):
                service._save_path = store.path
            service._persistence = SessionPersistence(
                store, compact_after=service.config.journal_compact_after
            )
            service._persistence.attach_restored(service, body["snapshot_version"], overlay)
            return service
        except BaseException as exc:
            if owns_backend and resolved is not None:
                resolved.close()
            if isinstance(exc, KeyError):
                raise SnapshotError(f"corrupt session in {store.description}: missing key {exc}") from exc
            raise

    def _after_mutation(self) -> None:
        """Autosave hook, called at the end of every mutating service call."""
        if self._autosave and not self._applying:
            with active_trace().span("autosave"):
                self.save()

    def apply_once(self, key: str, mutate: Callable[[], object]) -> object:
        """Run the write ``mutate`` at most once under the idempotency ``key``.

        The key is recorded with the write's result before the autosave, so
        a call that repeats a key whose write already landed (the retry of a
        write whose save failed) runs only the save and returns the recorded
        result.  A write that raises records nothing.  After a reopen a
        repeated key still runs nothing, and returns ``None``.
        """
        if key not in self.applied_ops:
            self._applying = True
            try:
                result = mutate()
            finally:
                self._applying = False
            self.applied_ops[key] = result
            if len(self.applied_ops) > _APPLIED_OPS_LIMIT:
                self.applied_ops.popitem(last=False)
        self._after_mutation()
        return self.applied_ops[key]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> SystemStats:
        """Aggregate session counters.

        Mostly a cheap read that refreshes nothing; ``storage_bytes`` may
        be O(rows) on the memory backend (page-count arithmetic on SQLite).
        The counter fields are read back through the session's metrics
        registry (the gauges registered by :meth:`_register_metrics`), so
        this dataclass is a typed view over the same numbers a
        :meth:`metrics` scrape reports.
        """
        value = self.obs.registry.value
        return SystemStats(
            **{field: int(value(name)) for field, name, _, _ in _SESSION_COUNTERS},
            backend=self.catalog.backend_kind,
            storage_bytes=self.catalog.storage_size_bytes(),
            snapshot_version=(
                self._persistence.snapshot_version if self._persistence else 0
            ),
            journal_entries=(
                self._persistence.store.entry_count() if self._persistence else 0
            ),
        )

    def metrics(self, fmt: str = "prometheus"):
        """The session's metrics registry in exposition form.

        ``fmt="prometheus"`` (or ``"text"``) returns the Prometheus text
        format — point a scraper at whatever endpoint serves this string;
        ``fmt="json"`` returns the same samples as a plain dict.  Gauges are
        evaluated at call time against the live session structures.
        """
        if fmt in ("prometheus", "text"):
            return self.obs.registry.prometheus_text()
        if fmt == "json":
            return self.obs.registry.as_dict()
        raise InvalidRequestError(f"unknown metrics format {fmt!r}; use 'prometheus' or 'json'")

    def close(self) -> None:
        """Release the catalog's storage resources.

        If the session persists (a :meth:`save` happened, or ``autosave``
        is on), any unsaved mutations are checkpointed first, so
        close/reopen never loses state.  Row ingests were always committed
        eagerly; sessions that never called :meth:`save` still lose their
        graph/weights/views on close — exactly the pre-persistence
        behavior.  Safe to call repeatedly; required before another session
        reopens the same SQLite file.
        """
        backend_closed = bool(getattr(self.catalog.backend, "closed", False))
        if (
            self._persistence is not None
            and self._persistence.snapshot_version > 0
            and not backend_closed
        ):
            self.save()
        self.catalog.close()
        self.obs.close()

    def __enter__(self) -> "QService":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: delegate to :meth:`close` (idempotent)."""
        self.close()
