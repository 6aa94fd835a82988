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

This module holds construction, the session counters, the view and read
path, and ``stats`` / ``metrics`` / ``close``.  The rest of the session's
calls live beside it, in classes :class:`QService` inherits: source
registration and alignment (paper §3) in :mod:`repro.api.registration`,
feedback learning and tenant overlays (§4) in :mod:`repro.api.feedback`,
and ``save`` / ``open`` / autosave / ``apply_once`` in
:mod:`repro.api.durability`.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..alignment.registration import SourceRegistrar
from ..core.view import RankedView
from ..datastore.database import Catalog, DataSource
from ..datastore.provenance import AnswerTuple
from ..engine.context import ExecutionContext
from ..exceptions import InvalidRequestError
from ..graph.query_graph import QueryGraphBuilder
from ..graph.search_graph import SearchGraph
from ..learning.feedback import FeedbackLog
from ..learning.mira import OnlineLearner
from ..learning.overlays import TenantRegistry
from ..matching.base import BaseMatcher
from ..matching.mad import MadMatcher
from ..matching.metadata_matcher import MetadataMatcher
from ..obs import Observability
from ..profiling.index import CatalogProfileIndex
from ..steiner.topk import KBestSteiner
from .durability import DurabilityMixin
from .feedback import FeedbackMixin
from .registration import RegistrationMixin
from .streaming import paginate
from .types import AnswerPage, QueryRequest, ServiceConfig, SystemStats, ViewInfo, ViewRef
from .views import ViewRecord, ViewRegistry


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


class QService(RegistrationMixin, FeedbackMixin, DurabilityMixin):
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
        # The callbacks must not own the session: the registry would make it
        # a reference cycle, freed by a collector pass instead of its last
        # reference going.
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
        view = RankedView(
            list(request.keywords),
            self.catalog,
            self.graph,
            k=request.k if request.k is not None else self.config.top_k,
            builder=self._query_builder(),
            answer_limit=self.config.answer_limit,
            engine_context=self.engine_context,
        )
        if materialize:
            view.refresh()
        else:
            view.prepare()
        record = self.views.add(view, request.view_name)
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

    # ------------------------------------------------------------------
    # Lazy consistency
    # ------------------------------------------------------------------
    def _pull(self, record: ViewRecord, read: str = "prepare", tenant: Optional[str] = None, **window):
        """Bring ``record``'s view up to date and return what ``read`` yields.

        The *only* place a registered view is expanded, solved or executed;
        mutations never call it.  ``read`` names the pull — ``prepare`` (solve
        only), ``stream_answers`` or ``answers_page`` (with its ``window``) —
        each of which prepares the view exactly once; whether that ran the
        solver is what the session counts as a refresh.  With a
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
        return paginate(stream, record.view_id, request.page_size_under(self.config), limit=request.limit)

    def stream_answers(self, request: QueryRequest) -> Iterator[AnswerTuple]:
        """Like :meth:`answers` but yielding raw answers without paging."""
        record = self._record_for_query(request)
        return itertools.islice(self._pull(record, "stream_answers", request.tenant), request.limit)

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
        page_size = request.page_size_under(self.config)
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
        request.require_target()
        if request.view is not None:
            record = self.views.resolve(request.view)
        else:
            record = self.views.find_by_name(request.view_name)
            if record is None:
                # Auto-created views defer all query execution to the stream:
                # the first read is genuinely pay-per-page.
                info = self.create_view(request, materialize=False)
                return self.views.resolve(info.view_id)
        request.check_k(record.name, record.view_id, record.view.k)
        return record

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
            snapshot_version=self._persistence.snapshot_version if self._persistence else 0,
            journal_entries=self._persistence.store.entry_count() if self._persistence else 0,
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
