"""Copy-on-publish read snapshots for the concurrent serving layer.

Every lazy view already pins itself to a ``(weights.version,
structure_version)`` staleness key; this module turns that pinning into
real *snapshot objects*.  After each applied mutation the single writer
captures a :class:`ReadSnapshot`: a frozen copy of the weight vector, the
set of registered views (each holding its immutable query-graph expansion),
and the per-tenant overlay shadows at that instant.  Readers grab the
current snapshot reference once and answer entirely against it, so a query
never blocks on a registration and never observes a half-applied mutation —
the next snapshot simply replaces the reference.

What makes the frozen state cheap is that everything heavyweight is shared
structurally, never copied:

* node/edge objects are immutable once published (the search graph's
  association merge is copy-on-write), so a snapshot's graphs share them;
* a view's query-graph object is replaced wholesale on re-expansion, never
  mutated, so the snapshot can hold the object itself;
* the weight copy is one dict copy, and tenant shadows are sparse deltas.

Reads *materialize at most once* per (view, tenant) per snapshot: the first
reader builds a transient :class:`~repro.core.view.RankedView` priced under
the frozen weights (or the tenant's frozen overlay) and publishes the
materialized answer tuple under a per-entry event; concurrent readers of
the same key wait for it instead of re-solving.  A slot's answers are a
function of its view's query graph, the weights of the features that
graph's learnable edges carry (an edge costs its fixed cost or
``max(minimum, w·f)`` over its own features) and the tables its queries
read: equal weights price the graph bit for bit alike, so they give the
same ranking and the same queries, and the same tables give those queries
the same rows.  So the next snapshot carries a slot over when its view kept
its query-graph object, no weight that graph carries moved under the slot's
vector — the frozen base, or the tenant's overlay of it — and every table
the slot's queries read is the same object at the same version.  Feedback
for a *different* tenant, or a base step on features only other views
carry, recomputes nothing; a row written to a table a view reads does.

A snapshot reads through the session's own
:class:`~repro.engine.context.ExecutionContext`, whatever moved: its
staleness is each table's identity and version, so the transient view
executes only the queries no reader has run over the tables as they stand.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Dict, Optional, Tuple

from ..api.types import QueryRequest
from ..core.view import RankedView
from ..datastore.provenance import AnswerTuple
from ..datastore.table import Table
from ..engine.context import ExecutionContext, TableReads
from ..exceptions import UnknownRelationError, UnknownViewError
from ..faults.budget import Budget
from ..graph.features import WeightVector
from ..graph.query_graph import QueryGraph
from ..learning.overlays import OverlayWeightVector
from ..obs.tracing import active_trace


class SnapshotView:
    """One view as captured by a snapshot: immutable expansion + ranking key."""

    __slots__ = ("view_id", "name", "keywords", "k", "query_graph")

    def __init__(
        self,
        view_id: str,
        name: str,
        keywords: Tuple[str, ...],
        k: int,
        query_graph: QueryGraph,
    ) -> None:
        self.view_id = view_id
        self.name = name
        self.keywords = keywords
        self.k = k
        #: The live view's expansion *object* at capture time.  Expansions
        #: are replaced wholesale on rebuild (never mutated in place), so
        #: holding the object pins exactly the structure this snapshot saw.
        self.query_graph = query_graph


class _PinnedRead:
    """Materialization slot for one (view, tenant) on one snapshot."""

    __slots__ = ("event", "answers", "error", "features", "carry_key", "reads")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.answers: Optional[Tuple[AnswerTuple, ...]] = None
        self.error: Optional[BaseException] = None
        #: Set with the answers.  ``features`` is the query graph's feature
        #: index (:meth:`~repro.engine.context.SteinerNetworkCache.features`);
        #: ``carry_key`` is (query-graph object, the weight of each of those
        #: features under the slot's vector, packed as doubles).  The next
        #: snapshot carries the entry over iff its own key for the same
        #: (view, tenant) is identical (no weight the graph carries moved)
        #: and no table of ``reads`` moved.
        self.features: Dict[str, int] = {}
        self.carry_key: Optional[Tuple[QueryGraph, bytes]] = None
        #: Each table the slot's queries read, with its version, taken before
        #: they ran (:meth:`~repro.engine.context.ExecutionContext.table_reads`).
        self.reads: TableReads = ()


class ReadSnapshot:
    """An immutable view of one service state, safe for concurrent reads."""

    def __init__(
        self,
        snapshot_id: int,
        catalog,
        weights: WeightVector,
        views: Dict[str, SnapshotView],
        names: Dict[str, str],
        tenants: Dict[str, Tuple[Dict[str, float], int]],
        context: ExecutionContext,
        answer_limit: Optional[int],
        count: Callable[[str], None],
    ) -> None:
        self.snapshot_id = snapshot_id
        self.catalog = catalog
        self.weights = weights
        self.views = views
        self.names = names
        self.tenants = tenants
        self.context = context
        self.answer_limit = answer_limit
        self._pinned: Dict[Tuple[str, Optional[str]], _PinnedRead] = {}
        self._lock = threading.Lock()
        #: Called with ``"pinned_materializations"`` or ``"pinned_carryovers"``
        #: once per slot this snapshot computes or carries over: the server's
        #: totals, which outlive any one snapshot.
        self._count = count

    # ------------------------------------------------------------------
    # Capture / publish
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        service,
        snapshot_id: int,
        previous: Optional["ReadSnapshot"],
        count: Callable[[str], None],
    ) -> "ReadSnapshot":
        """Freeze ``service``'s current state (writer lane only).

        The caller must have completed all structural view preparation
        (:meth:`~repro.api.service.QService.prepare_views`) first, so every
        captured query graph reflects the current graph structure.
        """
        frozen = service.graph.weights.copy()
        # WeightVector.copy() resets the mutation counter; restore it so
        # version-keyed caches (Steiner networks, view solve states) treat
        # the frozen vector exactly like the live one it mirrors.
        frozen.version = service.graph.weights.version

        views: Dict[str, SnapshotView] = {}
        names: Dict[str, str] = {}
        for record in service.views.records():
            view = record.view
            sv = SnapshotView(
                view_id=record.view_id,
                name=record.name,
                keywords=tuple(view.keywords),
                k=view.k,
                query_graph=view.query_graph,
            )
            views[record.view_id] = sv
            names[record.name] = record.view_id

        tenants = {
            name: (
                service.tenants.overlay(name).shadow_dict(),
                service.tenants.overlay(name).local_version,
            )
            for name in service.tenants.names()
        }

        snapshot = cls(
            snapshot_id=snapshot_id,
            catalog=service.catalog,
            weights=frozen,
            views=views,
            names=names,
            tenants=tenants,
            context=service.engine_context,
            answer_limit=service.config.answer_limit,
            count=count,
        )
        if previous is not None:
            snapshot._carry_over(previous)
        return snapshot

    def _carry_over(self, previous: "ReadSnapshot") -> None:
        """Adopt still-valid materialized answers from the prior snapshot."""
        with previous._lock:
            entries = dict(previous._pinned)
        for (view_id, tenant), entry in entries.items():
            if not entry.event.is_set() or entry.error is not None:
                continue
            sv = self.views.get(view_id)
            if sv is None:
                continue
            if entry.carry_key == self._carry_key(sv, tenant, entry.features) and self._unmoved(entry.reads):
                # A finished slot never changes again: both snapshots hold it.
                self._pinned[(view_id, tenant)] = entry
                self._count("pinned_carryovers")

    def _carry_key(
        self, sv: SnapshotView, tenant: Optional[str], features: Dict[str, int]
    ) -> Tuple[QueryGraph, bytes]:
        """What the (``sv``, ``tenant``) slot's answers are a function of."""
        prices = self._weights_for(tenant).gather(features)
        return (sv.query_graph, array("d", prices).tobytes())

    def _unmoved(self, reads: TableReads) -> bool:
        """Whether each table of ``reads`` is still the catalog's, at the same version."""
        try:
            return all(
                self.catalog.relation(table.schema.qualified_name) is table and table.version == version
                for table, version in reads
            )
        except UnknownRelationError:
            return False

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, request: QueryRequest) -> Optional[SnapshotView]:
        """The snapshot view a query request addresses, or ``None``.

        ``request.view`` may be a view id or a view name (the same strings
        the live registry resolves); an unknown one raises.  Without it the
        request's :attr:`~repro.api.types.QueryRequest.view_name` is looked
        up, and ``None`` means the view does not exist *on this snapshot* —
        the server then routes view creation through the writer lane.
        """
        ref = request.view
        if ref is not None:
            sv = self.views.get(ref)
            if sv is not None:
                return sv
            view_id = self.names.get(ref)
            if view_id is not None:
                return self.views.get(view_id)
            raise UnknownViewError(ref, tuple(self.names))
        view_id = self.names.get(request.view_name)
        return self.views.get(view_id) if view_id is not None else None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def answers_for(
        self,
        sv: SnapshotView,
        tenant: Optional[str] = None,
        budget: Optional[Budget] = None,
    ) -> Tuple[AnswerTuple, ...]:
        """Materialized ranked answers of one view under one tenant's weights.

        Solved and executed at most once per (view, tenant) on this
        snapshot; concurrent readers of the same key wait on the first
        reader's event instead of duplicating the work.

        A deadline-bearing read (``budget`` given) never *creates* a pinned
        slot: a budget can truncate the materialization, and a partial
        answer set must not become the answers every later reader of this
        (view, tenant) receives — nor an entry the next snapshot carries
        over.  It reuses an already-completed slot for free, and otherwise
        materializes privately under its budget.
        """
        key = (sv.view_id, tenant)
        trace = active_trace()
        if budget is not None:
            with self._lock:
                entry = self._pinned.get(key)
            if entry is not None and entry.event.is_set() and entry.error is None:
                assert entry.answers is not None
                trace.annotate_once("path", "cached")
                return entry.answers
            with trace.span("materialize"):
                return self._materialize(sv, tenant, budget=budget)
        with self._lock:
            entry = self._pinned.get(key)
            creator = entry is None
            if creator:
                entry = _PinnedRead()
                self._pinned[key] = entry
        if creator:
            self._count("pinned_materializations")
            try:
                with trace.span("materialize"):
                    view = self._twin(sv, tenant)
                    answers = view.stream_answers()  # solves now, executes lazily
                    reads: Dict[Table, int] = {}
                    for generated in view.state.queries:
                        reads.update(self.context.table_reads(generated.query))
                    entry.reads = tuple(reads.items())
                    entry.answers = tuple(answers)
                entry.features = self.context.steiner_cache.features(view.base_graph)
                entry.carry_key = self._carry_key(sv, tenant, entry.features)
            except BaseException as exc:  # propagate to every waiter
                entry.error = exc
                raise
            finally:
                entry.event.set()
        elif entry.event.is_set():
            # The slot was materialized (or carried over) before this read:
            # a pure cache replay, no waiting involved.
            trace.annotate_once("path", "cached")
            if entry.error is not None:
                raise entry.error
        else:
            # A concurrent reader is materializing the same (view, tenant);
            # this read shares its result.
            trace.annotate_once("path", "shared")
            with trace.span("wait_shared"):
                entry.event.wait()
            if entry.error is not None:
                raise entry.error
        assert entry.answers is not None
        return entry.answers

    def _materialize(
        self,
        sv: SnapshotView,
        tenant: Optional[str],
        budget: Optional[Budget] = None,
    ) -> Tuple[AnswerTuple, ...]:
        return tuple(self._twin(sv, tenant).stream_answers(budget=budget))

    def _twin(self, sv: SnapshotView, tenant: Optional[str]) -> RankedView:
        """A transient view of ``sv``'s expansion priced under ``tenant``'s frozen weights."""
        return RankedView.priced_twin(
            sv.query_graph,
            self._weights_for(tenant),
            sv.keywords,
            self.catalog,
            k=sv.k,
            answer_limit=self.answer_limit,
            engine_context=self.context,
        )

    def _weights_for(self, tenant: Optional[str]) -> WeightVector:
        if tenant is None:
            return self.weights
        shadow, local_version = self.tenants.get(tenant, ({}, 0))
        # A tenant unseen at capture time reads base-ranked answers (an
        # empty overlay) — exactly what its first live read would see.
        return OverlayWeightVector(self.weights, shadow=shadow, local_version=local_version)

    def pinned_count(self) -> int:
        """How many (view, tenant) materialization slots exist."""
        with self._lock:
            return len(self._pinned)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadSnapshot(id={self.snapshot_id}, views={len(self.views)}, "
            f"w={self.weights.version})"
        )
