"""Request/response dataclasses of the typed service API.

Every interaction with :class:`~repro.api.service.QService` goes through a
frozen request object and returns a frozen response object, so the public
surface is serialization-friendly and stable: a request captures *what* the
caller wants, the service decides *when* the work happens (mutations are
priced lazily at read time).

The one mutable dataclass here is :class:`ServiceConfig` — the session
knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple, Union

from ..datastore.provenance import AnswerTuple
from ..exceptions import InvalidRequestError
from ..graph.search_graph import GraphConfig
from ..learning.feedback import AnnotationKind, FeedbackEvent
from .strategies import AlignmentStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..alignment.base import AlignmentResult
    from ..core.view import RankedView
    from ..datastore.database import DataSource
    from ..matching.base import BaseMatcher

#: A view reference accepted by the service: stable view id, view name, or
#: (for in-process callers) the live :class:`~repro.core.view.RankedView`
#: object itself.
ViewRef = Union[str, "RankedView"]


def _require_at_least(owner: object, floors: Tuple[Tuple[str, int], ...]) -> None:
    """Raise :class:`~repro.exceptions.InvalidRequestError` for the first
    ``(name, least)`` of ``floors`` whose value on ``owner`` is below
    ``least``; ``None`` means "unset" and passes."""
    for name, least in floors:
        value = getattr(owner, name)
        if value is not None and value < least:
            raise InvalidRequestError(f"{name} must be >= {least}, got {value}")


@dataclass
class ServiceConfig:
    """Top-level knobs of a Q service session.

    Construction rejects ``top_k``, ``top_y``, ``default_page_size`` or
    ``write_queue_limit`` below 1 and a negative ``answer_limit`` with
    :class:`~repro.exceptions.InvalidRequestError`: no read could serve them.
    """

    top_k: int = 5
    top_y: int = 2
    graph: GraphConfig = field(default_factory=GraphConfig)
    answer_limit: Optional[int] = 200
    #: Answers per :class:`AnswerPage` when a request does not override it.
    default_page_size: int = 25
    #: Durable sessions: once the mutation journal holds this many entries,
    #: the next :meth:`~repro.api.service.QService.save` folds journal and
    #: snapshot into one fresh snapshot (compaction) instead of appending.
    journal_compact_after: int = 64
    #: Registration scaling knobs (see README "Scaling registration").
    #: Number of hash shards the profile index's posting lists are split
    #: across; 1 keeps the flat layout.  Results are identical for any N.
    profile_shards: int = 1
    #: MinHash signature length for the approximate blocking tier; 0 (the
    #: default) disables sketch maintenance entirely.  The signature is cut
    #: into ``sketch_num_perm // 2`` LSH bands (2 rows per band).
    sketch_num_perm: int = 0
    #: Serving-layer knob (see :mod:`repro.service`), and the one place
    #: to set it: bound on a :class:`~repro.service.server.QServer`'s
    #: single-writer mutation queue; writes admitted beyond it fail fast
    #: with :class:`~repro.exceptions.ServiceOverloadedError`.
    write_queue_limit: int = 64
    #: Observability (see :mod:`repro.obs` and the README "Observability"):
    #: ``False`` disables request tracing and the explain/slow-query logs —
    #: reads return ``trace=None`` and the hot path pays only plain counter
    #: increments.  The metrics registry itself always exists (scrapes just
    #: see static totals move).
    observability: bool = True
    #: Reads slower than this land in the bounded slow-query log with
    #: their full span tree and pushdown decision.
    slow_query_ms: float = 250.0

    def __post_init__(self) -> None:
        _require_at_least(
            self,
            (("top_k", 1), ("top_y", 1), ("default_page_size", 1), ("write_queue_limit", 1), ("answer_limit", 0)),
        )


@dataclass(frozen=True)
class QueryRequest:
    """Ask for the ranked answers of a keyword query.

    Either ``view`` names an existing view (by stable id or name), or
    ``keywords`` are given — in which case the service reuses the view
    registered under ``name`` (default: the joined keywords) or creates one.
    Construction rejects ``k`` or ``page_size`` below 1 and a negative
    ``limit`` or ``offset`` with :class:`~repro.exceptions.InvalidRequestError`,
    so every read path sees the same rule.

    Attributes
    ----------
    keywords:
        The keyword query terms.
    view:
        Reference to an existing view; takes precedence over ``keywords``.
    k:
        Number of query trees retained (defaults to the session config).
    name:
        Explicit view name when creating a view from ``keywords``.
    page_size:
        Answers per page (defaults to the session config).
    limit:
        Cap on the total number of answers streamed.
    offset:
        Starting rank of a random-access page read
        (:meth:`~repro.api.service.QService.answers_page` only; the
        streaming reads always start at rank 0).
    tenant:
        Optional tenant name: answers are ranked under that tenant's
        weight overlay (shared base weights plus the tenant's learned
        deltas) instead of the shared base vector.
    deadline_ms:
        Optional cooperative deadline for the read, in milliseconds.  The
        solve/execute layers poll a :class:`~repro.faults.budget.Budget` at
        their branch points; expiry yields a typed
        :class:`~repro.exceptions.DeadlineExceededError` or — once partial
        answers exist — a truncated result the serving layer flags
        ``degraded=True``.
    """

    keywords: Tuple[str, ...] = ()
    view: Optional[ViewRef] = None
    k: Optional[int] = None
    name: Optional[str] = None
    page_size: Optional[int] = None
    limit: Optional[int] = None
    offset: int = 0
    tenant: Optional[str] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keywords", tuple(self.keywords))
        _require_at_least(self, (("k", 1), ("page_size", 1), ("limit", 0), ("offset", 0)))

    @property
    def view_name(self) -> str:
        """The name of the view a keyword request reads: ``name``, else the joined keywords."""
        return self.name or " ".join(self.keywords)

    def page_size_under(self, config: ServiceConfig) -> int:
        """Answers per page: the request's own, else the session's default."""
        return self.page_size if self.page_size is not None else config.default_page_size

    def require_target(self) -> None:
        """Raise unless the request names a view or has keywords to find one by."""
        if self.view is None and not self.keywords:
            raise InvalidRequestError("QueryRequest needs keywords or a view reference")

    def check_k(self, view_name: str, view_id: str, k: int) -> None:
        """A request must not silently get a ranking of a different width."""
        if self.k is not None and k != self.k:
            raise InvalidRequestError(
                f"view {view_name!r} ({view_id}) has k={k}; the request asked for "
                f"k={self.k} — omit k to read the existing ranking, or create a "
                "view under another name"
            )


@dataclass(frozen=True)
class ViewInfo:
    """Snapshot description of one registered view."""

    view_id: str
    name: str
    keywords: Tuple[str, ...]
    k: int
    created_index: int
    tree_count: int
    alpha: Optional[float]


@dataclass(frozen=True)
class AnswerPage:
    """One page of a streamed ranked-answer read."""

    view_id: str
    index: int
    answers: Tuple[AnswerTuple, ...]
    has_more: bool

    def __len__(self) -> int:
        return len(self.answers)


@dataclass(frozen=True)
class RegisterSourceRequest:
    """Register a new data source and align it against the existing graph.

    Attributes
    ----------
    source:
        The new data source.
    strategy:
        An :class:`AlignmentStrategy` member or its string value.
    view:
        For the view-based strategy, the view whose information need drives
        the alignment; defaults to the most recently created view.
    matcher:
        Base matcher — an instance, or a built-in matcher name resolved
        through :func:`repro.matching.resolve_matcher`; defaults to the
        session's first configured matcher.
    value_filter:
        If ``True``, restrict comparisons to attribute pairs with value
        overlap (requires indexing all current tables plus the new one).
    max_relations:
        Budget for the preferential strategy; construction rejects a budget
        below 1 with :class:`~repro.exceptions.InvalidRequestError`.
    """

    source: "DataSource"
    strategy: Union[str, AlignmentStrategy] = AlignmentStrategy.VIEW_BASED
    view: Optional[ViewRef] = None
    matcher: Optional[Union[str, "BaseMatcher"]] = None
    value_filter: bool = False
    max_relations: Optional[int] = 5

    def __post_init__(self) -> None:
        _require_at_least(self, (("max_relations", 1),))


@dataclass(frozen=True)
class RegistrationResponse:
    """Outcome of a :class:`RegisterSourceRequest`."""

    source: str
    strategy: AlignmentStrategy
    edges_added: int
    attribute_comparisons: int
    candidate_relations: Tuple[str, ...]
    elapsed_seconds: float
    #: The full alignment artifact (correspondences, installed edges, ...).
    alignment: "AlignmentResult"


@dataclass(frozen=True)
class FeedbackRequest:
    """Annotate one answer of a view (paper Section 4).

    Attributes
    ----------
    view:
        The view whose answer is annotated.
    answer:
        The annotated answer (must carry provenance).
    kind:
        VALID / INVALID / PREFERRED_OVER.
    other:
        For PREFERRED_OVER, the answer that should rank lower.
    replay:
        How many times the generalized event is applied in a row.
    tenant:
        Optional tenant name: the learned update lands in that tenant's
        weight overlay, personalizing their ranking without perturbing the
        shared base weights.
    """

    view: ViewRef
    answer: AnswerTuple
    kind: AnnotationKind = AnnotationKind.VALID
    other: Optional[AnswerTuple] = None
    replay: int = 1
    tenant: Optional[str] = None


@dataclass(frozen=True)
class FeedbackResponse:
    """Outcome of one feedback interaction.

    No view is refreshed by feedback: the weight vector's version moved, and
    each view re-solves lazily the next time it is read.
    """

    view_id: str
    events: Tuple[FeedbackEvent, ...]
    steps_processed: int
    weight_change: float
    weights_version: int


@dataclass(frozen=True)
class SystemStats:
    """Aggregate counters of one service session.

    ``view_refreshes`` / ``view_refreshes_skipped`` expose the payoff of the
    pull-based consistency model: a skipped refresh is a read that found its
    view's ``(weights.version, structure_version)`` snapshot still current.

    ``backend`` / ``storage_bytes`` describe the session's storage layer:
    the :class:`~repro.storage.base.StorageBackend` kind serving the
    catalog (``"memory"`` / ``"sqlite"``) and the approximate bytes of
    relation data it holds.

    ``snapshot_version`` counts the full session snapshots written so far
    (``0`` = the session has never been persisted); it advances on the
    first :meth:`~repro.api.service.QService.save` and on every journal
    compaction.  ``journal_entries`` is the number of incremental delta
    entries currently pending on top of that snapshot.

    The registration-scaling block describes the candidate tiers:
    ``sketch_candidates`` counts attribute pairs proposed by the
    approximate MinHash/LSH + rare-token tier, ``exact_candidates`` those
    surviving exact re-verification, and ``pairs_scored`` the relation
    pairs the base matcher actually ran on.
    """

    sources: int
    relations: int
    attributes: int
    views: int
    feedback_events: int
    learner_steps: int
    registrations: int
    weights_version: int
    structure_version: int
    view_refreshes: int
    view_refreshes_skipped: int
    backend: str = "memory"
    storage_bytes: int = 0
    snapshot_version: int = 0
    journal_entries: int = 0
    profile_shards: int = 1
    sketch_candidates: int = 0
    exact_candidates: int = 0
    pairs_scored: int = 0
    #: Tenants with a weight overlay in this session (0 = single-tenant).
    tenants: int = 0
    #: Whole-query SELECTs served inside the storage backend instead of the
    #: Python engine (0 on backends without SQL pushdown).
    pushdown_queries: int = 0
    #: Always 0: bench/workloads.py reads both by name; a later `benchmark` issue removes them together.
    pushdown_scans: int = 0
    pushdown_union_queries: int = 0
    #: Full from-profile posting rebuilds the profile index performed: 0
    #: on a live session and across a warm open that only reads saved
    #: views, 1 after the first posting read of a reopened session.
    posting_builds: int = 0
    #: Steiner-network snapshot cache (shared across a session's reads):
    #: cache hits, from-scratch builds, and overlay rescores (a tenant
    #: network derived from its base twin instead of rebuilt).
    steiner_cache_hits: int = 0
    steiner_cache_builds: int = 0
    steiner_rescores: int = 0
