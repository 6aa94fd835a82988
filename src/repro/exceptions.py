"""Exception hierarchy for the Q reproduction library.

Every error raised by the library derives from :class:`ReproError` (whose
historical name :data:`QError` remains an alias) so that callers can catch
library-specific failures without masking programming errors such as
:class:`TypeError` or :class:`KeyError` raised by misuse of Python itself.

Each class carries a ``retryable`` flag: ``True`` means the condition is
expected to clear on its own (a momentarily locked SQLite database, a full
write queue, a server in degraded mode awaiting :meth:`recover`), so an
identical retry of the failed operation is safe and reasonable.  The
serving layer's writer lane keys its backoff-and-retry policy off this flag
— see :mod:`repro.faults.retry` and the README error table.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Whether an identical retry of the failed operation may succeed once
    #: the (transient) condition clears.  Errors describing caller mistakes
    #: or permanent state keep the ``False`` default.
    retryable: bool = False


#: Historical name of :class:`ReproError`; kept as a true alias so existing
#: ``except QError`` handlers and subclasses are unaffected.
QError = ReproError


class SchemaError(QError):
    """Raised when a schema definition is inconsistent.

    Examples include duplicate attribute names within a relation, foreign
    keys that reference attributes which do not exist, or registering two
    relations under the same qualified name.
    """


class UnknownRelationError(SchemaError):
    """Raised when a relation name cannot be resolved in a catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """Raised when an attribute name cannot be resolved in a relation."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"unknown attribute {attribute!r} in relation {relation!r}")
        self.relation = relation
        self.attribute = attribute


class DataError(QError):
    """Raised when tuple data does not conform to its relation schema."""


class StorageError(QError):
    """Raised by storage backends (:mod:`repro.storage`).

    Examples include registering two relations under the same key on one
    backend, scanning a relation that was never created, or handing a
    SQLite-backed relation a value type the backend cannot round-trip.
    """


class TransientStorageError(StorageError):
    """A storage failure expected to clear on retry (locked / busy / injected).

    The fault classifier (:func:`repro.faults.retry.classify_storage_error`)
    wraps recognizably transient backend failures — SQLite ``database is
    locked`` / ``database table is locked`` / ``busy``, and injected I/O
    faults from the test harness — in this type so the serving layer's
    writer lane knows an identical retry with backoff is warranted.  The
    original failure rides on ``__cause__``.
    """

    retryable = True


class GraphError(QError):
    """Raised for inconsistent search-graph or query-graph operations."""


class UnknownNodeError(GraphError):
    """Raised when a node id is not present in a graph."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown graph node: {node_id!r}")
        self.node_id = node_id


class QueryError(QError):
    """Raised when a conjunctive query is malformed or cannot be executed."""


class SteinerError(QError):
    """Raised when a Steiner-tree computation cannot be carried out.

    The most common cause is a set of terminals that is not connected in the
    underlying graph, in which case no Steiner tree exists — see
    :class:`DisconnectedTerminalsError`.
    """


class DisconnectedTerminalsError(SteinerError):
    """Raised when no Steiner tree exists because terminals are disconnected.

    Both the exact and the approximate solver raise this (rather than a bare
    :class:`SteinerError`) so that callers like the top-k enumerator can
    distinguish "no tree exists" from solver-capability failures without
    inspecting the error message.
    """

    def __init__(self, message: str = "terminals are not connected in the graph") -> None:
        super().__init__(message)


class BoundExceededError(SteinerError):
    """Raised by a solve under an ``upper_bound`` when no tree costs within it.

    Not a statement about connectivity: the search stopped at the bound, so
    the terminals may or may not be connected beyond it.
    """


class MatcherError(QError):
    """Raised when a schema matcher is misconfigured or fails."""


class InvalidRequestError(QError):
    """Raised when a ``repro.api`` request object is malformed.

    Examples include a :class:`~repro.api.types.QueryRequest` naming neither
    keywords nor an existing view, or a non-positive page size.
    """


class UnknownStrategyError(QError):
    """Raised on dispatch over an unknown alignment-strategy name.

    The message lists the valid options so callers of the typed API never
    have to guess at the registry contents.
    """

    def __init__(self, value: object, valid: "tuple[str, ...]") -> None:
        super().__init__(
            f"unknown alignment strategy {value!r}; valid strategies: {', '.join(valid)}"
        )
        self.value = value
        self.valid = tuple(valid)


class UnknownMatcherError(MatcherError):
    """Raised on dispatch over an unknown matcher name; lists valid options."""

    def __init__(self, value: object, valid: "tuple[str, ...]") -> None:
        super().__init__(
            f"unknown matcher {value!r}; registered matchers: {', '.join(valid)}"
        )
        self.value = value
        self.valid = tuple(valid)


class UnknownViewError(QError):
    """Raised when a view id / name cannot be resolved; lists known views."""

    def __init__(self, value: object, known: "tuple[str, ...]") -> None:
        known = tuple(known)
        listing = ", ".join(known) if known else "(none registered)"
        super().__init__(f"unknown view {value!r}; known views: {listing}")
        self.value = value
        self.known = known


class AlignmentError(QError):
    """Raised by aligner strategies (exhaustive / view-based / preferential)."""


class LearningError(QError):
    """Raised by the feedback / MIRA learning components."""


class FeedbackError(LearningError):
    """Raised when user feedback refers to unknown answers or queries."""


class RegistrationError(QError):
    """Raised when registration of a new data source fails."""


class ServiceOverloadedError(QError):
    """Raised when the serving layer's bounded writer queue is full.

    The concurrent server (:mod:`repro.service`) funnels every mutation —
    registrations, feedback, removals — through a single-writer queue so
    readers never observe a half-applied change.  The queue is bounded to
    provide backpressure: once ``write_queue_limit`` mutations are pending,
    further writes fail fast with this error instead of piling up behind a
    registration burst.  Reads are never rejected; they do not enter the
    queue at all.
    """

    retryable = True

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"write queue is full ({pending} pending, limit {limit}); retry later"
        )
        self.pending = pending
        self.limit = limit


class DeadlineExceededError(QError):
    """Raised when a read's deadline expired before any answer materialized.

    Deadlines are enforced *cooperatively*: the request's
    :class:`~repro.faults.budget.Budget` is polled at the Steiner solver's
    branch points (per Dijkstra pop batch, per DP subset, per expansion) and
    at the executor's per-query boundaries.  When the budget expires after
    at least one ranked answer exists, the read returns a partial
    :class:`~repro.service.server.ReadResult` flagged ``degraded=True``
    instead of raising; this error means the deadline was too tight to
    produce even that.
    """

    def __init__(self, deadline_ms: float, elapsed_ms: float, where: str = "") -> None:
        suffix = f" in {where}" if where else ""
        super().__init__(
            f"deadline of {deadline_ms:g} ms exceeded after "
            f"{elapsed_ms:.3f} ms{suffix}"
        )
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        self.where = where


class ServiceUnavailableError(QError):
    """Raised for writes while a :class:`~repro.service.server.QServer` is degraded.

    A non-transient storage failure flips the server into read-only degraded
    mode: reads keep serving the last published snapshot, but pending and
    new writes fail fast with this error until :meth:`QServer.recover`
    revalidates the backend.  Retryable by definition — the caller may retry
    after recovery.
    """

    retryable = True

    def __init__(self, reason: str = "server is in degraded read-only mode") -> None:
        super().__init__(reason)
        self.reason = reason


class ServerClosedError(InvalidRequestError):
    """Raised for requests to a closed server, and used by the bounded drain.

    ``QServer.close(timeout=...)`` fails writes still queued behind a wedged
    writer with this error instead of blocking forever.  Subclasses
    :class:`InvalidRequestError` so pre-existing ``except`` handlers for
    requests against a closed server keep working.
    """

    def __init__(self, message: str = "QServer is closed") -> None:
        super().__init__(message)


class SnapshotError(QError):
    """Raised by the session persistence layer (:mod:`repro.persist`).

    Covers every way a durable session can fail to round-trip: a missing or
    truncated snapshot, a checksum mismatch (corruption), a snapshot written
    by an incompatible format version, a journal entry that cannot be
    replayed, or a save attempted without a resolvable storage location
    (e.g. a memory-backed session saved without a sidecar path).
    """
