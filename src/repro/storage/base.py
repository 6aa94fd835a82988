"""The storage-backend protocol: the contract at the bottom of the stack.

Everything above this layer — :class:`~repro.datastore.table.Table`, the
catalog, the query engine, profiling, the service API — manipulates relations
through a :class:`StorageBackend`.  The backend owns physical tuple storage;
the layers above own schemas, query semantics and ranking.  Two
implementations ship with the library:

* :class:`~repro.storage.memory.MemoryBackend` — Python-list row storage,
  the refactored form of the original in-memory ``Table`` internals;
* :class:`~repro.storage.sqlite.SqliteBackend` — one SQLite database per
  catalog, on disk or ``:memory:``: the SQL row model (``executemany`` bulk
  ingest, cached scans, catalog persistence), real indexes on
  join/selection columns and SQL pushdown of whole conjunctive queries.

Protocol contract
-----------------
Implementations must honor these invariants; the cross-backend parity suite
(``tests/test_storage_backends.py``) holds them to it:

**Scan ordering.**  :meth:`StorageBackend.scan` returns rows in insertion
order, and ``Row.row_id`` is the zero-based insertion position.  Row ids are
never reused or reassigned: answers carry ``(relation, row_id)`` provenance,
and the ranked union's deterministic output order sorts on row-id tuples, so
any backend that renumbered rows would change observable results.

**Canonicalization.**  Join keys and selection matching compare the
*canonical* textual form of a value
(:func:`repro.datastore.types.canonicalize`) — stripped, null-like values
mapped to ``None``, booleans to ``"true"``/``"false"``, integral floats to
their integer rendering.  A backend keeps no summary of a column's values:
the profile index (:mod:`repro.profiling`) canonicalizes the cells it scans
into each attribute's distinct values, the only such summary, and every
matcher reads it there.  A backend that evaluates
predicates natively (SQL pushdown) must reproduce these semantics exactly;
the SQLite backend does so by registering the library's own canonicalize
function with the database rather than approximating it in SQL.

**Ingest atomicity.**  One :meth:`StorageBackend.insert_rows` call is
all-or-nothing: if any row of the batch fails (arity mismatch, uncodable
value), no row of the batch is visible afterwards and the relation's version
counter does not move.  A successful batch bumps the version exactly once.

**Versioning.**  :meth:`StorageBackend.version` is a per-relation counter
that strictly increases with every successful mutation.  Engine caches key
on ``(table identity, version)`` to detect staleness without callbacks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datastore.schema import RelationSchema
    from ..datastore.table import Row

class StorageBackend(ABC):
    """Abstract base of all storage backends.

    A backend stores *relations* keyed by their qualified name
    (``"<source>.<relation>"``).  The :class:`~repro.datastore.table.Table`
    facade binds one relation key to one schema and forwards every data
    operation here; no layer above :mod:`repro.storage` touches physical row
    storage directly.
    """

    #: Short backend identifier (``"memory"`` / ``"sqlite"``), reported by
    #: :class:`~repro.api.types.SystemStats` and the backend registry.
    kind: str = "abstract"

    #: Whether the engine may push whole conjunctive queries down to the
    #: backend as SQL.
    supports_sql_pushdown: bool = False

    #: Whether the backend can host the durable session snapshot/journal
    #: next to the relation data (see :mod:`repro.persist`).  When ``True``
    #: the backend must expose ``execute_sql`` and ``execute_write`` so the
    #: session store can manage its ``_repro_session_*`` tables; sessions on
    #: backends without this capability persist to a sidecar file instead.
    supports_session_store: bool = False

    # ------------------------------------------------------------------
    # Relation lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def create_relation(
        self, key: str, schema: "RelationSchema", initial_version: int = 0
    ) -> None:
        """Create storage for ``key``; raises ``StorageError`` if it exists.

        ``initial_version`` seeds the relation's version counter — a table
        migrating between backends carries its counter forward so engine
        caches keyed on ``(table, version)`` can never alias across the move.
        """

    @abstractmethod
    def bind_schema(self, key: str, schema: "RelationSchema") -> None:
        """(Re)associate an *existing* relation with its schema object.

        Used when reopening a persistent backend: the relation's rows are
        already stored, and the freshly reconstructed schema object must be
        the one future :class:`~repro.datastore.table.Row` objects reference.
        """

    @abstractmethod
    def has_relation(self, key: str) -> bool:
        """Whether storage for ``key`` exists."""

    @abstractmethod
    def drop_relation(self, key: str) -> None:
        """Delete ``key``'s storage (no-op if absent)."""

    @abstractmethod
    def relation_keys(self) -> Tuple[str, ...]:
        """Keys of every stored relation."""

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @abstractmethod
    def append_row(self, key: str, values: Tuple[object, ...]) -> "Row":
        """Append one coerced value tuple; returns the stored row."""

    @abstractmethod
    def insert_rows(self, key: str, rows: Iterable[Tuple[object, ...]]) -> int:
        """Bulk-ingest coerced value tuples; returns the number inserted.

        Atomic (see the module docstring) and streaming-friendly: ``rows``
        may be a generator and is consumed lazily, so callers can feed CSV
        batches without materializing whole files.
        """

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @abstractmethod
    def scan(self, key: str) -> Sequence["Row"]:
        """All rows of ``key`` in insertion (row-id) order.

        The returned sequence is owned by the backend — callers must not
        mutate it.
        """

    @abstractmethod
    def row_count(self, key: str) -> int:
        """Number of stored rows."""

    @abstractmethod
    def version(self, key: str) -> int:
        """The relation's monotonically increasing data version."""

    # ------------------------------------------------------------------
    # Catalog metadata persistence
    # ------------------------------------------------------------------
    def save_source_schema(self, name: str, payload: dict) -> None:
        """Persist one source's schema description (no-op by default).

        Persistent backends store the payload so a later session can
        reconstruct the catalog without re-ingesting data.
        """
        del name, payload

    def delete_source_schema(self, name: str) -> None:
        """Forget a persisted source schema (no-op by default)."""
        del name

    def persisted_source_schemas(self) -> List[dict]:
        """All persisted source-schema payloads, in registration order."""
        return []

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def storage_size_bytes(self) -> int:
        """Approximate bytes of stored data (may be O(rows) to compute)."""

    def close(self) -> None:
        """Release held resources (connections, caches).  Idempotent."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(relations={len(self.relation_keys())})"
