"""SQLite storage backend: the one SQL backend, and the SQL it is spelled in.

One :class:`SqliteBackend` wraps one SQLite database — a file path for
durable catalogs or ``":memory:"`` for ephemeral ones.  It owns the SQL row
model — ``"_row_id"`` insertion positions, ``"_tags"``-encoded booleans,
``c_`` prefixed data columns, a ``_repro_relations`` key registry and a
``_repro_catalog`` source-schema store — and the surface the engine lowers
reads onto:

* **Exact predicate semantics.**  The library's own
  :func:`~repro.datastore.types.canonicalize` is registered as the
  deterministic SQL function ``repro_canon``, so pushed-down selections and
  joins accept *precisely* the rows the Python engine accepts — parity is by
  construction, not by approximating canonicalization in SQL.  This module
  is the one place that name is spelled: :func:`canon_sql` and
  :func:`exact_condition` render calls to it for
  :mod:`repro.storage.pushdown`.
* **Real indexes** on join/selection columns: expression indexes over
  ``repro_canon(column)``, created on demand the first time a column is used
  as a join key or equality selection (``ensure_canon_index``).
* **In-database sessions.**  The session snapshot/journal tables live next
  to the relation data (``supports_session_store``), and storage size is
  read off the page count.

Value round-trip
----------------
``str``/``int``/``float``/``bytes``/``None`` cells are stored as they are.
Booleans (which SQLite would collapse to integers) are stored as their
canonical text ``"true"``/``"false"`` — so in-database canonicalization
agrees with the memory backend — and their column positions are recorded in
the hidden ``_tags`` column, from which reads reconstruct the original
``bool`` objects.  Other Python types raise
:class:`~repro.exceptions.StorageError` at ingest; use the memory backend
for exotic values.

Database files written by this backend contain expression indexes over the
registered ``repro_canon`` function, so they should be reopened through
``SqliteBackend`` (which re-registers the functions), not raw ``sqlite3``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from ..datastore.sqlgen import quote_identifier
from ..datastore.types import canonicalize
from ..exceptions import StorageError
from .base import StorageBackend

#: The name the library's canonicalizer (one argument) is registered under.
_CANON_FUNCTION = "repro_canon"

#: Relations whose materialized scans are memoized (LRU).  Scans re-run on
#: version change; the bound keeps a huge catalog from pinning every
#: relation's rows in Python memory at once.
_SCAN_CACHE_SIZE = 64

#: Data columns are stored under this prefix so attribute names can never
#: collide with the hidden ``_row_id`` / ``_tags`` bookkeeping columns.
_COL_PREFIX = "c_"

_META_TABLE = "_repro_catalog"
_RELATIONS_TABLE = "_repro_relations"


def canon_sql(column_sql: str) -> str:
    """The canonical form of a column expression, as SQL."""
    return f"{_CANON_FUNCTION}({column_sql})"


def exact_condition(value: str, column_sql: str, params: List[object]) -> str:
    """The selection ``column = value`` with the Python engine's exact semantics.

    Renders ``repro_canon(column) = ?`` with the needle's canonical form as
    the parameter — semantically identical to
    :meth:`~repro.engine.predicates.CompiledPredicate.matches` (a null
    canonical needle matches nothing: ``x = NULL`` is never true), and
    shaped so SQLite can serve it from the ``repro_canon(column)``
    expression indexes the backend builds.  The needle is appended to
    ``params``.
    """
    params.append(canonicalize(value))
    return f"{canon_sql(column_sql)} = ?"


class _Relation:
    """In-session bookkeeping for one stored relation."""

    __slots__ = ("schema", "version", "next_row_id")

    def __init__(self, schema, version: int, next_row_id: int) -> None:
        self.schema = schema
        self.version = version
        self.next_row_id = next_row_id


class SqliteBackend(StorageBackend):
    """Per-catalog SQLite storage with parameterized-SQL pushdown.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (the default) for an
        ephemeral in-process database.  The backend owns the connection
        (:meth:`close` closes it) and serializes all access behind one lock.
    """

    kind = "sqlite"
    supports_sql_pushdown = True
    supports_session_store = True

    def __init__(self, path: "str | os.PathLike[str]" = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.create_function(_CANON_FUNCTION, 1, canonicalize, deterministic=True)
        self._lock = threading.RLock()
        self._relations: Dict[str, _Relation] = {}
        self._scan_cache: "OrderedDict[str, Tuple[int, List]]" = OrderedDict()
        #: Attributes per relation key that already have a canon index.
        self._indexed_columns: Dict[str, Set[str]] = {}
        self._closed = False
        with self._transaction():
            self._execute(
                f"CREATE TABLE IF NOT EXISTS {_META_TABLE} ("
                "source_name TEXT PRIMARY KEY, position INTEGER, payload TEXT)"
            )
            self._execute(
                f"CREATE TABLE IF NOT EXISTS {_RELATIONS_TABLE} (key TEXT PRIMARY KEY)"
            )
        self._adopt_existing_relations()

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _execute(self, statement: str, params: Sequence[object] = ()):
        return self._conn.execute(statement, params)

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """One all-or-nothing write under the lock: commit, or roll back."""
        with self._lock:
            try:
                yield
                self._conn.commit()
            except BaseException:
                try:
                    self._conn.rollback()
                except Exception:  # pragma: no cover - connection already dead
                    pass
                raise

    def _adopt_existing_relations(self) -> None:
        """Record which relations a reopened database already stores.

        Schemas are bound later (when a :class:`Table` adopts the relation);
        until then the relation is visible to :meth:`has_relation` so a
        conflicting :meth:`create_relation` fails loudly.
        """
        rows = self._execute(f"SELECT key FROM {_RELATIONS_TABLE}").fetchall()
        for (key,) in rows:
            next_id = self._execute(
                f'SELECT COALESCE(MAX("_row_id"), -1) + 1 FROM {quote_identifier(key)}'
            ).fetchone()[0]
            self._relations[key] = _Relation(None, 0, next_id)

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True
                self._scan_cache.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the underlying connection."""
        return self._closed

    # ------------------------------------------------------------------
    # Relation lifecycle
    # ------------------------------------------------------------------
    def create_relation(self, key: str, schema, initial_version: int = 0) -> None:
        with self._lock:
            if key in self._relations:
                raise StorageError(f"relation {key!r} already exists on this backend")
            columns = ", ".join(
                self.column_sql_name(name) for name in schema.attribute_names
            )
            with self._transaction():
                self._execute(
                    f"CREATE TABLE {quote_identifier(key)} ("
                    f'"_row_id" INTEGER PRIMARY KEY, "_tags" TEXT NOT NULL, {columns})'
                )
                self._execute(
                    f"INSERT INTO {_RELATIONS_TABLE} (key) VALUES (?)", (key,)
                )
            self._relations[key] = _Relation(schema, initial_version, 0)

    def bind_schema(self, key: str, schema) -> None:
        with self._lock:
            self._require(key).schema = schema
            self._scan_cache.pop(key, None)

    def has_relation(self, key: str) -> bool:
        return key in self._relations

    def drop_relation(self, key: str) -> None:
        with self._lock:
            if key not in self._relations:
                return
            with self._transaction():
                self._execute(f"DROP TABLE IF EXISTS {quote_identifier(key)}")
                self._execute(
                    f"DELETE FROM {_RELATIONS_TABLE} WHERE key = ?", (key,)
                )
            del self._relations[key]
            self._scan_cache.pop(key, None)
            self._indexed_columns.pop(key, None)  # DROP TABLE took its indexes

    def relation_keys(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def _require(self, key: str) -> _Relation:
        try:
            return self._relations[key]
        except KeyError:
            raise StorageError(f"relation {key!r} does not exist on this backend") from None

    def _schema(self, key: str):
        relation = self._require(key)
        if relation.schema is None:
            raise StorageError(
                f"relation {key!r} has no bound schema; reopen it through "
                "Catalog.load_persisted() / a Table adoption before scanning"
            )
        return relation.schema

    def table_sql_name(self, key: str) -> str:
        """Quoted physical table name of ``key`` (for the SQL compilers)."""
        self._require(key)
        return quote_identifier(key)

    def column_sql_name(self, attribute: str) -> str:
        """Quoted physical column name of ``attribute``."""
        return quote_identifier(_COL_PREFIX + attribute)

    # ------------------------------------------------------------------
    # Value codec (the one place that knows the ``_tags`` format)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_values(values: Tuple[object, ...]) -> Tuple[List[object], str]:
        """Map one value tuple to storable cells plus its bool tags."""
        encoded: List[object] = []
        tags: List[str] = []
        for index, value in enumerate(values):
            if isinstance(value, bool):
                encoded.append("true" if value else "false")
                tags.append(str(index))
            elif value is None or isinstance(value, (str, int, float, bytes)):
                encoded.append(value)
            else:
                raise StorageError(
                    f"a SQL backend cannot store a {type(value).__name__} value; "
                    "supported cell types are str, int, float, bool, bytes and None"
                )
        return encoded, ",".join(tags)

    @staticmethod
    def _decode_values(cells: Sequence[object], tags: str) -> Tuple[object, ...]:
        """Inverse of :meth:`_encode_values` over one stored row's cells."""
        if not tags:
            return tuple(cells)
        values = list(cells)
        for position in tags.split(","):
            index = int(position)
            values[index] = values[index] == "true"
        return tuple(values)

    @staticmethod
    def _decode_cell(cell: object, tags: str, attribute_index: int) -> object:
        """:meth:`_decode_values` for one projected cell of a stored row.

        The SQL lowering selects single columns, not whole rows: a cell is
        a bool iff its full-row attribute index appears in the row's tags.
        """
        if tags and str(attribute_index) in tags.split(","):
            return cell == "true"
        return cell

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append_row(self, key: str, values: Tuple[object, ...]):
        from ..datastore.table import Row

        with self._lock:
            relation = self._require(key)
            schema = self._schema(key)
            row_id = relation.next_row_id
            encoded, tags = self._encode_values(values)
            with self._transaction():
                self._execute(self._insert_sql(key, schema), [row_id, tags, *encoded])
            relation.next_row_id = row_id + 1
            relation.version += 1
            self._scan_cache.pop(key, None)
            return Row(schema, values, row_id)

    def insert_rows(self, key: str, rows: Iterable[Tuple[object, ...]]) -> int:
        with self._lock:
            relation = self._require(key)
            schema = self._schema(key)
            arity = len(schema.attribute_names)
            inserted = 0

            def encoded_stream() -> Iterator[List[object]]:
                nonlocal inserted
                for values in rows:
                    if len(values) != arity:
                        raise StorageError(
                            f"row of arity {len(values)} does not match relation "
                            f"{key!r} of arity {arity}"
                        )
                    encoded, tags = self._encode_values(values)
                    yield [relation.next_row_id + inserted, tags, *encoded]
                    inserted += 1

            # A failed batch rolls back: nothing of it is visible and the
            # version/row-id counters below are never moved.
            with self._transaction():
                self._conn.executemany(self._insert_sql(key, schema), encoded_stream())
            if inserted:
                relation.next_row_id += inserted
                relation.version += 1
                self._scan_cache.pop(key, None)
            return inserted

    def _insert_sql(self, key: str, schema) -> str:
        placeholders = ", ".join("?" for _ in range(2 + len(schema.attribute_names)))
        return (
            f"INSERT INTO {quote_identifier(key)} ({self._select_columns(schema)}) "
            f"VALUES ({placeholders})"
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _select_columns(self, schema) -> str:
        return ", ".join(
            ['"_row_id"', '"_tags"']
            + [self.column_sql_name(name) for name in schema.attribute_names]
        )

    def _fetch_rows(self, key: str) -> List:
        """Rows of ``key`` in row-id order."""
        from ..datastore.table import Row

        schema = self._schema(key)
        fetched = self._execute(
            f"SELECT {self._select_columns(schema)} FROM {quote_identifier(key)}"
            ' ORDER BY "_row_id"'
        ).fetchall()
        decode = self._decode_values
        return [Row(schema, decode(record[2:], record[1]), record[0]) for record in fetched]

    def scan(self, key: str) -> Sequence:
        with self._lock:
            relation = self._require(key)
            cached = self._scan_cache.get(key)
            if cached is not None and cached[0] == relation.version:
                self._scan_cache.move_to_end(key)
                return cached[1]
            rows = self._fetch_rows(key)
            self._scan_cache[key] = (relation.version, rows)
            self._scan_cache.move_to_end(key)
            while len(self._scan_cache) > _SCAN_CACHE_SIZE:
                self._scan_cache.popitem(last=False)
            return rows

    def row_count(self, key: str) -> int:
        with self._lock:
            self._require(key)
            return self._execute(
                f"SELECT COUNT(*) FROM {quote_identifier(key)}"
            ).fetchone()[0]

    def version(self, key: str) -> int:
        return self._require(key).version

    def distinct_values(self, key: str, attribute: str) -> frozenset:
        with self._lock:
            self._schema(key).attribute_index(attribute)  # validates existence
            fetched = self._execute(
                f"SELECT DISTINCT {self.column_sql_name(attribute)} "
                f"FROM {quote_identifier(key)}"
            ).fetchall()
        values: Set[str] = set()
        for (value,) in fetched:
            canon = canonicalize(value)
            if canon is not None:
                values.add(canon)
        return frozenset(values)

    def ensure_canon_index(self, key: str, attribute: str) -> None:
        """Create the ``repro_canon(column)`` expression index if missing.

        Called lazily by the SQL compilers for every join key and
        equality-selection column, so indexes exist exactly where queries
        need them and bulk ingest never pays index maintenance up front.
        """
        with self._lock:
            self._require(key)
            indexed = self._indexed_columns.setdefault(key, set())
            if attribute in indexed:
                return
            # The key's length makes the name injective: "a.b" + "c_d" and
            # "a.b_c" + "d" must not share one index (quoting keeps any
            # character legal).
            index_name = quote_identifier(f"ix_{len(key)}_{key}_{attribute}")
            try:
                with self._transaction():
                    self._execute(
                        f"CREATE INDEX IF NOT EXISTS {index_name} ON "
                        f"{quote_identifier(key)} "
                        f"({canon_sql(self.column_sql_name(attribute))})"
                    )
            except sqlite3.OperationalError:  # pragma: no cover - old sqlite
                pass  # expression indexes unsupported: queries still run
            indexed.add(attribute)

    # ------------------------------------------------------------------
    # Catalog metadata persistence
    # ------------------------------------------------------------------
    def save_source_schema(self, name: str, payload: dict) -> None:
        with self._transaction():
            # Re-saving keeps the source's registration position.
            existing = self._execute(
                f"SELECT position FROM {_META_TABLE} WHERE source_name = ?", (name,)
            ).fetchone()
            if existing is not None:
                position = existing[0]
                self._execute(
                    f"DELETE FROM {_META_TABLE} WHERE source_name = ?", (name,)
                )
            else:
                position = self._execute(
                    f"SELECT COALESCE(MAX(position), -1) + 1 FROM {_META_TABLE}"
                ).fetchone()[0]
            self._execute(
                f"INSERT INTO {_META_TABLE} (source_name, position, payload) "
                "VALUES (?, ?, ?)",
                (name, position, json.dumps(payload)),
            )

    def delete_source_schema(self, name: str) -> None:
        self.execute_write(f"DELETE FROM {_META_TABLE} WHERE source_name = ?", (name,))

    def persisted_source_schemas(self) -> List[dict]:
        rows = self.execute_sql(f"SELECT payload FROM {_META_TABLE} ORDER BY position")
        return [json.loads(payload) for (payload,) in rows]

    # ------------------------------------------------------------------
    # Raw statement hooks
    # ------------------------------------------------------------------
    def execute_sql(self, sql: str, params: Sequence[object] = ()) -> List[Tuple]:
        """Run one parameterized read-only statement.

        The hook the SQL lowering (:mod:`repro.storage.pushdown`) and the
        in-database session store read through.
        """
        with self._lock:
            return self._execute(sql, params).fetchall()

    def execute_write(self, sql: str, params: Sequence[object] = ()) -> None:
        """Run one parameterized write statement in its own transaction.

        Used by the session store (:mod:`repro.persist.store`) to maintain
        its ``_repro_session_*`` tables inside the catalog database; those
        tables are invisible to the relation bookkeeping (they are never
        recorded in ``_repro_relations``).
        """
        self.execute_write_batch([(sql, params)])

    def execute_write_batch(
        self, statements: Sequence[Tuple[str, Sequence[object]]]
    ) -> None:
        """Run several write statements in **one** transaction.

        All-or-nothing: the session store pairs a snapshot replace with its
        journal truncation here, so a crash between the two can never leave
        a fresh snapshot with the previous checkpoint's journal.
        """
        with self._transaction():
            for sql, params in statements:
                self._execute(sql, params)

    def storage_size_bytes(self) -> int:
        with self._lock:
            page_count = self._execute("PRAGMA page_count").fetchone()[0]
            page_size = self._execute("PRAGMA page_size").fetchone()[0]
        return int(page_count) * int(page_size)
