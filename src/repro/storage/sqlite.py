"""SQLite storage backend: the DB-API row model plus SQL pushdown.

One :class:`SqliteBackend` wraps one SQLite database — a file path for
durable catalogs or ``":memory:"`` for ephemeral ones.  The row model,
ingest, scans and catalog persistence are
:class:`~repro.storage.dbapi.DbApiBackend`'s; this subclass adds only what
is SQLite's — the surface the engine lowers reads onto:

* **Exact predicate semantics.**  The library's own
  :func:`~repro.datastore.types.canonicalize` and selection-matching logic
  are registered as deterministic SQL functions (``repro_canon``,
  ``repro_match``), so pushed-down scans, selections and joins accept
  *precisely* the rows the Python engine accepts — parity is by construction,
  not by approximating canonicalization in SQL.
* **Real indexes** on join/selection columns: expression indexes over
  ``repro_canon(column)``, created on demand the first time a column is used
  as a join key or equality selection (``ensure_canon_index``).
* **In-database sessions.**  The session snapshot/journal tables live next
  to the relation data (``supports_session_store``), and storage size is
  read off the page count.

Database files written by this backend contain expression indexes over the
registered ``repro_canon`` function, so they should be reopened through
``SqliteBackend`` (which re-registers the functions), not raw ``sqlite3``.
"""

from __future__ import annotations

import os
import sqlite3
from functools import lru_cache
from typing import Dict, List, Sequence, Set

from ..datastore.sqlgen import SQLITE_DIALECT, exact_condition, quote_identifier
from ..datastore.types import canonicalize
from .base import PredicateSpec
from .dbapi import DbApiBackend


@lru_cache(maxsize=4096)
def _prepared_needle(mode: str, needle: str):
    """Needle-side derivations of one predicate, computed once per needle.

    The SQL function below runs once *per row*; without this memo it would
    re-canonicalize / re-lower / re-tokenize the (constant) needle every
    time — the per-row rework :class:`~repro.engine.predicates
    .CompiledPredicate` exists to avoid.
    """
    from ..similarity.tokenize import tokenize

    if mode == "equals":
        return canonicalize(needle)
    if mode == "contains":
        return str(needle).lower()
    return frozenset(tokenize(needle))


def _sql_match(mode: str, needle: str, value: object) -> int:
    """SQL-registered selection matcher; mirrors ``CompiledPredicate.matches``.

    Must stay semantically identical to
    :meth:`repro.engine.predicates.CompiledPredicate.matches` — the
    cross-backend parity suite depends on it.
    """
    from ..similarity.tokenize import tokenize

    canon = canonicalize(value)
    if canon is None:
        return 0
    prepared = _prepared_needle(mode, needle)
    if mode == "equals":
        return 1 if canon == prepared else 0
    if mode == "contains":
        return 1 if prepared in canon.lower() else 0
    if not prepared:
        return 0
    value_tokens = set(tokenize(canon))
    return 1 if prepared <= value_tokens else 0


class SqliteBackend(DbApiBackend):
    """Per-catalog SQLite storage with parameterized-SQL pushdown.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (the default) for an
        ephemeral in-process database.
    """

    kind = "sqlite"
    supports_sql_pushdown = True
    supports_session_store = True
    #: How this backend spells the exact-dialect SQL (canon/match function
    #: names) — consumed by the SQL compilers.
    sql_dialect = SQLITE_DIALECT

    def __init__(self, path: "str | os.PathLike[str]" = ":memory:") -> None:
        self.path = str(path)
        connection = sqlite3.connect(self.path, check_same_thread=False)
        connection.execute("PRAGMA synchronous=NORMAL")
        try:
            connection.create_function(
                "repro_canon", 1, canonicalize, deterministic=True
            )
            connection.create_function("repro_match", 3, _sql_match, deterministic=True)
        except TypeError:  # pragma: no cover - very old sqlite without the kwarg
            connection.create_function("repro_canon", 1, canonicalize)
            connection.create_function("repro_match", 3, _sql_match)
        #: Attributes per relation key that already have a canon index.
        self._indexed_columns: Dict[str, Set[str]] = {}
        super().__init__(connection)

    def drop_relation(self, key: str) -> None:
        with self._lock:
            super().drop_relation(key)
            self._indexed_columns.pop(key, None)  # DROP TABLE took its indexes

    # ------------------------------------------------------------------
    # Pushdown surface
    # ------------------------------------------------------------------
    def scan_where(self, key: str, predicates: Sequence[PredicateSpec]) -> List:
        """Filtered scan pushed down as one parameterized SELECT."""
        with self._lock:
            conditions: List[str] = []
            params: List[object] = []
            for attribute, mode, needle in predicates:
                column = self.column_sql_name(attribute)
                conditions.append(exact_condition(mode, needle, column, params))
                if mode == "equals":
                    self.ensure_canon_index(key, attribute)
            where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
            return self._fetch_rows(key, where, params)

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
                        f"(repro_canon({self.column_sql_name(attribute)}))"
                    )
            except sqlite3.OperationalError:  # pragma: no cover - old sqlite
                pass  # expression indexes unsupported: queries still run
            indexed.add(attribute)

    def storage_size_bytes(self) -> int:
        with self._lock:
            page_count = self._execute("PRAGMA page_count").fetchone()[0]
            page_size = self._execute("PRAGMA page_size").fetchone()[0]
        return int(page_count) * int(page_size)
