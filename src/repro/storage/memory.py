"""In-memory storage backend: the seed ``Table`` internals behind the protocol.

Rows are stored as :class:`~repro.datastore.table.Row` objects in a Python
list per relation, exactly as the original ``Table`` kept them; the class
exists so the layers above can treat memory and SQLite storage uniformly.
Distinct-value sets are cached per attribute and invalidated on mutation,
preserving the seed's caching behavior.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..exceptions import StorageError
from .base import StorageBackend


class _MemoryRelation:
    """Storage of one relation: schema binding, row list, caches."""

    __slots__ = ("schema", "rows", "version")

    def __init__(self, schema, initial_version: int = 0) -> None:
        self.schema = schema
        self.rows: List = []
        self.version = initial_version


class MemoryBackend(StorageBackend):
    """Python-list row storage (the default backend).

    Fast, dependency-free and unbounded only by RAM — the right choice for
    tests, small catalogs and latency-critical sessions.  Every
    :class:`~repro.datastore.table.Table` created without an explicit
    backend owns a private ``MemoryBackend``, which is what makes the
    refactor behavior-identical to the seed's embedded row lists.
    """

    kind = "memory"
    supports_sql_pushdown = False

    def __init__(self) -> None:
        self._relations: Dict[str, _MemoryRelation] = {}

    # ------------------------------------------------------------------
    # Relation lifecycle
    # ------------------------------------------------------------------
    def create_relation(self, key: str, schema, initial_version: int = 0) -> None:
        if key in self._relations:
            raise StorageError(f"relation {key!r} already exists on this backend")
        self._relations[key] = _MemoryRelation(schema, initial_version)

    def bind_schema(self, key: str, schema) -> None:
        self._relation(key).schema = schema

    def has_relation(self, key: str) -> bool:
        return key in self._relations

    def drop_relation(self, key: str) -> None:
        self._relations.pop(key, None)

    def relation_keys(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def _relation(self, key: str) -> _MemoryRelation:
        try:
            return self._relations[key]
        except KeyError:
            raise StorageError(f"relation {key!r} does not exist on this backend") from None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append_row(self, key: str, values: Tuple[object, ...]):
        from ..datastore.table import Row

        relation = self._relation(key)
        stored = Row(relation.schema, values, len(relation.rows))
        relation.rows.append(stored)
        relation.version += 1
        return stored

    def insert_rows(self, key: str, rows: Iterable[Tuple[object, ...]]) -> int:
        from ..datastore.table import Row

        relation = self._relation(key)
        # Atomicity: materialize the batch fully (a generator may raise
        # mid-way while coercing) before any row becomes visible.
        start = len(relation.rows)
        staged = [
            Row(relation.schema, values, start + offset)
            for offset, values in enumerate(rows)
        ]
        if not staged:
            return 0
        relation.rows.extend(staged)
        relation.version += 1
        return len(staged)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def scan(self, key: str) -> Sequence:
        return self._relation(key).rows

    def row_count(self, key: str) -> int:
        return len(self._relation(key).rows)

    def version(self, key: str) -> int:
        return self._relation(key).version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_size_bytes(self) -> int:
        """Shallow ``sys.getsizeof`` estimate over all stored value tuples.

        O(total rows); intended for the occasional
        :meth:`~repro.api.service.QService.stats` read, not hot paths.
        """
        import sys

        total = 0
        for relation in self._relations.values():
            for row in relation.rows:
                total += sys.getsizeof(row.values)
                for value in row.values:
                    total += sys.getsizeof(value)
        return total
