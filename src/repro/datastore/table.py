"""Relation facade over pluggable tuple storage.

A :class:`Table` couples a :class:`~repro.datastore.schema.RelationSchema`
with row storage owned by a :class:`~repro.storage.base.StorageBackend`.
Tables are the instance-level substrate the profile index
(:mod:`repro.profiling`) scans into per-attribute value summaries, which
keyword-to-value matching (paper Section 2.2), the MAD column-value graph
(Section 3.2.2) and the Figure 7 value-overlap filter read.

Storage is delegated, never embedded: a table created on its own owns a
private :class:`~repro.storage.memory.MemoryBackend` (behaviorally identical
to the seed's in-object row list), while a table admitted to a backend-bound
:class:`~repro.datastore.database.Catalog` is *attached* — its rows migrate
into the catalog's backend (one bulk ingest) and every subsequent operation
routes there.  No layer above :mod:`repro.storage` touches physical row
storage directly.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import DataError
from .schema import RelationSchema


class Row:
    """A single tuple of a table, addressable by attribute name or index.

    ``Row`` is deliberately lightweight: it stores a reference to the table
    schema plus a value tuple, and provides mapping-style access.
    """

    __slots__ = ("schema", "values", "row_id")

    def __init__(self, schema: RelationSchema, values: Tuple[Any, ...], row_id: int) -> None:
        self.schema = schema
        self.values = values
        self.row_id = row_id

    def __getitem__(self, key) -> Any:
        if isinstance(key, int):
            return self.values[key]
        return self.values[self.schema.attribute_index(key)]

    def get(self, key: str, default: Any = None) -> Any:
        """Mapping-style ``get`` by attribute name."""
        if self.schema.has_attribute(key):
            return self[key]
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Return the row as an ``{attribute: value}`` dict."""
        return dict(zip(self.schema.attribute_names, self.values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.values == other.values and self.schema is other.schema
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Row({self.as_dict()!r})"


def _default_backend():
    from ..storage.memory import MemoryBackend

    return MemoryBackend()


class Table:
    """A relation schema plus its stored tuples.

    Parameters
    ----------
    schema:
        The relation schema describing column names and types.
    rows:
        Optional initial rows; each row may be a mapping from attribute name
        to value or a positional sequence.
    backend:
        Storage backend holding the rows.  Defaults to a private
        :class:`~repro.storage.memory.MemoryBackend`.
    adopt:
        When ``True``, the relation already exists on ``backend`` (a
        reopened persistent catalog) and is adopted instead of created —
        its stored rows become this table's contents.
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable] = None,
        backend=None,
        adopt: bool = False,
    ) -> None:
        self.schema = schema
        self._backend = backend if backend is not None else _default_backend()
        self._key = schema.qualified_name
        #: Weak references to the profile indexes holding this table's profile:
        #: a table outlives the sessions that profiled it, not their indexes.
        self._profile_indexes: Tuple[weakref.ref, ...] = ()
        if adopt:
            self._backend.bind_schema(self._key, schema)
        else:
            self._backend.create_relation(self._key, schema)
        if rows is not None:
            self.extend(rows)

    # ------------------------------------------------------------------
    # Storage binding
    # ------------------------------------------------------------------
    @property
    def storage_backend(self):
        """The :class:`~repro.storage.base.StorageBackend` holding the rows."""
        return self._backend

    @property
    def storage_key(self) -> str:
        """The relation's key on its backend (its qualified name at bind time)."""
        return self._key

    def attach(self, backend) -> None:
        """Migrate this table's rows onto ``backend`` (one bulk ingest).

        Used when a source is admitted to a backend-bound catalog: the rows
        move, the table is re-keyed under its *current* qualified name, and
        the version counter carries forward (strictly increased) so engine
        caches keyed on ``(table, version)`` can never alias across the
        move.  No-op when already attached to ``backend``.
        """
        if backend is self._backend:
            return
        old_backend, old_key = self._backend, self._key
        key = self.schema.qualified_name
        backend.create_relation(
            key, self.schema, initial_version=old_backend.version(old_key) + 1
        )
        try:
            backend.insert_rows(key, (row.values for row in old_backend.scan(old_key)))
        except Exception:
            backend.drop_relation(key)
            raise
        self._backend, self._key = backend, key
        old_backend.drop_relation(old_key)

    def detach(self) -> None:
        """Move the rows back onto a fresh private memory backend.

        The inverse of :meth:`attach`, used when a source is removed from a
        backend-bound catalog (e.g. the registration rollback path): the
        catalog's backend must not keep the failed source's data, but the
        caller still holds a fully functional table.
        """
        self.attach(_default_backend())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_profile_index(self, index) -> None:
        """Mark this table stale in ``index`` (held weakly) on every later write."""
        ref = weakref.ref(index)
        if ref not in self._profile_indexes:
            self._profile_indexes += (ref,)

    def append(self, row) -> Row:
        """Append a single row (mapping or sequence) and return the stored Row."""
        stored = self._backend.append_row(self._key, self._coerce(row))
        self._written()
        return stored

    def extend(self, rows: Iterable) -> None:
        """Bulk-append rows: one atomic backend ingest, one version bump.

        ``rows`` may be a generator; it is coerced and consumed lazily, so
        streaming loaders (CSV batches) never materialize whole files.
        """
        self._backend.insert_rows(self._key, (self._coerce(row) for row in rows))
        self._written()

    def _written(self) -> None:
        for ref in self._profile_indexes:
            index = ref()
            if index is not None:
                index.mark_stale(self)

    def _coerce(self, row) -> Tuple[Any, ...]:
        names = self.schema.attribute_names
        # An exact list or tuple skips the ABC checks, which cost ~2 µs a row.
        if type(row) is not tuple and type(row) is not list:
            if isinstance(row, Row):
                row = row.as_dict()
            if isinstance(row, Mapping):
                unknown = set(row) - set(names)
                if unknown:
                    raise DataError(
                        f"row has attributes {sorted(unknown)!r} not in relation "
                        f"{self.schema.qualified_name!r}"
                    )
                return tuple(row.get(name) for name in names)
            if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
                raise DataError(f"cannot interpret row value of type {type(row).__name__}")
        if len(row) != len(names):
            raise DataError(
                f"row of arity {len(row)} does not match relation "
                f"{self.schema.qualified_name!r} of arity {len(names)}"
            )
        return tuple(row)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically increasing data version (bumped on every mutation).

        External caches (e.g. the engine's join indexes) key on it so that
        stale entries are detected without explicit invalidation.
        """
        return self._backend.version(self._key)

    def scan(self) -> Sequence[Row]:
        """All stored rows in insertion (row-id) order, via the backend.

        The canonical read path for bulk consumers (profiling, indexing,
        the engine's scan cache).  The returned sequence is owned by the
        backend — callers must not mutate it.
        """
        return self._backend.scan(self._key)

    @property
    def rows(self) -> Tuple[Row, ...]:
        """All stored rows as an immutable tuple."""
        return tuple(self._backend.scan(self._key))

    def __len__(self) -> int:
        return self._backend.row_count(self._key)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._backend.scan(self._key))

    def __getitem__(self, index: int) -> Row:
        return self._backend.scan(self._key)[index]

    def column(self, attribute: str) -> List[Any]:
        """Return all values of ``attribute`` in row order."""
        idx = self.schema.attribute_index(attribute)
        return [row.values[idx] for row in self._backend.scan(self._key)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.qualified_name!r}, rows={len(self)})"
