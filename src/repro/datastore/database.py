"""Data sources (schema + tables) and the global catalog.

A :class:`DataSource` bundles a :class:`~repro.datastore.schema.SourceSchema`
with a :class:`~repro.datastore.table.Table` per relation.  A
:class:`Catalog` is the set of all sources currently registered with the Q
system; the search graph is constructed from a catalog, and the registration
service adds new sources to it at runtime.

Storage routing
---------------
A catalog may own a :class:`~repro.storage.base.StorageBackend` (an explicit
``backend=`` argument, or the ``REPRO_BACKEND`` environment default).  When
it does, :meth:`Catalog.add_source` *attaches* every table of the admitted
source: rows migrate into the catalog's backend in one bulk ingest and the
source's schema is persisted as catalog metadata, so persistent backends
(SQLite files) can reconstruct the whole catalog on reopen via
:meth:`Catalog.load_persisted`.  :meth:`Catalog.remove_source` detaches the
tables back onto private memory storage — a removed (or rolled-back) source
leaves no data behind in the shared backend but remains fully usable.
Without a catalog backend, sources keep their private per-table memory
storage — the seed behavior, unchanged.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import SchemaError, UnknownRelationError
from .schema import Attribute, ForeignKey, RelationSchema, SourceSchema
from .table import Table
from .types import ValueType


def source_schema_payload(schema: SourceSchema) -> Dict[str, object]:
    """JSON-compatible description of a source schema (no row data)."""
    return {
        "name": schema.name,
        "description": schema.description,
        "relations": [
            {
                "name": relation.name,
                "description": relation.description,
                "primary_key": list(relation.primary_key),
                "attributes": [
                    {
                        "name": attr.name,
                        "value_type": attr.value_type.value,
                        "description": attr.description,
                    }
                    for attr in relation
                ],
            }
            for relation in schema
        ],
        "foreign_keys": [list(fk.as_tuple()) for fk in schema.foreign_keys],
    }


def source_schema_from_payload(payload: Mapping[str, object]) -> SourceSchema:
    """Inverse of :func:`source_schema_payload`."""
    schema = SourceSchema(payload["name"], description=payload.get("description", ""))
    for spec in payload.get("relations", ()):
        schema.add_relation(
            RelationSchema(
                spec["name"],
                [
                    Attribute(
                        attr["name"],
                        ValueType(attr.get("value_type", "string")),
                        attr.get("description", ""),
                    )
                    for attr in spec["attributes"]
                ],
                primary_key=spec.get("primary_key") or None,
                description=spec.get("description", ""),
            )
        )
    for fk in payload.get("foreign_keys", ()):
        schema.add_foreign_key(ForeignKey(*fk))
    return schema


class DataSource:
    """One registered database: a schema plus per-relation tuple storage.

    Parameters
    ----------
    schema:
        The source schema (relations are bound to the source name).
    backend:
        Optional storage backend the relations are created on; defaults to
        private per-table memory storage.
    """

    def __init__(self, schema: SourceSchema, backend=None) -> None:
        self.schema = schema
        self._backend = backend
        #: True while a backend-bound catalog holds this source: a relation
        #: added then re-saves the schema through ``_backend``, so persisted
        #: catalog metadata stays in sync with the live schema.  The source
        #: holds no reference to the catalog, so the two form no cycle.
        self._persists_schema = False
        self._tables: Dict[str, Table] = {
            name: Table(relation, backend=backend)
            for name, relation in schema.relations.items()
        }

    @classmethod
    def adopt(cls, schema: SourceSchema, backend) -> "DataSource":
        """Bind a source to relations *already stored* on ``backend``.

        Used when reopening a persistent catalog: the rows are in the
        backend; only the schema objects are reconstructed and re-bound.
        """
        source = cls.__new__(cls)
        source.schema = schema
        source._backend = backend
        source._persists_schema = False
        source._tables = {
            name: Table(relation, backend=backend, adopt=True)
            for name, relation in schema.relations.items()
        }
        return source

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        relations: Mapping[str, Sequence[str]],
        data: Optional[Mapping[str, Iterable]] = None,
        foreign_keys: Optional[Iterable[Tuple[str, str, str, str]]] = None,
        description: str = "",
        backend=None,
    ) -> "DataSource":
        """Build a source from plain Python structures.

        Parameters
        ----------
        name:
            Source name.
        relations:
            Mapping from relation name to its sequence of attribute names.
        data:
            Optional mapping from relation name to an iterable of rows
            (mappings or positional sequences).
        foreign_keys:
            Optional iterable of ``(src_rel, src_attr, dst_rel, dst_attr)``.
        backend:
            Optional storage backend for the relations.
        """
        schema = SourceSchema(name, description=description)
        for rel_name, attributes in relations.items():
            schema.add_relation(RelationSchema(rel_name, list(attributes)))
        for fk in foreign_keys or ():
            schema.add_foreign_key(ForeignKey(*fk))
        source = cls(schema, backend=backend)
        for rel_name, rows in (data or {}).items():
            source.table(rel_name).extend(rows)
        return source

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The source name."""
        return self.schema.name

    def table(self, relation: str) -> Table:
        """Return the table for the relation named ``relation`` (local name)."""
        try:
            return self._tables[relation]
        except KeyError:
            raise UnknownRelationError(f"{self.name}.{relation}") from None

    def tables(self) -> Tuple[Table, ...]:
        """All tables of the source."""
        return tuple(self._tables.values())

    def add_relation(self, relation: RelationSchema, rows: Optional[Iterable] = None) -> Table:
        """Add a new relation (and optionally rows) to this source.

        On a source already admitted to a backend-bound catalog, the new
        relation is created on that backend and the catalog's persisted
        schema metadata is refreshed, so the relation survives a reopen.
        """
        self.schema.add_relation(relation)
        table = Table(relation, backend=self._backend)
        if rows is not None:
            table.extend(rows)
        self._tables[relation.name] = table
        if self._persists_schema:
            self._backend.save_source_schema(self.name, source_schema_payload(self.schema))
        return table

    @property
    def relation_count(self) -> int:
        """Number of relations in the source."""
        return len(self._tables)

    @property
    def attribute_count(self) -> int:
        """Total number of attributes in the source."""
        return self.schema.attribute_count

    @property
    def row_count(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(t) for t in self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataSource({self.name!r}, relations={list(self._tables)!r})"


class Catalog:
    """The set of data sources known to the system.

    The catalog is the authoritative registry from which the search graph is
    (re)constructed, and the target of the new-source registration service.

    Parameters
    ----------
    sources:
        Initial data sources.
    backend:
        Optional catalog-level storage backend — a
        :class:`~repro.storage.base.StorageBackend`, a name
        (``"memory"`` / ``"sqlite"`` / ``"sqlite:<path>"``), or ``None``
        to consult the ``REPRO_BACKEND`` environment variable (unset means
        private per-table memory storage, the seed behavior).  A persistent
        backend that already holds catalog metadata is loaded eagerly.
    """

    def __init__(self, sources: Optional[Iterable[DataSource]] = None, backend=None) -> None:
        from ..storage import backend_from_env, resolve_backend

        self._backend = resolve_backend(backend) if backend is not None else backend_from_env()
        self._sources: Dict[str, DataSource] = {}
        #: source name -> admission number; ascending in ``_sources`` order.
        self._admitted: Dict[str, int] = {}
        self._admissions = itertools.count()
        if self._backend is not None:
            self.load_persisted()
        for source in sources or ():
            self.add_source(source)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def backend(self):
        """The catalog-level storage backend, or ``None`` (per-table memory)."""
        return self._backend

    @property
    def backend_kind(self) -> str:
        """Short name of the storage implementation serving this catalog."""
        return self._backend.kind if self._backend is not None else "memory"

    def load_persisted(self) -> Tuple[str, ...]:
        """Reconstruct sources persisted in the backend's catalog metadata.

        Returns the names of the sources loaded.  Rows are *not* re-ingested
        — the freshly bound tables adopt the backend's stored relations.
        """
        if self._backend is None:
            return ()
        loaded: List[str] = []
        for payload in self._backend.persisted_source_schemas():
            schema = source_schema_from_payload(payload)
            if schema.name in self._sources:
                continue
            source = DataSource.adopt(schema, self._backend)
            source._persists_schema = True
            self._admit(source)
            loaded.append(schema.name)
        return tuple(loaded)

    def storage_size_bytes(self) -> int:
        """Approximate stored bytes across the catalog's relations."""
        if self._backend is not None:
            return self._backend.storage_size_bytes()
        return sum(
            table.storage_backend.storage_size_bytes() for table in self.all_tables()
        )

    def close(self) -> None:
        """Release the catalog backend's resources (no-op without one)."""
        if self._backend is not None:
            self._backend.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_source(self, source: DataSource) -> DataSource:
        """Register ``source``; raises if a source with that name exists.

        With a catalog backend, every table of the source is attached —
        rows are bulk-ingested into the backend — and the source schema is
        persisted; failure rolls back the tables already attached.
        """
        if source.name in self._sources:
            raise SchemaError(f"source {source.name!r} already registered")
        if self._backend is not None:
            attached: List[Table] = []
            try:
                for table in source:
                    table.attach(self._backend)
                    attached.append(table)
                self._backend.save_source_schema(
                    source.name, source_schema_payload(source.schema)
                )
            except Exception:
                # Roll back completely: a failed admission (attach *or*
                # metadata persistence) must leave no rows behind in the
                # shared backend.
                for table in attached:
                    table.detach()
                raise
            source._backend = self._backend
            source._persists_schema = True
        self._admit(source)
        return source

    def _admit(self, source: DataSource) -> None:
        self._sources[source.name] = source
        self._admitted[source.name] = next(self._admissions)

    def remove_source(self, name: str) -> DataSource:
        """Remove and return the source called ``name``.

        With a catalog backend the source's relations are detached — moved
        back onto private memory storage and dropped from the backend — so
        a removal (e.g. the registration rollback path) never strands data.
        """
        try:
            source = self._sources.pop(name)
        except KeyError:
            raise SchemaError(f"source {name!r} is not registered") from None
        del self._admitted[name]
        if self._backend is not None:
            for table in source:
                if table.storage_backend is self._backend:
                    table.detach()
            self._backend.delete_source_schema(name)
            source._backend = None
            source._persists_schema = False
        return source

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def source(self, name: str) -> DataSource:
        """Return the source called ``name``."""
        try:
            return self._sources[name]
        except KeyError:
            raise SchemaError(f"source {name!r} is not registered") from None

    def has_source(self, name: str) -> bool:
        """Return ``True`` if a source called ``name`` is registered."""
        return name in self._sources

    def sources(self) -> Tuple[DataSource, ...]:
        """All registered sources, in registration order."""
        return tuple(self._sources.values())

    def source_names(self) -> Tuple[str, ...]:
        """Names of all registered sources."""
        return tuple(self._sources.keys())

    def relation(self, qualified: str) -> Table:
        """Resolve a qualified relation name ``"<source>.<relation>"`` to its table."""
        parts = qualified.split(".")
        if len(parts) != 2:
            raise UnknownRelationError(qualified)
        source_name, relation_name = parts
        if source_name not in self._sources:
            raise UnknownRelationError(qualified)
        return self._sources[source_name].table(relation_name)

    def in_catalog_order(self, relations: Iterable[str]) -> List[str]:
        """The registered ones among ``relations`` (qualified names) in catalog
        iteration order, without walking the catalog: only their own sources."""
        wanted = set(relations)
        owners = {name.split(".")[0] for name in wanted} & self._admitted.keys()
        return [
            name
            for owner in sorted(owners, key=self._admitted.__getitem__)
            for name in (table.schema.qualified_name for table in self._sources[owner])
            if name in wanted
        ]

    def all_tables(self) -> List[Table]:
        """Every table in every registered source."""
        tables: List[Table] = []
        for source in self._sources.values():
            tables.extend(source.tables())
        return tables

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def source_count(self) -> int:
        """Number of registered sources."""
        return len(self._sources)

    @property
    def relation_count(self) -> int:
        """Number of relations across all sources."""
        return sum(s.relation_count for s in self._sources.values())

    @property
    def attribute_count(self) -> int:
        """Number of attributes across all sources."""
        return sum(s.attribute_count for s in self._sources.values())

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self) -> Iterator[DataSource]:
        return iter(self._sources.values())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._sources

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Catalog(sources={list(self._sources)!r})"
