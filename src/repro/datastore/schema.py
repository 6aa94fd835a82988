"""Schema objects: attributes, relations, foreign keys and sources.

The search graph of the Q system (paper Section 2.1) is built from schema
metadata: relation names, attribute names, and key/foreign-key relationships.
This module defines the metadata layer; tuple storage lives in
:mod:`repro.datastore.table`.

Naming conventions
------------------
Relations are identified by a *qualified name* ``"<source>.<relation>"``
(e.g. ``"interpro.entry"``), and attributes by a *fully qualified name*
``"<source>.<relation>.<attribute>"``.  The helpers :func:`qualified_name`
and :func:`split_qualified` centralize this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import SchemaError, UnknownAttributeError
from .types import ValueType


def qualified_name(*parts: str) -> str:
    """Join name parts with ``"."`` into a qualified name."""
    return ".".join(parts)


def split_qualified(name: str) -> Tuple[str, ...]:
    """Split a qualified name into its dot-separated parts."""
    return tuple(name.split("."))


@dataclass(frozen=True)
class AttributeRef:
    """A fully qualified reference to one attribute of one relation.

    ``qualified`` (``"<source>.<relation>.<attribute>"``) is formatted once,
    here; it takes no part in equality, hashing or repr.  A relation's refs
    are its schema's (:attr:`RelationSchema.attribute_refs`), so the
    correspondences a matcher scores share them.
    """

    relation: str  # qualified relation name, "<source>.<relation>"
    attribute: str
    qualified: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qualified", f"{self.relation}.{self.attribute}")

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.qualified


@dataclass(frozen=True)
class Attribute:
    """A single attribute (column) of a relation.

    Attributes
    ----------
    name:
        Attribute name local to its relation (e.g. ``"go_id"``).
    value_type:
        The inferred or declared :class:`~repro.datastore.types.ValueType`.
    description:
        Optional human-readable documentation (used as auxiliary metadata by
        the metadata matcher).
    """

    name: str
    value_type: ValueType = ValueType.STRING
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A key/foreign-key relationship between two relations.

    The relationship is directed from ``(source_relation, source_attribute)``
    to ``(target_relation, target_attribute)`` but is treated as an
    *undirected* join edge in the search graph, matching the paper's
    bidirectional foreign-key edges with default cost ``cd``.
    """

    source_relation: str
    source_attribute: str
    target_relation: str
    target_attribute: str

    def as_tuple(self) -> Tuple[str, str, str, str]:
        """Return the four components as a plain tuple."""
        return (
            self.source_relation,
            self.source_attribute,
            self.target_relation,
            self.target_attribute,
        )


class RelationSchema:
    """Schema of a single relation: ordered attributes plus key metadata.

    Parameters
    ----------
    name:
        Relation name local to its source (e.g. ``"entry"``).
    attributes:
        Ordered sequence of :class:`Attribute` (or plain attribute names,
        which are promoted to string-typed attributes).
    source:
        Name of the data source that owns the relation; may be set later via
        :meth:`bind_source`.
    primary_key:
        Optional sequence of attribute names forming the primary key.
    description:
        Optional documentation string.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence,
        source: Optional[str] = None,
        primary_key: Optional[Sequence[str]] = None,
        description: str = "",
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        self.source = source
        self._qualified_cache: Optional[str] = None
        self.description = description
        self._attributes: List[Attribute] = []
        self._by_name: Dict[str, Attribute] = {}
        for attr in attributes:
            if isinstance(attr, str):
                attr = Attribute(attr)
            self._add_attribute(attr)
        if not self._attributes:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        self.primary_key: Tuple[str, ...] = tuple(primary_key or ())
        for key_attr in self.primary_key:
            if key_attr not in self._by_name:
                raise SchemaError(
                    f"primary key attribute {key_attr!r} not in relation {name!r}"
                )

    def _add_attribute(self, attr: Attribute) -> None:
        if attr.name in self._by_name:
            raise SchemaError(
                f"duplicate attribute {attr.name!r} in relation {self.name!r}"
            )
        self._attributes.append(attr)
        self._by_name[attr.name] = attr
        self._names_cache: Optional[Tuple[str, ...]] = None
        self._index_cache: Optional[Dict[str, int]] = None
        self._refs_cache: Optional[Tuple[AttributeRef, ...]] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The relation's attributes, in declaration order."""
        return tuple(self._attributes)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """The relation's attribute names, in declaration order (cached)."""
        cached = self._names_cache
        if cached is None:
            cached = self._names_cache = tuple(a.name for a in self._attributes)
        return cached

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``.

        Raises
        ------
        UnknownAttributeError
            If no such attribute exists.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def has_attribute(self, name: str) -> bool:
        """Return ``True`` if the relation has an attribute called ``name``."""
        return name in self._by_name

    def attribute_index(self, name: str) -> int:
        """Return the positional index of attribute ``name`` (cached).

        Hot path: every by-name cell access in a join probe goes through
        here, so the name → position map is built once per schema.
        """
        cache = self._index_cache
        if cache is None:
            cache = self._index_cache = {
                attr.name: i for i, attr in enumerate(self._attributes)
            }
        try:
            return cache[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    # ------------------------------------------------------------------
    # Qualified naming
    # ------------------------------------------------------------------
    def bind_source(self, source: str) -> None:
        """Associate this relation with a data source name."""
        if source != self.source:
            self._refs_cache = self._qualified_cache = None
        self.source = source

    @property
    def qualified_name(self) -> str:
        """``"<source>.<relation>"`` or just the relation name if unbound (cached per binding)."""
        cached = self._qualified_cache
        if cached is None:
            cached = self._qualified_cache = qualified_name(self.source, self.name) if self.source else self.name
        return cached

    @property
    def attribute_refs(self) -> Tuple[AttributeRef, ...]:
        """One :class:`AttributeRef` per attribute, in order (cached per binding)."""
        if self._refs_cache is None:
            self._refs_cache = tuple(AttributeRef(self.qualified_name, a.name) for a in self._attributes)
        return self._refs_cache

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._by_name

    def __len__(self) -> int:
        return len(self._attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationSchema({self.qualified_name!r}, {list(self.attribute_names)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.qualified_name == other.qualified_name
            and self.attributes == other.attributes
            and self.primary_key == other.primary_key
        )

    def __hash__(self) -> int:
        return hash((self.qualified_name, self.attributes, self.primary_key))


@dataclass
class SourceSchema:
    """Schema of a whole data source: a set of relations plus foreign keys.

    A *source* corresponds to one registered database in the Q system.  The
    GBCO experiments in the paper model each relation as a separate source;
    this class supports both one-relation and many-relation sources.
    """

    name: str
    relations: Dict[str, RelationSchema] = field(default_factory=dict)
    foreign_keys: List[ForeignKey] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("source name must be non-empty")
        for relation in self.relations.values():
            relation.bind_source(self.name)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_relation(self, relation: RelationSchema) -> RelationSchema:
        """Add ``relation`` to this source and bind its source name."""
        if relation.name in self.relations:
            raise SchemaError(
                f"relation {relation.name!r} already exists in source {self.name!r}"
            )
        relation.bind_source(self.name)
        self.relations[relation.name] = relation
        return relation

    def add_foreign_key(self, fk: ForeignKey) -> ForeignKey:
        """Add a foreign key after validating that both ends exist."""
        for rel_name, attr_name in (
            (fk.source_relation, fk.source_attribute),
            (fk.target_relation, fk.target_attribute),
        ):
            relation = self.relations.get(rel_name)
            if relation is None:
                raise SchemaError(
                    f"foreign key references unknown relation {rel_name!r} "
                    f"in source {self.name!r}"
                )
            if not relation.has_attribute(attr_name):
                raise SchemaError(
                    f"foreign key references unknown attribute "
                    f"{rel_name}.{attr_name} in source {self.name!r}"
                )
        self.foreign_keys.append(fk)
        return fk

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def relation(self, name: str) -> RelationSchema:
        """Return the relation called ``name`` (local name)."""
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r} in source {self.name!r}"
            ) from None

    def relation_names(self) -> Tuple[str, ...]:
        """Local names of all relations, in insertion order."""
        return tuple(self.relations.keys())

    @property
    def attribute_count(self) -> int:
        """Total number of attributes across all relations."""
        return sum(len(r) for r in self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self.relations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SourceSchema({self.name!r}, relations={list(self.relations)!r}, "
            f"foreign_keys={len(self.foreign_keys)})"
        )
