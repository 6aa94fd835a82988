"""Conjunctive query model.

Each Steiner tree found in the query graph is translated into a conjunctive
query (paper Section 2.2): relation nodes in (or attached to) the tree become
query *atoms*, non-zero-cost edges between attributes become *join
predicates*, and keyword-match edges become *selection predicates*.  A
query's execution returns rows whose cells follow
:meth:`ConjunctiveQuery.answer_cells`; every read combines the queries of
one keyword query by a ranked *disjoint union* of those rows
(:func:`repro.engine.executor.ranked_union`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Catalog


@dataclass(frozen=True)
class QueryAtom:
    """One relation occurrence in a conjunctive query.

    Attributes
    ----------
    relation:
        Qualified relation name (``"<source>.<relation>"``).
    alias:
        Alias used to refer to this occurrence in predicates; allows self
        joins.  Defaults to the relation name.
    """

    relation: str
    alias: str

    @classmethod
    def of(cls, relation: str, alias: Optional[str] = None) -> "QueryAtom":
        """Create an atom, defaulting the alias to the relation name."""
        return cls(relation, alias or relation)


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join condition ``left_alias.left_attribute = right_alias.right_attribute``.

    Joins compare *canonicalized* values (see
    :func:`repro.datastore.types.canonicalize`) so that sources with
    different value representations can still join.
    """

    left_alias: str
    left_attribute: str
    right_alias: str
    right_attribute: str

    def reversed(self) -> "JoinPredicate":
        """Return the same join with the two sides swapped."""
        return JoinPredicate(
            self.right_alias, self.right_attribute, self.left_alias, self.left_attribute
        )


@dataclass(frozen=True)
class SelectionPredicate:
    """A keyword's match on one data value: ``alias.attribute`` equals ``value``.

    The one selection the query generator emits.  Equality is on canonical
    forms (:func:`~repro.datastore.types.canonicalize`): surrounding
    whitespace is ignored, case is not, and a null cell or needle matches
    nothing.
    """

    alias: str
    attribute: str
    value: str


@dataclass(frozen=True)
class OutputColumn:
    """One column of a query's select-list.

    ``label`` is the output column name; the disjoint-union logic may rename
    labels so that semantically compatible columns from different queries
    share one output column (paper Section 2.2).
    """

    alias: str
    attribute: str
    label: str


@dataclass
class ConjunctiveQuery:
    """A conjunctive (select-project-join) query with an associated cost.

    Attributes
    ----------
    atoms:
        Relation occurrences.
    joins:
        Equi-join predicates between atoms.
    selections:
        Keyword selection predicates.
    outputs:
        The select-list.  If empty, all attributes of all atoms are output.
    cost:
        The query's cost (the Steiner tree cost it was generated from);
        lower cost means higher rank.
    provenance:
        Free-form description of where the query came from (e.g. the Steiner
        tree identifier); propagated to every answer the query produces.
    """

    atoms: List[QueryAtom] = field(default_factory=list)
    joins: List[JoinPredicate] = field(default_factory=list)
    selections: List[SelectionPredicate] = field(default_factory=list)
    outputs: List[OutputColumn] = field(default_factory=list)
    cost: float = 0.0
    provenance: str = ""

    # ------------------------------------------------------------------
    # Builder-style helpers
    # ------------------------------------------------------------------
    def add_atom(self, relation: str, alias: Optional[str] = None) -> QueryAtom:
        """Add a relation occurrence; raises on duplicate alias."""
        atom = QueryAtom.of(relation, alias)
        if any(existing.alias == atom.alias for existing in self.atoms):
            raise QueryError(f"duplicate alias {atom.alias!r} in query")
        self.atoms.append(atom)
        return atom

    def add_join(
        self, left_alias: str, left_attribute: str, right_alias: str, right_attribute: str
    ) -> JoinPredicate:
        """Add an equi-join predicate between two aliases."""
        self._require_alias(left_alias)
        self._require_alias(right_alias)
        predicate = JoinPredicate(left_alias, left_attribute, right_alias, right_attribute)
        self.joins.append(predicate)
        return predicate

    def add_selection(self, alias: str, attribute: str, value: str) -> SelectionPredicate:
        """Add the selection ``alias.attribute = value``."""
        self._require_alias(alias)
        predicate = SelectionPredicate(alias, attribute, value)
        self.selections.append(predicate)
        return predicate

    def add_output(self, alias: str, attribute: str, label: Optional[str] = None) -> OutputColumn:
        """Add a select-list column (label defaults to ``alias.attribute``)."""
        self._require_alias(alias)
        column = OutputColumn(alias, attribute, label or f"{alias}.{attribute}")
        self.outputs.append(column)
        return column

    def _require_alias(self, alias: str) -> None:
        if not any(atom.alias == alias for atom in self.atoms):
            raise QueryError(f"alias {alias!r} is not bound by any atom")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def alias_map(self) -> Dict[str, str]:
        """Mapping from alias to qualified relation name."""
        return {atom.alias: atom.relation for atom in self.atoms}

    def relations(self) -> Tuple[str, ...]:
        """Qualified names of all relations referenced by the query."""
        return tuple(atom.relation for atom in self.atoms)

    def output_labels(self) -> Tuple[str, ...]:
        """Labels of the select-list columns, in order."""
        return tuple(column.label for column in self.outputs)

    def answer_cells(self, catalog: "Catalog") -> Dict[str, Tuple[int, int]]:
        """Each answer label -> ``(atom position, attribute index)`` of its value.

        The labels are the select-list's, or ``alias.attribute`` for every
        attribute of every atom when the query has no outputs.  Both
        execution targets read a row's cells in this order.
        """
        schemas = [catalog.relation(atom.relation).schema for atom in self.atoms]
        if self.outputs:
            position = {atom.alias: i for i, atom in enumerate(self.atoms)}
            projected = [(c.label, position[c.alias], c.attribute) for c in self.outputs]
        else:
            projected = [
                (f"{atom.alias}.{name}", i, name)
                for i, atom in enumerate(self.atoms)
                for name in schemas[i].attribute_names
            ]
        # A repeated label keeps its first position and its last value.
        return {label: (i, schemas[i].attribute_index(name)) for label, i, name in projected}

    def validate(self) -> None:
        """Check internal consistency; raises :class:`QueryError` on problems."""
        if not self.atoms:
            raise QueryError("query must have at least one atom")
        aliases = [atom.alias for atom in self.atoms]
        if len(aliases) != len(set(aliases)):
            raise QueryError("duplicate aliases in query")
        for join in self.joins:
            self._require_alias(join.left_alias)
            self._require_alias(join.right_alias)
        for selection in self.selections:
            self._require_alias(selection.alias)
        for output in self.outputs:
            self._require_alias(output.alias)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConjunctiveQuery(atoms={[a.alias for a in self.atoms]!r}, "
            f"joins={len(self.joins)}, selections={len(self.selections)}, "
            f"cost={self.cost:.3f})"
        )
