"""The SQL target: a conjunctive query compiled to one parameterized SELECT.

When every relation of a conjunctive query lives on the catalog's
pushdown-capable backend (:class:`~repro.storage.sqlite.SqliteBackend`),
the engine does not need to scan, hash and join in Python at all: the query
*is* a conjunctive SQL statement (the paper's own formulation, Section
2.2).  This module holds the one compiler of such a statement and the one
decoder of its result rows (:class:`CompiledQuery`); :class:`SqlPushdown`
runs them.  A ranked view is not a SQL shape of its own: it executes its
queries one by one and merges them with
:func:`~repro.engine.executor.ranked_union`, on every backend.

Parity is guaranteed by construction rather than by approximation:

* join conditions compare ``repro_canon(left) = repro_canon(right)`` — the
  library's canonicalize function registered with the database — so exactly
  the tuples the Python hash join matches are matched (nulls never join:
  ``NULL = NULL`` is not true in SQL);
* selections go through :func:`repro.datastore.sqlgen.selection_condition`
  in its *exact* dialect (``repro_match(?, ?, column) = 1``), the same
  semantics as :meth:`~repro.engine.predicates.CompiledPredicate.matches`;
* rows are ordered by the base tuples' row ids along the query's atom
  list — precisely the deterministic emission order of
  :meth:`~repro.engine.executor.PlanExecutor.execute`;
* self-joins binding one alias to itself are dropped, as the planner does.

Whether a query may take this target at all is decided in one place,
:meth:`repro.engine.context.ExecutionContext.choose_target`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..datastore.provenance import AnswerTuple, TupleProvenance
from ..datastore.sqlgen import (
    SQLITE_DIALECT,
    PushdownDialect,
    quote_identifier,
    selection_condition,
)
from ..exceptions import UnknownRelationError
from .dbapi import DbApiBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datastore.database import Catalog
    from ..datastore.query import ConjunctiveQuery


def backend_dialect(backend) -> PushdownDialect:
    """The backend's :class:`PushdownDialect` (SQLite spelling by default)."""
    return getattr(backend, "sql_dialect", SQLITE_DIALECT)


def relation_of(query: "ConjunctiveQuery", alias: str) -> str:
    """The relation an atom alias is bound to."""
    for atom in query.atoms:
        if atom.alias == alias:
            return atom.relation
    raise KeyError(alias)  # pragma: no cover - validate() guarantees binding


def off_backend_relations(
    backend, catalog: "Catalog", query: "ConjunctiveQuery"
) -> List[str]:
    """Relations of ``query`` that are *not* stored on ``backend``.

    A query touching a foreign-backend relation (or a table whose storage
    key diverged from its catalog name) cannot be rendered as SQL.
    """
    missing = []
    for atom in query.atoms:
        try:
            table = catalog.relation(atom.relation)
        except UnknownRelationError:
            missing.append(atom.relation)
            continue
        if table.storage_backend is not backend or table.storage_key != atom.relation:
            missing.append(atom.relation)
    return missing


def compile_query_body(
    backend, query: "ConjunctiveQuery", params: List[object]
) -> Tuple[List[str], List[str]]:
    """FROM items and WHERE conditions of one conjunctive query.

    Join conditions compare canonical forms via the backend dialect's canon
    function; selections render in the *exact* dialect; selection needles
    are appended to ``params``.  As a side effect the backend's canonical
    expression indexes are ensured on every join column and every
    equals-selection column.
    """
    dialect = backend_dialect(backend)
    from_items = [
        f"{backend.table_sql_name(atom.relation)} AS {quote_identifier(atom.alias)}"
        for atom in query.atoms
    ]
    conditions: List[str] = []
    for join in query.joins:
        if join.left_alias == join.right_alias:
            continue  # planner semantics: self-joins on one alias are dropped
        left = (
            f"{quote_identifier(join.left_alias)}."
            f"{backend.column_sql_name(join.left_attribute)}"
        )
        right = (
            f"{quote_identifier(join.right_alias)}."
            f"{backend.column_sql_name(join.right_attribute)}"
        )
        conditions.append(f"{dialect.canon(left)} = {dialect.canon(right)}")
        backend.ensure_canon_index(
            relation_of(query, join.right_alias), join.right_attribute
        )
        backend.ensure_canon_index(
            relation_of(query, join.left_alias), join.left_attribute
        )
    for selection in query.selections:
        column = (
            f"{quote_identifier(selection.alias)}."
            f"{backend.column_sql_name(selection.attribute)}"
        )
        conditions.append(
            selection_condition(
                selection, column, params, dialect="exact", functions=dialect
            )
        )
        if selection.mode == "equals":
            backend.ensure_canon_index(
                relation_of(query, selection.alias), selection.attribute
            )
    return from_items, conditions


class CompiledQuery:
    """One conjunctive query as a parameterized SELECT, and its row decoder.

    A result row is a ``"_rid_i"``/``"_tag_i"`` pair per atom (the base
    tuple's row id and its value-type tags) followed by one ``"_val_i"``
    per projected cell.  ``cells`` lists the projected cells in answer-key
    order as ``(label, atom position, attribute index)`` — one per output
    column, or every attribute of every atom (labelled
    ``alias.attribute``) for a query without outputs, the engine's
    all-attributes projection.  ``params`` holds the selection needles in
    the order they appear in ``sql``.
    """

    __slots__ = ("query", "relations", "cells", "sql", "params")

    def __init__(self, backend, catalog: "Catalog", query: "ConjunctiveQuery") -> None:
        query.validate()
        self.query = query
        atoms = query.atoms
        self.relations = [atom.relation for atom in atoms]
        position = {atom.alias: i for i, atom in enumerate(atoms)}
        schemas = {atom.alias: catalog.relation(atom.relation).schema for atom in atoms}
        if query.outputs:
            projected = [
                (column.label, column.alias, column.attribute)
                for column in query.outputs
            ]
        else:
            projected = [
                (f"{atom.alias}.{attribute}", atom.alias, attribute)
                for atom in atoms
                for attribute in schemas[atom.alias].attribute_names
            ]
        self.cells: List[Tuple[str, int, int]] = [
            (label, position[alias], schemas[alias].attribute_index(attribute))
            for label, alias, attribute in projected
        ]
        row_ids = [f'{quote_identifier(atom.alias)}."_row_id"' for atom in atoms]
        select_items: List[str] = []
        for slot, atom in enumerate(atoms):
            select_items.append(f'{row_ids[slot]} AS "_rid_{slot}"')
            select_items.append(f'{quote_identifier(atom.alias)}."_tags" AS "_tag_{slot}"')
        select_items.extend(
            f'{quote_identifier(alias)}.{backend.column_sql_name(attribute)} AS "_val_{slot}"'
            for slot, (_, alias, attribute) in enumerate(projected)
        )
        self.params: List[object] = []
        from_items, conditions = compile_query_body(backend, query, self.params)
        sql = "SELECT " + ", ".join(select_items) + "\nFROM " + ", ".join(from_items)
        if conditions:
            sql += "\nWHERE " + " AND ".join(conditions)
        # The engine's emission order: row ids along the atom list.
        self.sql = sql + "\nORDER BY " + ", ".join(row_ids)

    def answer(self, record: Sequence[object]) -> AnswerTuple:
        """Decode one result row: values, cost and base-tuple provenance.

        Mirrors ``PlanExecutor._to_answer``: a repeated key keeps its first
        position and its last value.
        """
        decode = DbApiBackend._decode_cell
        cell_base = 2 * len(self.relations)
        values = {}
        for slot, (key, atom_pos, attr_index) in enumerate(self.cells):
            tags = record[2 * atom_pos + 1]
            values[key] = decode(record[cell_base + slot], tags, attr_index)
        query = self.query
        provenance = TupleProvenance(
            query_id=query.provenance or "query",
            query_cost=query.cost,
            base_tuples=frozenset(
                (relation, record[2 * pos]) for pos, relation in enumerate(self.relations)
            ),
        )
        return AnswerTuple(values=values, cost=query.cost, provenance=provenance)


class SqlPushdown:
    """Runs one whole conjunctive query as a single SELECT."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def execute(self, catalog: "Catalog", query: "ConjunctiveQuery") -> List[AnswerTuple]:
        """Run ``query`` as one parameterized SELECT; answers carry provenance."""
        compiled = CompiledQuery(self.backend, catalog, query)
        return [
            compiled.answer(record)
            for record in self.backend.execute_sql(compiled.sql, compiled.params)
        ]
