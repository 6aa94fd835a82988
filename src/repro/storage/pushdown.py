"""The SQL target: a conjunctive query compiled to one parameterized SELECT.

When every relation of a conjunctive query lives on the catalog's
pushdown-capable backend (:class:`~repro.storage.sqlite.SqliteBackend`),
the engine does not need to scan, hash and join in Python at all: the query
*is* a conjunctive SQL statement (the paper's own formulation, Section
2.2).  This module holds the one compiler of such a statement
(:class:`CompiledQuery`), which also decodes each result record into the
same row the Python target returns: the answer's cell values in the
query's label order and the base tuples joined to form it.  Turning rows
into answers is not this module's job.  :class:`SqlPushdown` runs the
statement.  A ranked view is not a SQL shape of its own: it executes its
queries one by one and merges their rows with
:func:`~repro.engine.executor.ranked_union`, on every backend.

Parity is guaranteed by construction rather than by approximation:

* join conditions compare ``repro_canon(left) = repro_canon(right)`` — the
  library's canonicalize function registered with the database — so exactly
  the tuples the Python hash join matches are matched (nulls never join:
  ``NULL = NULL`` is not true in SQL);
* selections render through :func:`repro.storage.sqlite.exact_condition`
  as ``repro_canon(column) = ?``, the same semantics as
  :meth:`~repro.engine.predicates.CompiledPredicate.matches`;
* rows are ordered by the base tuples' row ids along the query's atom
  list — precisely the deterministic emission order of
  :meth:`~repro.engine.executor.PlanExecutor.execute`;
* self-joins binding one alias to itself are dropped, as the planner does.

Whether a query may take this target at all is decided in one place,
:meth:`repro.engine.context.ExecutionContext.choose_target`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..datastore.provenance import AnswerRow
from ..datastore.sqlgen import quote_identifier
from ..exceptions import UnknownRelationError
from .sqlite import SqliteBackend, canon_sql, exact_condition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datastore.database import Catalog
    from ..datastore.query import ConjunctiveQuery


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


class CompiledQuery:
    """One conjunctive query as a parameterized SELECT, and its row decoder.

    A result record is a ``"_rid_i"``/``"_tag_i"`` pair per atom (the base
    tuple's row id and its value-type tags) followed by one ``"_val_i"``
    per answer cell.  ``cells`` lists the cells as ``(atom position,
    attribute index)`` in the query's
    :meth:`~repro.datastore.query.ConjunctiveQuery.answer_cells` order, so
    :meth:`row` decodes a record into the row the Python target builds.
    ``params`` holds the selection needles in the order they appear in
    ``sql``.
    """

    __slots__ = ("relations", "cells", "sql", "params")

    def __init__(self, backend, catalog: "Catalog", query: "ConjunctiveQuery") -> None:
        query.validate()
        atoms = query.atoms
        self.relations = [atom.relation for atom in atoms]
        self.cells: List[Tuple[int, int]] = list(query.answer_cells(catalog).values())
        names = [catalog.relation(atom.relation).schema.attribute_names for atom in atoms]

        def column_sql(alias: str, attribute: str) -> str:
            return f"{quote_identifier(alias)}.{backend.column_sql_name(attribute)}"

        row_ids = [f'{quote_identifier(atom.alias)}."_row_id"' for atom in atoms]
        select_items: List[str] = []
        for slot, atom in enumerate(atoms):
            select_items.append(f'{row_ids[slot]} AS "_rid_{slot}"')
            select_items.append(f'{quote_identifier(atom.alias)}."_tags" AS "_tag_{slot}"')
        select_items.extend(
            f'{column_sql(atoms[i].alias, names[i][index])} AS "_val_{slot}"'
            for slot, (i, index) in enumerate(self.cells)
        )
        from_items = [
            f"{backend.table_sql_name(atom.relation)} AS {quote_identifier(atom.alias)}"
            for atom in atoms
        ]
        # Joins compare canonical forms and selections render exactly;
        # compiling ensures the canon index on every join and selection
        # column.
        relation = query.alias_map()
        conditions: List[str] = []
        self.params: List[object] = []
        for join in query.joins:
            if join.left_alias == join.right_alias:
                continue  # planner semantics: self-joins on one alias are dropped
            left = column_sql(join.left_alias, join.left_attribute)
            right = column_sql(join.right_alias, join.right_attribute)
            conditions.append(f"{canon_sql(left)} = {canon_sql(right)}")
            backend.ensure_canon_index(relation[join.right_alias], join.right_attribute)
            backend.ensure_canon_index(relation[join.left_alias], join.left_attribute)
        for selection in query.selections:
            column = column_sql(selection.alias, selection.attribute)
            conditions.append(exact_condition(selection.value, column, self.params))
            backend.ensure_canon_index(relation[selection.alias], selection.attribute)
        sql = "SELECT " + ", ".join(select_items) + "\nFROM " + ", ".join(from_items)
        if conditions:
            sql += "\nWHERE " + " AND ".join(conditions)
        # The engine's emission order: row ids along the atom list.
        self.sql = sql + "\nORDER BY " + ", ".join(row_ids)

    def row(self, record: Sequence[object]) -> AnswerRow:
        """Decode one result record into the query's row."""
        decode = SqliteBackend._decode_cell
        cell_base = 2 * len(self.relations)
        return (
            tuple([
                decode(record[cell_base + slot], record[2 * i + 1], index)
                for slot, (i, index) in enumerate(self.cells)
            ]),
            frozenset(zip(self.relations, record[0:cell_base:2])),
        )


class SqlPushdown:
    """Runs one whole conjunctive query as a single SELECT."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def execute(self, catalog: "Catalog", query: "ConjunctiveQuery") -> List[AnswerRow]:
        """Run ``query`` as one parameterized SELECT into its rows."""
        compiled = CompiledQuery(self.backend, catalog, query)
        return [compiled.row(record) for record in self.backend.execute_sql(compiled.sql, compiled.params)]
