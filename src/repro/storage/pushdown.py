"""The SQL target: conjunctive queries compiled to parameterized SELECTs.

When every relation of a conjunctive query lives on the catalog's
pushdown-capable backend (:class:`~repro.storage.sqlite.SqliteBackend`),
the engine does not need to scan, hash and join in Python at all: the query
*is* a conjunctive SQL statement (the paper's own formulation, Section
2.2).  This module holds the one compiler of such a statement and the one
decoder of its result rows, shared by both shapes a read can take:

* :class:`SqlPushdown` — a single query: one branch, ordered by a plain
  ``ORDER BY`` on row ids;
* :class:`~repro.storage.windowed.WindowedUnionPushdown` — a whole ranked
  view: every query one branch of a windowed ``UNION ALL``.

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

Whether a read may take this target at all is decided in one place,
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


class BranchPlan:
    """One conjunctive query as a SQL branch: what to project, how to decode.

    ``cells`` lists the query's projected cells in answer-key order as
    ``(label, column SQL, atom position, attribute index)`` — one per
    output column, or every attribute of every atom (labelled
    ``alias.attribute``) for a query without outputs, the engine's
    all-attributes projection.

    ``layout`` tells :meth:`answer` where each answer key sits in a result
    row, as ``(key, cell slot, atom position, attribute index)``; it
    defaults to the cells in order and is replaced by the ranked shape,
    which projects unified columns and pads the rest (``pad``) with
    ``None``.
    """

    __slots__ = ("query", "relations", "cells", "layout", "pad")

    def __init__(self, backend, catalog: "Catalog", query: "ConjunctiveQuery") -> None:
        query.validate()
        self.query = query
        self.relations = [atom.relation for atom in query.atoms]
        position = {atom.alias: i for i, atom in enumerate(query.atoms)}
        schemas = {
            atom.alias: catalog.relation(atom.relation).schema for atom in query.atoms
        }
        if query.outputs:
            projected = [
                (column.label, column.alias, column.attribute)
                for column in query.outputs
            ]
        else:
            projected = [
                (f"{atom.alias}.{attribute}", atom.alias, attribute)
                for atom in query.atoms
                for attribute in schemas[atom.alias].attribute_names
            ]
        self.cells: List[Tuple[str, str, int, int]] = [
            (
                label,
                f"{quote_identifier(alias)}.{backend.column_sql_name(attribute)}",
                position[alias],
                schemas[alias].attribute_index(attribute),
            )
            for label, alias, attribute in projected
        ]
        self.layout: List[Tuple[str, int, int, int]] = [
            (label, slot, atom_pos, attr_index)
            for slot, (label, _, atom_pos, attr_index) in enumerate(self.cells)
        ]
        self.pad: Sequence[str] = ()

    def row_id_order(self) -> str:
        """``ORDER BY`` list reproducing the engine's emission order."""
        return ", ".join(
            f'{quote_identifier(atom.alias)}."_row_id"' for atom in self.query.atoms
        )

    def render(
        self,
        backend,
        params: List[object],
        head: Sequence[str],
        cell_exprs: Sequence[str],
        atom_slots: int,
    ) -> str:
        """The branch SELECT (no ``ORDER BY``).

        Projects ``head``, then a ``"_rid_i"``/``"_tag_i"`` pair per atom
        slot (``NULL`` beyond this query's atoms, so every arm of a
        ``UNION ALL`` has equal arity), then ``cell_exprs`` as
        ``"_val_i"``.  Selection needles land in ``params`` in the order
        they appear in the SQL text.
        """
        select_items = list(head)
        atoms = self.query.atoms
        for slot in range(atom_slots):
            if slot < len(atoms):
                alias_sql = quote_identifier(atoms[slot].alias)
                select_items.append(f'{alias_sql}."_row_id" AS "_rid_{slot}"')
                select_items.append(f'{alias_sql}."_tags" AS "_tag_{slot}"')
            else:
                select_items.append(f'NULL AS "_rid_{slot}"')
                select_items.append(f'NULL AS "_tag_{slot}"')
        select_items.extend(
            f'{expr} AS "_val_{slot}"' for slot, expr in enumerate(cell_exprs)
        )
        from_items, conditions = compile_query_body(backend, self.query, params)
        sql = "SELECT " + ", ".join(select_items) + "\nFROM " + ", ".join(from_items)
        if conditions:
            sql += "\nWHERE " + " AND ".join(conditions)
        return sql

    def answer(self, record: Sequence[object], base: int, cell_base: int) -> AnswerTuple:
        """Decode one result row: values, cost and base-tuple provenance.

        ``base`` is the column of ``"_rid_0"`` and ``cell_base`` that of
        ``"_val_0"``.  Mirrors ``PlanExecutor._to_answer``: a repeated key
        keeps its first position and its last value.
        """
        decode = DbApiBackend._decode_cell
        values = {}
        for key, slot, atom_pos, attr_index in self.layout:
            tags = record[base + 2 * atom_pos + 1]
            values[key] = decode(record[cell_base + slot], tags, attr_index)
        for column in self.pad:
            values.setdefault(column, None)
        query = self.query
        provenance = TupleProvenance(
            query_id=query.provenance or "query",
            query_cost=query.cost,
            base_tuples=frozenset(
                (relation, record[base + 2 * pos])
                for pos, relation in enumerate(self.relations)
            ),
        )
        return AnswerTuple(values=values, cost=query.cost, provenance=provenance)


class SqlPushdown:
    """Runs one whole conjunctive query as a single-branch SELECT."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def execute(self, catalog: "Catalog", query: "ConjunctiveQuery") -> List[AnswerTuple]:
        """Run ``query`` as one parameterized SELECT; answers carry provenance."""
        plan = BranchPlan(self.backend, catalog, query)
        params: List[object] = []
        sql = plan.render(
            self.backend,
            params,
            head=(),
            cell_exprs=[expr for _, expr, _, _ in plan.cells],
            atom_slots=len(query.atoms),
        )
        sql += f"\nORDER BY {plan.row_id_order()}"
        cell_base = 2 * len(query.atoms)
        return [
            plan.answer(record, 0, cell_base)
            for record in self.backend.execute_sql(sql, params)
        ]
