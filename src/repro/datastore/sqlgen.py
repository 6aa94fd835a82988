"""SQL text generation for conjunctive queries.

The paper translates each Steiner tree into a conjunctive SQL statement
(Section 2.2).  This module renders one such statement as human-readable SQL
with values inlined as escaped literals (:func:`query_to_sql`), kept
byte-stable for docs and examples: it documents what is being run and lets
a downstream user push the generated query to a real RDBMS.  It executes
nothing.  Selections render portably (:func:`selection_condition`).

The SQL the library runs is not this rendering:
:mod:`repro.storage.pushdown` compiles a query to one parameterized SELECT
over the SQLite backend's physical tables, with selections in the exact form
of :func:`repro.storage.sqlite.exact_condition`.
"""

from __future__ import annotations

from typing import List

from .query import ConjunctiveQuery, SelectionPredicate


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier, doubling any embedded double quote."""
    return '"' + name.replace('"', '""') + '"'


def _quote_literal(value: str) -> str:
    """Render a string literal with single quotes escaped."""
    return "'" + str(value).replace("'", "''") + "'"


def _column(alias: str, attribute: str) -> str:
    return f"{quote_identifier(alias)}.{quote_identifier(attribute)}"


def selection_condition(predicate: SelectionPredicate, column_sql: str) -> str:
    """Render one selection predicate as the portable SQL ``column = 'value'``.

    ``column_sql`` is the (already quoted) SQL expression for the selected
    column.  Plain ``=`` compares raw text; the library compares canonical
    forms (:func:`repro.storage.sqlite.exact_condition`).
    """
    return f"{column_sql} = {_quote_literal(predicate.value)}"


def _from_where(query: ConjunctiveQuery) -> str:
    """The ``FROM`` list and ``WHERE`` conjunction of one query."""
    from_items = [
        f"{quote_identifier(atom.relation)} AS {quote_identifier(atom.alias)}"
        for atom in query.atoms
    ]
    where_clauses: List[str] = []
    for join in query.joins:
        left = _column(join.left_alias, join.left_attribute)
        right = _column(join.right_alias, join.right_attribute)
        where_clauses.append(f"{left} = {right}")
    for selection in query.selections:
        where_clauses.append(
            selection_condition(selection, _column(selection.alias, selection.attribute))
        )
    sql = "\nFROM " + ",\n     ".join(from_items)
    if where_clauses:
        sql += "\nWHERE " + "\n  AND ".join(where_clauses)
    return sql


def query_to_sql(query: ConjunctiveQuery, include_cost: bool = True) -> str:
    """Render one conjunctive query as a SQL ``SELECT`` statement.

    Parameters
    ----------
    query:
        The query to render.
    include_cost:
        If ``True``, the query's cost is emitted as a constant ``_cost``
        column, mirroring the per-branch cost term ``e`` of the paper.
    """
    query.validate()
    select_items: List[str] = []
    if query.outputs:
        for column in query.outputs:
            expr = _column(column.alias, column.attribute)
            select_items.append(f"{expr} AS {quote_identifier(column.label)}")
    else:
        select_items.append("*")
    if include_cost:
        select_items.append(f"{query.cost:.6f} AS {quote_identifier('_cost')}")
    return "SELECT " + ",\n       ".join(select_items) + _from_where(query)

