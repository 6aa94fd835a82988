"""SQL text generation for conjunctive queries.

The paper translates each Steiner tree into a conjunctive SQL statement and
unions the statements with a disjoint ("outer") union (Section 2.2).  Our
executor evaluates the queries natively, but we also render equivalent SQL
text: it documents what is being run, is useful in the examples, and lets a
downstream user push the generated queries to a real RDBMS.

Two renderings exist:

* the **literal** rendering (:func:`query_to_sql` / :func:`union_to_sql`) —
  human-readable SQL with values inlined, kept byte-stable for docs and
  examples;
* the **parameterized** rendering (:func:`query_to_parameterized_sql` /
  :func:`union_to_parameterized_sql`) — the same statement shape with ``?``
  placeholders and a parameter tuple, so executing generated SQL never
  string-interpolates user values.

Selection conditions additionally come in two dialects (see
:func:`selection_condition`): ``"portable"`` renders standard ``=`` /
``LIKE`` predicates for external RDBMSs, while ``"exact"`` renders calls to
the library's own matcher function (``repro_match``) as registered with the
SQLite backend — the dialect the storage pushdown uses to guarantee
answer-level parity with the Python engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import QueryError
from .query import ConjunctiveQuery, SelectionPredicate
from .types import canonicalize


@dataclass(frozen=True)
class ParameterizedSQL:
    """One SQL statement plus its positional parameters."""

    sql: str
    params: Tuple[object, ...]


def _quote_identifier(name: str) -> str:
    """Quote an identifier, replacing the source separator with ``_``."""
    return '"' + name.replace('"', '""') + '"'


#: Public alias — :mod:`repro.storage` (the SQLite backend and the pushdown
#: compiler) imports this so the quoting rule has a single home.
quote_identifier = _quote_identifier


@dataclass(frozen=True)
class PushdownDialect:
    """How one backend spells the *exact*-dialect SQL the pushdown emits.

    The exact dialect guarantees answer parity by calling the library's own
    canonicalize / match functions *inside* the database; which names those
    functions are registered under is a property of the backend.  Bundling
    them here lets the SQL compiler (:mod:`repro.storage.pushdown`) render
    for any backend that registers the functions, instead of hard-coding
    the SQLite spelling.
    """

    #: Dialect identifier (matches the backend's ``kind``).
    name: str = "sqlite"
    #: Name of the registered canonicalizer UDF (one text argument).
    canon_function: str = "repro_canon"
    #: Name of the registered matcher UDF (``mode, needle, value`` → 0/1).
    match_function: str = "repro_match"

    def canon(self, column_sql: str) -> str:
        """The canonical form of a column expression, as SQL."""
        return f"{self.canon_function}({column_sql})"


#: The dialect of :class:`~repro.storage.sqlite.SqliteBackend` and the
#: default everywhere a dialect is not passed explicitly.
SQLITE_DIALECT = PushdownDialect()


def exact_condition(
    mode: str,
    value: str,
    column_sql: str,
    params: List[object],
    functions: PushdownDialect = SQLITE_DIALECT,
) -> str:
    """One selection condition in the *exact* (backend-function) dialect.

    ``equals`` renders as ``repro_canon(column) = ?`` with the needle's
    canonical form as the parameter — semantically identical to
    :meth:`~repro.engine.predicates.CompiledPredicate.matches` (a null
    canonical needle matches nothing: ``x = NULL`` is never true), and
    shaped so SQLite can serve it from the ``repro_canon(column)``
    expression indexes the backend builds.  The other modes call the
    backend-registered matcher function ``repro_match``.  ``functions``
    scopes the spelling of both calls to the target backend's
    :class:`PushdownDialect`.
    """
    if mode == "equals":
        params.append(canonicalize(value))
        return f"{functions.canon(column_sql)} = ?"
    params.extend([mode, value])
    return f"{functions.match_function}(?, ?, {column_sql}) = 1"


def _quote_literal(value: str) -> str:
    """Render a string literal with single quotes escaped."""
    return "'" + str(value).replace("'", "''") + "'"


def _value_sql(value: object, params: Optional[List[object]]) -> str:
    """Render a value: inline literal, or a ``?`` placeholder collecting it."""
    if params is None:
        return _quote_literal(value)
    params.append(value)
    return "?"


def selection_condition(
    predicate: SelectionPredicate,
    column_sql: str,
    params: Optional[List[object]] = None,
    dialect: str = "portable",
    functions: PushdownDialect = SQLITE_DIALECT,
) -> str:
    """Render one selection predicate as a SQL condition.

    Parameters
    ----------
    predicate:
        The selection to render.
    column_sql:
        The (already quoted) SQL expression for the selected column.
    params:
        When given, values are collected here and ``?`` placeholders are
        emitted; when ``None``, values are inlined as escaped literals.
    dialect:
        ``"portable"`` — standard SQL (``=`` for equals, ``LIKE`` patterns
        for contains/keyword).  The keyword rendering is a documented
        approximation: token containment becomes conjoined substring LIKEs.
        ``"exact"`` — the backend-function dialect (see
        :func:`exact_condition`); byte-identical semantics to the Python
        engine's predicate evaluation.
    functions:
        The :class:`PushdownDialect` scoping the exact dialect's function
        names to the target backend (ignored by ``"portable"``).
    """
    if dialect == "exact":
        if params is None:
            raise QueryError("the exact dialect requires parameterized rendering")
        return exact_condition(
            predicate.mode, predicate.value, column_sql, params, functions
        )
    if dialect != "portable":
        raise QueryError(f"unknown SQL dialect {dialect!r}")
    if predicate.mode == "equals":
        return f"{column_sql} = {_value_sql(predicate.value, params)}"
    # ``contains`` and ``keyword`` both render as LIKE patterns; keyword mode
    # produces one LIKE per token, conjoined.
    if predicate.mode == "contains":
        return f"{column_sql} LIKE {_value_sql('%' + predicate.value + '%', params)}"
    tokens = predicate.value.split()
    clauses = [
        f"{column_sql} LIKE {_value_sql('%' + token + '%', params)}" for token in tokens
    ]
    return "(" + " AND ".join(clauses) + ")" if clauses else "1 = 1"


def _render_selection(predicate: SelectionPredicate, params: Optional[List[object]] = None) -> str:
    column = f"{_quote_identifier(predicate.alias)}.{_quote_identifier(predicate.attribute)}"
    return selection_condition(predicate, column, params)


def _render_query(
    query: ConjunctiveQuery, include_cost: bool, params: Optional[List[object]]
) -> str:
    query.validate()
    select_items: List[str] = []
    if query.outputs:
        for column in query.outputs:
            expr = f"{_quote_identifier(column.alias)}.{_quote_identifier(column.attribute)}"
            select_items.append(f"{expr} AS {_quote_identifier(column.label)}")
    else:
        select_items.append("*")
    if include_cost:
        select_items.append(f"{query.cost:.6f} AS {_quote_identifier('_cost')}")

    from_items = [
        f"{_quote_identifier(atom.relation)} AS {_quote_identifier(atom.alias)}"
        for atom in query.atoms
    ]

    where_clauses: List[str] = []
    for join in query.joins:
        left = f"{_quote_identifier(join.left_alias)}.{_quote_identifier(join.left_attribute)}"
        right = f"{_quote_identifier(join.right_alias)}.{_quote_identifier(join.right_attribute)}"
        where_clauses.append(f"{left} = {right}")
    for selection in query.selections:
        where_clauses.append(_render_selection(selection, params))

    sql = "SELECT " + ",\n       ".join(select_items)
    sql += "\nFROM " + ",\n     ".join(from_items)
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
    return _render_query(query, include_cost, params=None)


def query_to_parameterized_sql(
    query: ConjunctiveQuery, include_cost: bool = True
) -> ParameterizedSQL:
    """Like :func:`query_to_sql`, but with ``?`` placeholders for values.

    The statement shape is identical to the literal rendering; only the
    selection needles move into the parameter tuple (query costs are
    engine-computed constants, not user input, and stay inline).
    """
    params: List[object] = []
    sql = _render_query(query, include_cost, params=params)
    return ParameterizedSQL(sql, tuple(params))


def _render_union(
    queries: Sequence[ConjunctiveQuery],
    unified_columns: Optional[Sequence[str]],
    column_mappings: Optional[Sequence[Dict[str, str]]],
    params: Optional[List[object]],
) -> str:
    ordered = sorted(range(len(queries)), key=lambda i: queries[i].cost)
    if unified_columns is None:
        seen: List[str] = []
        for index in ordered:
            mapping = column_mappings[index] if column_mappings else {}
            for label in queries[index].output_labels():
                unified = mapping.get(label, label)
                if unified not in seen:
                    seen.append(unified)
        unified_columns = seen

    branches: List[str] = []
    for index in ordered:
        query = queries[index]
        mapping = column_mappings[index] if column_mappings else {}
        label_to_column = {}
        for column in query.outputs:
            unified = mapping.get(column.label, column.label)
            label_to_column[unified] = (
                f"{_quote_identifier(column.alias)}.{_quote_identifier(column.attribute)}"
            )
        select_items = []
        for unified in unified_columns:
            expr = label_to_column.get(unified, "NULL")
            select_items.append(f"{expr} AS {_quote_identifier(unified)}")
        select_items.append(f"{query.cost:.6f} AS {_quote_identifier('_cost')}")

        branch_sql = "SELECT " + ",\n       ".join(select_items)
        branch_sql += "\nFROM " + ",\n     ".join(
            f"{_quote_identifier(atom.relation)} AS {_quote_identifier(atom.alias)}"
            for atom in query.atoms
        )
        where_clauses = []
        for join in query.joins:
            left = f"{_quote_identifier(join.left_alias)}.{_quote_identifier(join.left_attribute)}"
            right = f"{_quote_identifier(join.right_alias)}.{_quote_identifier(join.right_attribute)}"
            where_clauses.append(f"{left} = {right}")
        for selection in query.selections:
            where_clauses.append(_render_selection(selection, params))
        if where_clauses:
            branch_sql += "\nWHERE " + "\n  AND ".join(where_clauses)
        branches.append(branch_sql)

    union_sql = "\nUNION ALL\n".join(branches)
    return union_sql + f"\nORDER BY {_quote_identifier('_cost')} ASC"


def union_to_sql(
    queries: Sequence[ConjunctiveQuery],
    unified_columns: Optional[Sequence[str]] = None,
    column_mappings: Optional[Sequence[Dict[str, str]]] = None,
) -> str:
    """Render a ranked disjoint union of queries as ``UNION ALL`` SQL.

    Every branch projects the full unified column list, emitting ``NULL``
    for the columns it does not populate, then the union is ordered by the
    per-branch cost column — matching the multiway disjoint union described
    in Section 2.2.

    Parameters
    ----------
    queries:
        The branch queries, in any order (the output is ordered by cost).
    unified_columns:
        The unified output schema.  If omitted, the union of all branch
        output labels is used, in first-seen order.
    column_mappings:
        Optional per-branch mapping from the branch's own output labels to
        unified labels (as produced by the executor's column alignment).
    """
    return _render_union(queries, unified_columns, column_mappings, params=None)


def union_to_parameterized_sql(
    queries: Sequence[ConjunctiveQuery],
    unified_columns: Optional[Sequence[str]] = None,
    column_mappings: Optional[Sequence[Dict[str, str]]] = None,
) -> ParameterizedSQL:
    """Like :func:`union_to_sql`, with ``?`` placeholders for values.

    Parameters are collected branch by branch in ascending-cost order —
    the same order the branches appear in the rendered statement.
    """
    params: List[object] = []
    sql = _render_union(queries, unified_columns, column_mappings, params=params)
    return ParameterizedSQL(sql, tuple(params))
