"""The reference oracle: the seed's nested-loop executor, kept for parity tests.

Implements the "View Creation & Output" stage of the paper's architecture
(Figure 1) the simplest way that is obviously right: each conjunctive query
is evaluated left-to-right over its atom list, the per-query outputs are
combined by a *disjoint ("outer") union* whose columns are aligned across
queries, and answers are returned in increasing order of cost with
provenance annotations.  The planned engine (:mod:`repro.engine`) and the SQL
target (:mod:`repro.storage.pushdown`) are tested against it for identical
values, costs, provenance and order; it lives in ``tests/`` because nothing
in ``src/`` runs it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.datastore.database import Catalog
from repro.datastore.provenance import AnswerTuple, TupleProvenance
from repro.datastore.query import ConjunctiveQuery, SelectionPredicate
from repro.datastore.table import Row, Table
from repro.datastore.types import canonicalize


class _PartialResult:
    """Intermediate join result: one row per joined combination of base tuples."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Dict[str, Row]) -> None:
        # alias -> Row
        self.bindings = bindings

    def extended(self, alias: str, row: Row) -> "_PartialResult":
        new_bindings = dict(self.bindings)
        new_bindings[alias] = row
        return _PartialResult(new_bindings)


def _selection_matches(predicate: SelectionPredicate, value) -> bool:
    """Evaluate a selection predicate against one cell value: canonical equality."""
    canon = canonicalize(value)
    return canon is not None and canon == canonicalize(predicate.value)


class ReferenceExecutor:
    """Executes conjunctive queries against a :class:`~repro.datastore.database.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Single-query execution
    # ------------------------------------------------------------------
    def execute(self, query: ConjunctiveQuery) -> List[AnswerTuple]:
        """Execute one conjunctive query; returns answers with provenance.

        Joins are evaluated left-to-right over the atom list with hash joins
        on canonicalized values, applying selection predicates as soon as
        their alias is bound.
        """
        query.validate()
        alias_tables = self._resolve_tables(query)
        selections_by_alias: Dict[str, List[SelectionPredicate]] = {}
        for predicate in query.selections:
            selections_by_alias.setdefault(predicate.alias, []).append(predicate)

        partials: List[_PartialResult] = [_PartialResult({})]
        for atom in query.atoms:
            table = alias_tables[atom.alias]
            candidate_rows = self._filter_rows(table, selections_by_alias.get(atom.alias, []))
            partials = self._join_step(partials, atom.alias, candidate_rows, query)
            if not partials:
                return []

        return [self._to_answer(query, partial) for partial in partials]

    def _resolve_tables(self, query: ConjunctiveQuery) -> Dict[str, Table]:
        tables: Dict[str, Table] = {}
        for atom in query.atoms:
            tables[atom.alias] = self.catalog.relation(atom.relation)
        return tables

    @staticmethod
    def _filter_rows(table: Table, predicates: Sequence[SelectionPredicate]) -> List[Row]:
        if not predicates:
            return list(table.scan())
        rows: List[Row] = []
        for row in table.scan():
            if all(_selection_matches(p, row[p.attribute]) for p in predicates):
                rows.append(row)
        return rows

    @staticmethod
    def _applicable_joins(
        query: ConjunctiveQuery, new_alias: str, bound: Set[str]
    ) -> List:
        applicable = []
        for join in query.joins:
            if join.left_alias == new_alias and join.right_alias in bound:
                applicable.append(join.reversed())
            elif join.right_alias == new_alias and join.left_alias in bound:
                applicable.append(join)
        return applicable

    def _join_step(
        self,
        partials: List[_PartialResult],
        alias: str,
        rows: List[Row],
        query: ConjunctiveQuery,
    ) -> List[_PartialResult]:
        if not partials:
            return []
        bound = set(partials[0].bindings.keys())
        joins = self._applicable_joins(query, alias, bound)
        if not joins:
            # Cross product with the new atom (happens for the first atom,
            # or when the query tree is connected only through later atoms).
            return [partial.extended(alias, row) for partial in partials for row in rows]

        # Hash the new rows on the canonical values of the joined attributes.
        key_attrs = [join.right_attribute for join in joins]
        hashed: Dict[Tuple, List[Row]] = {}
        for row in rows:
            key = tuple(canonicalize(row[attr]) for attr in key_attrs)
            if any(part is None for part in key):
                continue
            hashed.setdefault(key, []).append(row)

        result: List[_PartialResult] = []
        for partial in partials:
            key_parts = []
            valid = True
            for join in joins:
                left_row = partial.bindings[join.left_alias]
                canon = canonicalize(left_row[join.left_attribute])
                if canon is None:
                    valid = False
                    break
                key_parts.append(canon)
            if not valid:
                continue
            for row in hashed.get(tuple(key_parts), ()):
                result.append(partial.extended(alias, row))
        return result

    def _to_answer(self, query: ConjunctiveQuery, partial: _PartialResult) -> AnswerTuple:
        alias_map = query.alias_map()
        outputs = query.outputs
        if not outputs:
            values: Dict[str, Optional[object]] = {}
            for atom in query.atoms:
                row = partial.bindings[atom.alias]
                for attr, value in zip(row.schema.attribute_names, row.values):
                    values[f"{atom.alias}.{attr}"] = value
        else:
            values = {}
            for column in outputs:
                row = partial.bindings[column.alias]
                values[column.label] = row[column.attribute]
        base_tuples = frozenset(
            (alias_map[alias], row.row_id) for alias, row in partial.bindings.items()
        )
        provenance = TupleProvenance(
            query_id=query.provenance or "query",
            query_cost=query.cost,
            base_tuples=base_tuples,
        )
        return AnswerTuple(values=values, cost=query.cost, provenance=provenance)

    # ------------------------------------------------------------------
    # Ranked disjoint union
    # ------------------------------------------------------------------
    def execute_union(
        self,
        queries: Sequence[ConjunctiveQuery],
        compatible: Optional[Callable[[str, str], bool]] = None,
        limit: Optional[int] = None,
    ) -> List[AnswerTuple]:
        """Execute a ranked disjoint ("outer") union of queries.

        Queries are executed in increasing cost order.  Output columns of
        later queries are renamed onto columns of the accumulated unified
        schema when ``compatible(label_a, label_b)`` says the attributes are
        conceptually the same (paper Section 2.2); otherwise the column is
        appended as a new unified column.  Every answer is padded with
        ``None`` for the unified columns it does not populate.

        Parameters
        ----------
        queries:
            The per-tree conjunctive queries.
        compatible:
            Optional predicate over output labels implementing the
            similarity-edge-below-threshold test of the paper; defaults to
            exact label equality of the trailing attribute name.
        limit:
            Optional cap on the number of answers returned.
        """
        if compatible is None:
            compatible = _default_column_compatibility

        ordered = sorted(queries, key=lambda q: q.cost)
        unified_columns: List[str] = []
        all_answers: List[AnswerTuple] = []
        for query in ordered:
            column_mapping = self._align_columns(query, unified_columns, compatible)
            answers = self.execute(query)
            for answer in answers:
                remapped: Dict[str, Optional[object]] = {}
                for label, value in answer.values.items():
                    remapped[column_mapping.get(label, label)] = value
                answer.values = remapped
            all_answers.extend(answers)

        # Pad every answer to the unified schema.
        for answer in all_answers:
            for column in unified_columns:
                answer.values.setdefault(column, None)

        all_answers.sort(key=lambda a: a.cost)
        if limit is not None:
            all_answers = all_answers[:limit]
        return all_answers

    @staticmethod
    def _align_columns(
        query: ConjunctiveQuery,
        unified_columns: List[str],
        compatible: Callable[[str, str], bool],
    ) -> Dict[str, str]:
        """Compute a label remapping for ``query`` onto the unified schema.

        Mutates ``unified_columns`` in place, appending new columns as
        needed, and returns an original-label -> unified-label mapping.
        """
        mapping: Dict[str, str] = {}
        labels = query.output_labels() or ()
        used_unified: Set[str] = set()
        for label in labels:
            target: Optional[str] = None
            if label in unified_columns and label not in used_unified:
                target = label
            else:
                for candidate in unified_columns:
                    if candidate in used_unified:
                        continue
                    if compatible(label, candidate):
                        target = candidate
                        break
            if target is None:
                unified_columns.append(label)
                target = label
            used_unified.add(target)
            mapping[label] = target
        return mapping


def _default_column_compatibility(label_a: str, label_b: str) -> bool:
    """Default compatibility: the trailing attribute names match exactly."""
    return label_a.split(".")[-1] == label_b.split(".")[-1]
