"""Plan execution: indexed hash joins and the ranked disjoint union.

:class:`PlanExecutor` is the operator layer of the engine.  It executes the
:class:`~repro.engine.plan.QueryPlan` produced by the planner with composite
-key hash joins whose build sides come from the shared
:class:`~repro.engine.context.ExecutionContext` (built once, replayed across
the k queries of a view refresh), and returns the query's rows
(:data:`~repro.datastore.provenance.AnswerRow`).  :func:`ranked_union` is
the one merge of several queries' rows and the one place a row becomes the
:class:`~repro.datastore.provenance.AnswerTuple` a reader sees, with the
seed executor's ranked disjoint-union semantics (the nested-loop reference
the tests keep as ``tests/reference_executor.py``).

Parity guarantee
----------------
For any query, the answers :func:`ranked_union` builds from
:meth:`PlanExecutor.execute`'s rows are exactly the answers the seed
executor returns — same values (and value order within each answer), same
costs, same provenance, and same *list order*: rows are emitted in
ascending base-tuple ``row_id`` order following the query's atom list, which
is precisely the order the seed's left-to-right nested iteration produces.
Join reordering therefore never leaks into observable output.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..datastore.database import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.budget import Budget
from ..datastore.provenance import AnswerRow, AnswerTuple, TupleProvenance
from ..datastore.query import ConjunctiveQuery
from ..datastore.table import Row
from ..datastore.types import canonicalize
from ..obs.tracing import active_trace
from .context import SQL, ExecutionContext
from .plan import PlanStep, QueryPlan, QueryPlanner


def default_column_compatibility(label_a: str, label_b: str) -> bool:
    """Default label compatibility: trailing attribute names match exactly."""
    return label_a.split(".")[-1] == label_b.split(".")[-1]


class PlanExecutor:
    """Executes conjunctive queries through the planner + operator engine."""

    def __init__(self, catalog: Catalog, context: Optional[ExecutionContext] = None) -> None:
        self.catalog = catalog
        self.context = context if context is not None else ExecutionContext(catalog)
        if self.context.catalog is not catalog:
            raise ValueError("execution context is bound to a different catalog")
        self.planner = QueryPlanner(self.context)

    # ------------------------------------------------------------------
    # Single-query execution
    # ------------------------------------------------------------------
    def execute(
        self, query: ConjunctiveQuery, budget: "Optional[Budget]" = None
    ) -> List[AnswerRow]:
        """Execute one conjunctive query into its rows: cells and base tuples.

        When :meth:`~repro.engine.context.ExecutionContext.choose_target`
        picks the SQL target, the whole query runs inside the backend (same
        rows in the same order — see :mod:`repro.storage.pushdown`);
        otherwise the planned Python join engine below executes it.  Either
        way a row holds the cell values in the order of the
        query's :meth:`~repro.datastore.query.ConjunctiveQuery.answer_cells`.

        With a ``budget``, the plan loop checks it per step and raises
        :class:`~repro.exceptions.DeadlineExceededError` on expiry; a query
        has no meaningful partial result, so callers (the view's streaming
        union) decide whether already-executed *sibling* queries constitute
        a degraded answer set.
        """
        if budget is not None:
            budget.check("executor")
        trace = active_trace()
        context = self.context
        target, reason = context.choose_target(query, budget=budget)
        if target == SQL:
            rows = context.pushdown.execute(self.catalog, query)
            context.statistics.pushdown_queries += 1
            trace.tally("queries_pushdown")
            return rows
        trace.annotate_once("fallback_reason", reason)
        trace.tally("queries_python")
        plan = self.planner.plan(query)
        partials = self._run_plan(plan, budget=budget)
        if not partials:
            return []
        # Canonical output order: ascending row ids along the query's atom
        # list.  This both makes execution order-independent of the chosen
        # join order and reproduces the seed executor's emission order.
        position = {step.alias: i for i, step in enumerate(plan.steps)}
        atom_positions = [position[atom.alias] for atom in query.atoms]
        partials.sort(key=lambda rows: tuple(rows[i].row_id for i in atom_positions))
        cells = [(atom_positions[i], index) for i, index in query.answer_cells(self.catalog).values()]
        atoms = [(atom.relation, atom_positions[i]) for i, atom in enumerate(query.atoms)]
        return [
            (
                tuple([partial[slot].values[index] for slot, index in cells]),
                frozenset([(r, partial[slot].row_id) for r, slot in atoms]),
            )
            for partial in partials
        ]

    def _run_plan(
        self, plan: QueryPlan, budget: "Optional[Budget]" = None
    ) -> List[Tuple[Row, ...]]:
        """Run the plan's steps; partials are row tuples in step order."""
        context = self.context
        position = {step.alias: i for i, step in enumerate(plan.steps)}
        partials: List[Tuple[Row, ...]] = [()]
        for step in plan.steps:
            if budget is not None:
                budget.check("executor")
            if not partials:
                return []
            if step.is_cross_product:
                rows = context.scan(step.relation, step.predicates)
                partials = [partial + (row,) for partial in partials for row in rows]
            else:
                partials = self._hash_join(step, position, partials)
        return partials

    def _hash_join(
        self,
        step: PlanStep,
        position: Dict[str, int],
        partials: List[Tuple[Row, ...]],
    ) -> List[Tuple[Row, ...]]:
        index = self.context.join_index(
            step.relation, step.predicates, step.join_key_attributes()
        )
        probe_slots = [(position[j.left_alias], j.left_attribute) for j in step.joins]
        result: List[Tuple[Row, ...]] = []
        for partial in partials:
            key_parts = []
            valid = True
            for slot, attribute in probe_slots:
                canon = canonicalize(partial[slot][attribute])
                if canon is None:
                    valid = False
                    break
                key_parts.append(canon)
            if not valid:
                continue
            for row in index.get(tuple(key_parts), ()):
                result.append(partial + (row,))
        return result


def union_column_plan(
    queries: Sequence[ConjunctiveQuery],
    compatible: Optional[Callable[[str, str], bool]] = None,
) -> Tuple[List[str], List[Dict[str, str]]]:
    """The unified schema of a ranked union, computable *before* execution.

    ``queries`` must be in the union's ranked (ascending-cost) order.
    Returns ``(unified_columns, mappings)`` where ``mappings[i]`` remaps the
    ``i``-th query's output labels onto the unified columns.  Only the
    queries' output labels are consulted, so the lazy :func:`ranked_union`
    can pad every answer with the full column set without executing later
    queries first.
    """
    if compatible is None:
        compatible = default_column_compatibility
    unified_columns: List[str] = []
    mappings = [_align_columns(query, unified_columns, compatible) for query in queries]
    return unified_columns, mappings


def ranked_union(
    queries: Sequence[ConjunctiveQuery],
    rows_of: Callable[[ConjunctiveQuery], Sequence[AnswerRow]],
    catalog: Catalog,
    compatible: Optional[Callable[[str, str], bool]] = None,
    limit: Optional[int] = None,
) -> Iterator[AnswerTuple]:
    """The ranked disjoint union of ``queries``: answers on a unified schema, by cost.

    The one merge of every read.  ``rows_of(query)`` returns a query's rows
    (an execution, or a cache's replay of one); it is called lazily, in
    ascending cost order, when the iterator reaches that query, and never
    for a query past ``limit``.

    Ranking is a k-way merge, not a sort: the queries are stably sorted by
    cost and every answer of a query is priced at exactly that query's
    cost, so the concatenation of the per-query blocks *is* the merge of
    the k sorted runs.  Equal-cost answers keep query order, then each
    query's emission order.
    """
    ordered = sorted(queries, key=lambda query: query.cost)
    columns, mappings = union_column_plan(ordered, compatible)
    blocks = (
        _answers(query, rows_of(query), catalog, mapping, columns)
        for query, mapping in zip(ordered, mappings)
    )
    return itertools.islice(itertools.chain.from_iterable(blocks), limit)


def _answers(
    query: ConjunctiveQuery,
    rows: Sequence[AnswerRow],
    catalog: Catalog,
    column_mapping: Dict[str, str],
    unified_columns: Sequence[str],
) -> Iterator[AnswerTuple]:
    """The one builder of the answers a reader sees, from one query's rows.

    Each row's cells are keyed by the unified column its label maps to and
    padded with ``None`` for the columns the query does not populate, and
    the answer's provenance is stamped here, and only here, with ``query``'s
    id and cost: a row replayed from the cache may have been executed for
    another tree of the same content.  The labels are mapped once per query.
    """
    if not rows:
        return
    keys = [column_mapping.get(label, label) for label in query.answer_cells(catalog)]
    padding = dict.fromkeys(column for column in unified_columns if column not in keys)
    cost, query_id = query.cost, query.provenance or "query"
    for cells, base_tuples in rows:
        values = dict(zip(keys, cells))
        values.update(padding)
        yield AnswerTuple(values=values, cost=cost, provenance=TupleProvenance(query_id, cost, base_tuples))


def _align_columns(
    query: ConjunctiveQuery,
    unified_columns: List[str],
    compatible: Callable[[str, str], bool],
) -> Dict[str, str]:
    """Label remapping of ``query`` onto the unified schema (seed semantics).

    Mutates ``unified_columns`` in place, appending new columns as needed.
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
