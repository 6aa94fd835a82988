"""Plan execution: indexed hash joins and the ranked disjoint union.

:class:`PlanExecutor` is the operator layer of the engine.  It executes the
:class:`~repro.engine.plan.QueryPlan` produced by the planner with composite
-key hash joins whose build sides come from the shared
:class:`~repro.engine.context.ExecutionContext` (built once, replayed across
the k queries of a view refresh), and combines per-query outputs with the
same ranked disjoint-union semantics as the seed executor (the nested-loop
reference the tests keep as ``tests/reference_executor.py``).

Parity guarantee
----------------
For any query, :meth:`PlanExecutor.execute` returns exactly the answers the
seed executor returns — same values (and value order within each answer),
same costs, same provenance, and same *list order*: answers are emitted in
ascending base-tuple ``row_id`` order following the query's atom list, which
is precisely the order the seed's left-to-right nested iteration produces.
Join reordering therefore never leaks into observable output.

One carve-out: the 100 000-partial safety valve (active only when a
``limit`` is given *and* an intermediate join explodes past the cap)
truncates in the engine's join order, so in that pathological regime the
surviving subset may differ from the seed's — both are arbitrary
truncations of a cross-product blow-up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..datastore.database import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.budget import Budget
from ..datastore.provenance import AnswerTuple, TupleProvenance
from ..datastore.query import ConjunctiveQuery
from ..datastore.table import Row
from ..datastore.types import canonicalize
from ..obs.tracing import active_trace
from .context import SQL, ExecutionContext
from .plan import PlanStep, QueryPlan, QueryPlanner

#: Same pathological-cross-product valve as the seed executor.
PARTIAL_RESULT_CAP = 100000


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
        self,
        query: ConjunctiveQuery,
        limit: Optional[int] = None,
        budget: "Optional[Budget]" = None,
    ) -> List[AnswerTuple]:
        """Execute one conjunctive query; answers carry provenance.

        When :meth:`~repro.engine.context.ExecutionContext.choose_target`
        picks the SQL target, the whole query runs inside the backend (same
        answers, costs, provenance and order — see
        :mod:`repro.storage.pushdown`); otherwise the planned Python join
        engine below executes it, with per-relation scan pushdown still
        applying where the backend offers it.

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
        target, reason = context.choose_target(query, limit=limit, budget=budget)
        if target == SQL:
            answers = context.pushdown.execute(self.catalog, query)
            context.statistics.pushdown_queries += 1
            trace.tally("queries_pushdown")
            return answers
        trace.annotate_once("fallback_reason", reason)
        trace.tally("queries_python")
        plan = self.planner.plan(query)
        partials = self._run_plan(plan, limit, budget=budget)
        if not partials:
            return []
        # Canonical output order: ascending row ids along the query's atom
        # list.  This both makes execution order-independent of the chosen
        # join order and reproduces the seed executor's emission order.
        position = {step.alias: i for i, step in enumerate(plan.steps)}
        atom_positions = [position[atom.alias] for atom in query.atoms]
        partials.sort(key=lambda rows: tuple(rows[i].row_id for i in atom_positions))
        answers = [self._to_answer(query, position, partial) for partial in partials]
        if limit is not None:
            answers = answers[:limit]
        return answers

    def _run_plan(
        self,
        plan: QueryPlan,
        limit: Optional[int],
        budget: "Optional[Budget]" = None,
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
            if limit is not None and len(partials) > PARTIAL_RESULT_CAP:
                partials = partials[:PARTIAL_RESULT_CAP]
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

    def _to_answer(
        self, query: ConjunctiveQuery, position: Dict[str, int], partial: Tuple[Row, ...]
    ) -> AnswerTuple:
        outputs = query.outputs
        if not outputs:
            values: Dict[str, Optional[object]] = {}
            for atom in query.atoms:
                row = partial[position[atom.alias]]
                for attr, value in zip(row.schema.attribute_names, row.values):
                    values[f"{atom.alias}.{attr}"] = value
        else:
            values = {}
            for column in outputs:
                row = partial[position[column.alias]]
                values[column.label] = row[column.attribute]
        base_tuples = frozenset(
            (atom.relation, partial[position[atom.alias]].row_id) for atom in query.atoms
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
        """Execute and union several queries (seed ``execute_union`` semantics)."""
        pairs = [(query, self.execute(query)) for query in sorted(queries, key=lambda q: q.cost)]
        return ranked_union(pairs, compatible=compatible, limit=limit)


def union_column_plan(
    queries: Sequence[ConjunctiveQuery],
    compatible: Optional[Callable[[str, str], bool]] = None,
) -> Tuple[List[str], List[Dict[str, str]]]:
    """The unified schema of a ranked union, computable *before* execution.

    ``queries`` must be in the union's ranked (ascending-cost) order.
    Returns ``(unified_columns, mappings)`` where ``mappings[i]`` remaps the
    ``i``-th query's output labels onto the unified columns.  Only the
    queries' output labels are consulted, so streaming consumers (the lazy
    :meth:`~repro.core.view.RankedView.stream_answers` path) can pad every
    answer with the full column set without executing later queries first.
    """
    if compatible is None:
        compatible = default_column_compatibility
    unified_columns: List[str] = []
    mappings = [_align_columns(query, unified_columns, compatible) for query in queries]
    return unified_columns, mappings


def project_answer(
    answer: AnswerTuple,
    query: ConjunctiveQuery,
    column_mapping: Dict[str, str],
    unified_columns: Sequence[str],
) -> AnswerTuple:
    """One answer remapped onto the unified schema, padded and stamped by its reader.

    The single implementation of the union's per-answer projection, shared
    by :func:`ranked_union` and the streaming read path
    (:meth:`~repro.core.view.RankedView.stream_answers`) — their answer
    parity depends on the remap / pad / stamp semantics staying identical.
    A replayed answer may come from another tree cost or another query of
    the same content, so the provenance takes ``query``'s cost and id.  The
    input answer is never mutated.
    """
    values: Dict[str, Optional[object]] = {}
    for label, value in answer.values.items():
        values[column_mapping.get(label, label)] = value
    for column in unified_columns:
        values.setdefault(column, None)
    provenance = answer.provenance
    query_id = query.provenance or "query"
    if provenance is not None and (provenance.query_cost != query.cost or provenance.query_id != query_id):
        provenance = TupleProvenance(query_id, query.cost, provenance.base_tuples, provenance.tree_edges)
    return AnswerTuple(values=values, cost=query.cost, provenance=provenance)


def ranked_union(
    pairs: Sequence[Tuple[ConjunctiveQuery, Sequence[AnswerTuple]]],
    compatible: Optional[Callable[[str, str], bool]] = None,
    limit: Optional[int] = None,
) -> List[AnswerTuple]:
    """Align per-query answers onto a unified schema and rank by cost.

    Takes pre-executed ``(query, answers)`` pairs so callers holding cached
    answers (the incremental view refresh) can re-union without re-executing.
    Input answers are never mutated — fresh :class:`AnswerTuple` objects are
    returned, priced at the query's *current* cost (a cached answer may have
    been executed under an older tree cost; feedback moves costs without
    changing which tuples join, so only the price is re-stamped).

    Ranking is a k-way merge, not a sort: ``ordered`` ascends by query cost
    and :func:`project_answer` prices every answer of a query at exactly
    that query's cost, so each per-query block is a cost-homogeneous sorted
    run and the ascending-cost concatenation of the blocks *is* the merge
    of the k runs — the global ``sort`` this replaced re-derived the same
    order in O(n log n).  Tie order is identical to the former stable
    sort's: equal-cost answers keep query order (stable ``sorted`` over the
    pairs), then per-query emission order.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0].cost)
    unified_columns, mappings = union_column_plan([q for q, _ in ordered], compatible)
    all_answers = [
        project_answer(answer, query, column_mapping, unified_columns)
        for (query, answers), column_mapping in zip(ordered, mappings)
        for answer in answers
    ]
    if limit is not None:
        all_answers = all_answers[:limit]
    return all_answers


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
