"""Windowed ranked-union pushdown: a whole top-k view read in one SELECT.

The single-branch :class:`~repro.storage.pushdown.SqlPushdown` runs *one*
conjunctive query inside the backend; served that way, a ranked view would
issue k round trips and rank, align and paginate tuple-by-tuple in Python.
This module compiles the entire ranked union — per-query cost pricing,
ascending-cost ordering, unified column projection and ``LIMIT``/``OFFSET``
k-best pagination — into **one** parameterized windowed ``SELECT``:

* every generated query becomes one branch of a ``UNION ALL``, rendered
  and decoded by the same :class:`~repro.storage.pushdown.BranchPlan` the
  single-query shape uses, so join/selection semantics and row decoding
  are shared, not re-derived;
* each branch prices its rows with a bound ``?  AS "_cost"`` parameter (the
  tree cost round-trips exactly as an IEEE double) and numbers them with
  ``ROW_NUMBER() OVER (ORDER BY <row ids along the atom list>) AS "_seq"``
  — precisely the deterministic emission order of the Python engine;
* the outer query ranks the union with ``ROW_NUMBER() OVER (ORDER BY
  "_cost", "_branch", "_seq") AS "_rank"`` and paginates with ``LIMIT ?
  OFFSET ?`` (``-1`` meaning unlimited, as SQLite requires a LIMIT clause
  to accept OFFSET).

Parity with :func:`~repro.engine.executor.ranked_union` is structural:
queries enter in ascending-cost order (Python's *stable* sort), so
``("_cost", "_branch", "_seq")`` reproduces the stable sort's tie order —
equal-cost answers keep query order, then per-query emission order.

Two fetch shapes share the branch compiler:

* :meth:`WindowedUnionPushdown.fetch_raw` — the cache-priming batch read:
  per-branch *raw* answers (the query's own output labels), byte-identical
  to :class:`~repro.storage.pushdown.SqlPushdown` running each query
  separately, but in a single round trip.  The view uses it to fill its
  per-signature answer cache on a cold refresh.
* :meth:`WindowedUnionPushdown.execute_ranked` — the ranked, paginated
  read: the union's unified columns are projected per branch (``NULL`` for
  columns a branch does not populate) and the window/LIMIT/OFFSET run in
  the backend.  The view's :meth:`~repro.core.view.RankedView.answers_page`
  serves straight from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..datastore.provenance import AnswerTuple
from .pushdown import BranchPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datastore.database import Catalog
    from ..datastore.query import ConjunctiveQuery


class WindowedUnionPushdown:
    """Compiles and runs whole ranked unions on a window-capable backend."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def _compile_branches(
        self,
        plans: Sequence[BranchPlan],
        params: List[object],
        with_cost: bool,
        cell_exprs: Sequence[Sequence[str]],
    ) -> Tuple[List[str], int]:
        """Render every branch SELECT; returns (branch SQL, max atom count).

        ``cell_exprs[i]`` lists the ``i``-th branch's projected cells — the
        raw shape projects one per output column, the ranked shape one per
        unified column — ``NULL``-padded here to the widest branch.
        """
        max_atoms = max(len(plan.relations) for plan in plans)
        cell_count = max(len(exprs) for exprs in cell_exprs)
        branches: List[str] = []
        for index, (plan, exprs) in enumerate(zip(plans, cell_exprs)):
            head: List[str] = []
            if with_cost:
                # The cost parameter precedes this branch's selection
                # needles — the order they appear in the SQL text.
                params.append(plan.query.cost)
                head.append('? AS "_cost"')
            head.append(f'{index} AS "_branch"')
            head.append(f'ROW_NUMBER() OVER (ORDER BY {plan.row_id_order()}) AS "_seq"')
            padded = list(exprs) + ["NULL"] * (cell_count - len(exprs))
            branches.append(plan.render(self.backend, params, head, padded, max_atoms))
        return branches, max_atoms

    # ------------------------------------------------------------------
    # Raw batch fetch (cache priming)
    # ------------------------------------------------------------------
    def compile_raw(
        self, catalog: "Catalog", queries: Sequence["ConjunctiveQuery"]
    ) -> Tuple[str, List[object], List[BranchPlan], int]:
        """The single-round-trip batch SELECT for raw per-query answers."""
        params: List[object] = []
        plans = [BranchPlan(self.backend, catalog, query) for query in queries]
        branches, max_atoms = self._compile_branches(
            plans,
            params,
            with_cost=False,
            cell_exprs=[[expr for _, expr, _, _ in plan.cells] for plan in plans],
        )
        sql = "\nUNION ALL\n".join(branches)
        sql += '\nORDER BY "_branch", "_seq"'
        return sql, params, plans, max_atoms

    def fetch_raw(
        self, catalog: "Catalog", queries: Sequence["ConjunctiveQuery"]
    ) -> List[List[AnswerTuple]]:
        """Raw answers of every query, in one backend round trip.

        ``result[i]`` is byte-identical — values (and their order inside
        each answer), cost, provenance, list order — to executing
        ``queries[i]`` alone through
        :class:`~repro.storage.pushdown.SqlPushdown`.
        """
        sql, params, plans, max_atoms = self.compile_raw(catalog, queries)
        results: List[List[AnswerTuple]] = [[] for _ in plans]
        base = 2  # layout: _branch, _seq, then rid/tag slots, then cells
        cell_base = base + 2 * max_atoms
        for record in self.backend.execute_sql(sql, params):
            results[record[0]].append(plans[record[0]].answer(record, base, cell_base))
        return results

    # ------------------------------------------------------------------
    # Ranked, paginated fetch
    # ------------------------------------------------------------------
    def compile_ranked(
        self,
        catalog: "Catalog",
        queries: Sequence["ConjunctiveQuery"],
        unified_columns: Sequence[str],
        mappings: Sequence[Dict[str, str]],
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Tuple[str, List[object], List[BranchPlan], int]:
        """The windowed, paginated ranked-union SELECT.

        ``queries`` must already be in the union's ascending-cost order and
        ``mappings[i]`` must be the ``i``-th query's label remapping, both
        as produced by :func:`~repro.engine.executor.union_column_plan`.
        """
        params: List[object] = []
        plans = [BranchPlan(self.backend, catalog, query) for query in queries]
        unified_slots = {column: i for i, column in enumerate(unified_columns)}
        cell_exprs: List[List[str]] = []
        for plan, mapping in zip(plans, mappings):
            # One cell per unified column; a later output with the same
            # unified target overwrites an earlier one — the same last-wins
            # rule project_answer applies to duplicate labels.
            per_slot: Dict[int, Tuple[str, int, int]] = {}
            for label, expr, atom_pos, attr_index in plan.cells:
                per_slot[unified_slots[mapping.get(label, label)]] = (
                    expr,
                    atom_pos,
                    attr_index,
                )
            cell_exprs.append(
                [
                    per_slot[slot][0] if slot in per_slot else "NULL"
                    for slot in range(len(unified_columns))
                ]
            )
            # Key order parity with project_answer: the query's own labels
            # in first-occurrence output order (mapped onto their unified
            # columns), then the remaining unified columns padded with None.
            plan.layout = []
            for label, *_ in plan.cells:
                unified = mapping.get(label, label)
                slot = unified_slots[unified]
                plan.layout.append((unified, slot, *per_slot[slot][1:]))
            plan.pad = unified_columns
        branches, max_atoms = self._compile_branches(
            plans, params, with_cost=True, cell_exprs=cell_exprs
        )
        union_sql = "\nUNION ALL\n".join(branches)
        sql = (
            "SELECT *, ROW_NUMBER() OVER "
            '(ORDER BY "_cost", "_branch", "_seq") AS "_rank"\n'
            f"FROM (\n{union_sql}\n)\n"
            'ORDER BY "_rank"\nLIMIT ? OFFSET ?'
        )
        params.append(-1 if limit is None else limit)
        params.append(offset)
        return sql, params, plans, max_atoms

    def execute_ranked(
        self,
        catalog: "Catalog",
        queries: Sequence["ConjunctiveQuery"],
        unified_columns: Sequence[str],
        mappings: Sequence[Dict[str, str]],
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[AnswerTuple]:
        """One page of the ranked union, ordered and paginated in-backend.

        The result is byte-identical to the corresponding slice of
        :func:`~repro.engine.executor.ranked_union` over the same queries:
        same unified values (and key order inside each answer), costs,
        provenance and list order.
        """
        sql, params, plans, max_atoms = self.compile_ranked(
            catalog, queries, unified_columns, mappings, limit, offset
        )
        base = 3  # layout: _cost, _branch, _seq, rid/tag slots, cells, _rank
        cell_base = base + 2 * max_atoms
        return [
            plans[record[1]].answer(record, base, cell_base)
            for record in self.backend.execute_sql(sql, params)
        ]
