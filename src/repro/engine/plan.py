"""Query planning: selection pushdown and greedy join ordering.

The seed executor joined atoms strictly in the order they appeared in the
query, filtering each atom's table by re-evaluating raw predicates per row.
The planner turns a :class:`~repro.datastore.query.ConjunctiveQuery` into an
explicit :class:`QueryPlan` instead:

* selections are compiled once (:mod:`repro.engine.predicates`) and pushed
  down into the scan of their atom, where they are answered straight from
  a value index;
* the join order is chosen greedily by estimated cardinality — start from
  the smallest filtered atom, then repeatedly attach the smallest atom
  reachable through a join predicate (falling back to a cross product only
  when the query's join graph is disconnected);
* each step records the equi-join predicates linking it to already-planned
  aliases, which the executor turns into one composite-key hash join backed
  by a cached join index.

Plans are pure descriptions — building one performs no data access beyond
the (cached) scans used for cardinality estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..datastore.query import ConjunctiveQuery, JoinPredicate
from .context import ExecutionContext
from .predicates import CompiledPredicate, compile_predicates


@dataclass(frozen=True)
class PlannedJoin:
    """One equi-join condition of a plan step.

    ``left`` refers to an alias bound by an earlier step; ``right_attribute``
    lives on the step's own alias.
    """

    left_alias: str
    left_attribute: str
    right_attribute: str


@dataclass
class PlanStep:
    """Scan one atom and hash-join it against the partial results so far."""

    alias: str
    relation: str
    predicates: List[CompiledPredicate] = field(default_factory=list)
    joins: List[PlannedJoin] = field(default_factory=list)
    estimated_rows: int = 0

    @property
    def is_cross_product(self) -> bool:
        """Whether this step has no join linking it to earlier steps."""
        return not self.joins

    def join_key_attributes(self) -> Tuple[str, ...]:
        """The step-side attributes of the composite join key, in join order."""
        return tuple(join.right_attribute for join in self.joins)


@dataclass
class QueryPlan:
    """An ordered sequence of scan+join steps for one conjunctive query."""

    query: ConjunctiveQuery
    steps: List[PlanStep]

    def explain(self) -> str:
        """Human-readable plan, one line per step (for tests and debugging)."""
        lines = []
        for i, step in enumerate(self.steps):
            op = "scan" if i == 0 else ("cross" if step.is_cross_product else "hash_join")
            conds = ", ".join(
                f"{j.left_alias}.{j.left_attribute}={step.alias}.{j.right_attribute}"
                for j in step.joins
            )
            sels = ", ".join(f"{p.attribute} = {p.value!r}" for p in step.predicates)
            parts = [part for part in (conds, f"select[{sels}]" if sels else "") if part]
            detail = "; ".join(parts)
            lines.append(f"{op} {step.relation} AS {step.alias} (~{step.estimated_rows} rows)"
                         + (f" [{detail}]" if detail else ""))
        return "\n".join(lines)


class QueryPlanner:
    """Compiles conjunctive queries into :class:`QueryPlan` objects."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context

    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        """Choose a join order for ``query`` by greedy cardinality."""
        query.validate()
        compiled = compile_predicates(query.selections)
        predicates_by_alias: Dict[str, List[CompiledPredicate]] = {}
        for predicate in compiled:
            predicates_by_alias.setdefault(predicate.alias, []).append(predicate)

        # Exact filtered cardinalities; scans are cached so this work is
        # reused by the executor.
        cardinality: Dict[str, int] = {}
        relation_of: Dict[str, str] = {}
        for atom in query.atoms:
            relation_of[atom.alias] = atom.relation
            cardinality[atom.alias] = self.context.estimated_cardinality(
                atom.relation, predicates_by_alias.get(atom.alias, ())
            )

        # Self-joins on a single alias are never applied by the executor
        # (the seed executor had the same semantics); drop them here.
        joins = [j for j in query.joins if j.left_alias != j.right_alias]
        atom_order = {atom.alias: i for i, atom in enumerate(query.atoms)}

        remaining: List[str] = [atom.alias for atom in query.atoms]
        bound: Set[str] = set()
        steps: List[PlanStep] = []
        while remaining:
            connected = [
                alias
                for alias in remaining
                if any(
                    (j.left_alias == alias and j.right_alias in bound)
                    or (j.right_alias == alias and j.left_alias in bound)
                    for j in joins
                )
            ]
            pool = connected if connected else remaining
            # Greedy: smallest filtered cardinality first; ties break on the
            # query's original atom order for determinism.
            alias = min(pool, key=lambda a: (cardinality[a], atom_order[a]))
            steps.append(
                PlanStep(
                    alias=alias,
                    relation=relation_of[alias],
                    predicates=predicates_by_alias.get(alias, []),
                    joins=self._joins_for(alias, bound, joins),
                    estimated_rows=cardinality[alias],
                )
            )
            bound.add(alias)
            remaining.remove(alias)
        return QueryPlan(query=query, steps=steps)

    @staticmethod
    def _joins_for(alias: str, bound: Set[str], joins: Sequence[JoinPredicate]) -> List[PlannedJoin]:
        """Every join predicate linking ``alias`` to an already-bound alias.

        Duplicated join predicates are kept (they and-together exactly as in
        the seed executor); orientation is normalized so the bound side is
        on the left.
        """
        planned: List[PlannedJoin] = []
        for join in joins:
            if join.left_alias == alias and join.right_alias in bound:
                planned.append(
                    PlannedJoin(join.right_alias, join.right_attribute, join.left_attribute)
                )
            elif join.right_alias == alias and join.left_alias in bound:
                planned.append(
                    PlannedJoin(join.left_alias, join.left_attribute, join.right_attribute)
                )
        return planned
