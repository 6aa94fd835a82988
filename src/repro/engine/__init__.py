"""Planned, indexed query execution engine.

The one executor of conjunctive queries and ranked unions: an explicit
compile/plan/execute pipeline with two lowering targets per query, Python
operators (this package) or rendered SQL (:mod:`repro.storage.pushdown`);
the ranked union over the queries' answers is Python on every backend:

* :mod:`repro.engine.predicates` — selection predicates compiled once per
  query (canonical value, lowered needle, token set precomputed);
* :mod:`repro.engine.plan` — :class:`QueryPlanner` chooses a join order
  greedily by filtered cardinality, with selections pushed into the scans;
* :mod:`repro.engine.context` — :class:`ExecutionContext` is a session's
  one cache of query answers (keyed by query content), filtered scans and
  per-attribute hash join indexes.  Staleness is each table's identity and
  version; nothing invalidates it.  It also holds the one capability check
  (:meth:`ExecutionContext.choose_target`) that picks each query's target;
* :mod:`repro.engine.executor` — :class:`PlanExecutor` runs plans with
  composite-key hash joins and reproduces the seed executor's output
  exactly (values, costs, provenance and order); :func:`ranked_union`
  aligns pre-executed per-query answers, and :func:`project_answer` stamps
  each with its reader's cost and query id, which is what lets a view
  replay answers another reader executed.

The seed's left-to-right nested-loop executor survives as the reference
oracle of the parity tests (``tests/reference_executor.py``).
"""

from .context import ContextStatistics, ExecutionContext
from .executor import (
    PlanExecutor,
    default_column_compatibility,
    project_answer,
    ranked_union,
    union_column_plan,
)
from .plan import PlannedJoin, PlanStep, QueryPlan, QueryPlanner
from .predicates import CompiledPredicate, compile_predicates

__all__ = [
    "CompiledPredicate",
    "ContextStatistics",
    "ExecutionContext",
    "PlanExecutor",
    "PlanStep",
    "PlannedJoin",
    "QueryPlan",
    "QueryPlanner",
    "compile_predicates",
    "default_column_compatibility",
    "project_answer",
    "ranked_union",
    "union_column_plan",
]
