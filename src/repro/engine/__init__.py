"""Planned, indexed query execution engine.

The one executor of conjunctive queries and ranked unions: an explicit
compile/plan/execute pipeline with two lowering targets per query, Python
operators (this package) or rendered SQL (:mod:`repro.storage.pushdown`),
which return the same rows; the ranked union over the queries' rows is
Python on every backend:

* :mod:`repro.engine.predicates` — selection predicates compiled once per
  query (canonical value, lowered needle, token set precomputed);
* :mod:`repro.engine.plan` — :class:`QueryPlanner` chooses a join order
  greedily by filtered cardinality, with selections pushed into the scans;
* :mod:`repro.engine.context` — :class:`ExecutionContext` is a session's
  one cache of query rows (keyed by query content), filtered scans and
  per-attribute hash join indexes.  Staleness is each table's identity and
  version; nothing invalidates it.  It also holds the one capability check
  (:meth:`ExecutionContext.choose_target`) that picks each query's target;
* :mod:`repro.engine.executor` — :class:`PlanExecutor` runs plans with
  composite-key hash joins and returns each query's rows: cell values and
  provenance, in the seed executor's order.  :func:`ranked_union` is the
  lazy merge every read runs: it asks for each query's rows in cost order
  and builds the answers the reader sees, on the unified columns and
  stamped with the reader's cost and query id, which is what lets a view
  replay rows another reader executed.  It reproduces the seed executor's
  output exactly (values, costs, provenance and order).

The seed's left-to-right nested-loop executor survives as the reference
oracle of the parity tests (``tests/reference_executor.py``).
"""

from .context import ContextStatistics, ExecutionContext
from .executor import (
    PlanExecutor,
    default_column_compatibility,
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
    "ranked_union",
    "union_column_plan",
]
