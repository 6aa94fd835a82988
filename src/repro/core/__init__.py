"""The Q system core: views, query generation and evaluation.

Public API
----------
* :class:`RankedView`, :class:`ViewState` — persistent keyword views.
* :class:`QueryGenerator`, :class:`GeneratedQuery`, :func:`tree_signature` —
  Steiner tree → conjunctive query translation.
* :class:`GoldStandard`, :class:`PrecisionRecall`, evaluation helpers — the
  Section 5.2 metrics.
"""

from .evaluation import (
    EdgeCostGap,
    GoldStandard,
    PrCurvePoint,
    PrecisionRecall,
    confidence_precision_recall_curve,
    correspondence_pairs,
    edge_attribute_pair,
    evaluate_top_y,
    gold_vs_nongold_costs,
    make_pair,
    max_precision_at_recall,
    precision_recall_curve,
)
from .query_generation import GeneratedQuery, QueryGenerator, tree_signature
from .simulated_feedback import (
    gold_restricted_graph,
    gold_target_tree,
    simulated_feedback_for_view,
)
from .view import RankedView, ViewState

__all__ = [
    "EdgeCostGap",
    "GeneratedQuery",
    "GoldStandard",
    "PrCurvePoint",
    "PrecisionRecall",
    "QueryGenerator",
    "RankedView",
    "ViewState",
    "confidence_precision_recall_curve",
    "correspondence_pairs",
    "edge_attribute_pair",
    "evaluate_top_y",
    "gold_restricted_graph",
    "gold_target_tree",
    "gold_vs_nongold_costs",
    "make_pair",
    "max_precision_at_recall",
    "precision_recall_curve",
    "simulated_feedback_for_view",
    "tree_signature",
]
