"""Evaluation metrics for schema alignments (paper Section 5.2).

Alignment quality is measured against a *gold standard* set of attribute
pairs (the 8 semantically meaningful join/alignment edges of Figure 9):

* precision / recall / F-measure of the top-Y alignment edges per attribute
  (Table 1);
* precision–recall curves obtained by sweeping a cost threshold over the
  search graph's association edges (Figures 10 and 11);
* average gold vs non-gold edge cost (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.edges import Edge
from ..graph.nodes import NodeKind
from ..graph.search_graph import SearchGraph
from ..matching.base import Correspondence

#: An undirected attribute pair: both members are "<relation>.<attribute>".
AttributePair = Tuple[str, str]


def make_pair(attribute_a: str, attribute_b: str) -> AttributePair:
    """Canonical (sorted) form of an undirected attribute pair."""
    return (attribute_a, attribute_b) if attribute_a <= attribute_b else (attribute_b, attribute_a)


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision, recall and F-measure of a predicted pair set."""

    precision: float
    recall: float

    @property
    def f_measure(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)

    def as_percentages(self) -> Tuple[float, float, float]:
        """(precision, recall, F) as percentages rounded to 2 decimals."""
        return (
            round(self.precision * 100, 2),
            round(self.recall * 100, 2),
            round(self.f_measure * 100, 2),
        )


@dataclass
class GoldStandard:
    """The reference alignment edges."""

    pairs: Set[AttributePair] = field(default_factory=set)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, str]]) -> "GoldStandard":
        """Build a gold standard from (attribute, attribute) string pairs."""
        return cls(pairs={make_pair(a, b) for a, b in pairs})

    def __contains__(self, pair: object) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, predicted: Iterable[AttributePair]) -> PrecisionRecall:
        """Precision/recall of a predicted set of attribute pairs."""
        predicted_set = {make_pair(a, b) for a, b in predicted}
        if not predicted_set:
            return PrecisionRecall(precision=0.0 if self.pairs else 1.0, recall=0.0 if self.pairs else 1.0)
        true_positives = len(predicted_set & self.pairs)
        precision = true_positives / len(predicted_set)
        recall = true_positives / len(self.pairs) if self.pairs else 1.0
        return PrecisionRecall(precision=precision, recall=recall)


def edge_attribute_pair(graph: SearchGraph, edge: Edge) -> Optional[AttributePair]:
    """The attribute pair an association edge connects, if both ends are attributes."""
    node_u = graph.node(edge.u)
    node_v = graph.node(edge.v)
    if node_u.kind is not NodeKind.ATTRIBUTE or node_v.kind is not NodeKind.ATTRIBUTE:
        return None
    qualified_u = f"{node_u.relation}.{node_u.attribute}"
    qualified_v = f"{node_v.relation}.{node_v.attribute}"
    return make_pair(qualified_u, qualified_v)


def correspondence_pairs(correspondences: Iterable[Correspondence]) -> Set[AttributePair]:
    """The set of attribute pairs proposed by a list of correspondences."""
    return {c.key() for c in correspondences}


# ----------------------------------------------------------------------
# Table 1: top-Y evaluation of a single matcher's output
# ----------------------------------------------------------------------
def evaluate_top_y(
    correspondences: Sequence[Correspondence],
    gold: GoldStandard,
    y: int,
) -> PrecisionRecall:
    """Evaluate the top-Y correspondences per attribute against the gold standard."""
    from ..matching.base import top_y_per_attribute

    retained = top_y_per_attribute(correspondences, y)
    return gold.score(correspondence_pairs(retained))


# ----------------------------------------------------------------------
# Figures 10/11: precision-recall curves by cost-threshold sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrCurvePoint:
    """One point of a precision-recall curve."""

    threshold: float
    precision: float
    recall: float


def association_edge_costs(graph: SearchGraph) -> List[Tuple[Edge, float, Optional[AttributePair]]]:
    """All association edges with their current cost and attribute pair."""
    result = []
    for edge in graph.association_edges():
        result.append((edge, graph.edge_cost(edge), edge_attribute_pair(graph, edge)))
    return result


def precision_recall_curve(
    graph: SearchGraph,
    gold: GoldStandard,
    thresholds: Optional[Sequence[float]] = None,
) -> List[PrCurvePoint]:
    """Sweep a cost threshold over the association edges (lower cost = better).

    For each threshold, the predicted alignment set is every association
    edge with cost ≤ threshold; precision and recall are computed against
    the gold standard.  When ``thresholds`` is omitted, every distinct edge
    cost is used as a threshold, yielding the full curve.
    """
    scored = association_edge_costs(graph)
    if thresholds is None:
        thresholds = sorted({round(cost, 9) for _, cost, _ in scored})
    points: List[PrCurvePoint] = []
    for threshold in thresholds:
        predicted = {
            pair
            for _, cost, pair in scored
            if pair is not None and cost <= threshold
        }
        pr = gold.score(predicted)
        points.append(
            PrCurvePoint(threshold=threshold, precision=pr.precision, recall=pr.recall)
        )
    return points


def confidence_precision_recall_curve(
    correspondences: Sequence[Correspondence],
    gold: GoldStandard,
    thresholds: Optional[Sequence[float]] = None,
) -> List[PrCurvePoint]:
    """PR curve for raw matcher output, sweeping a *confidence* threshold.

    Higher confidence = better, so the predicted set at each threshold is
    every correspondence with confidence ≥ threshold.
    """
    if thresholds is None:
        thresholds = sorted({round(c.confidence, 9) for c in correspondences}, reverse=True)
    points: List[PrCurvePoint] = []
    for threshold in thresholds:
        predicted = {c.key() for c in correspondences if c.confidence >= threshold}
        pr = gold.score(predicted)
        points.append(
            PrCurvePoint(threshold=threshold, precision=pr.precision, recall=pr.recall)
        )
    return points


def max_precision_at_recall(
    points: Sequence[PrCurvePoint], recall_level: float
) -> float:
    """Best precision achieved at recall ≥ ``recall_level`` (0 if unreachable)."""
    eligible = [p.precision for p in points if p.recall >= recall_level - 1e-9]
    return max(eligible) if eligible else 0.0


# ----------------------------------------------------------------------
# Figure 12: average gold vs non-gold edge cost
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeCostGap:
    """Average association edge cost, split by gold membership."""

    gold_average: float
    non_gold_average: float

    @property
    def gap(self) -> float:
        """``non_gold_average - gold_average`` (positive means gold edges are cheaper)."""
        return self.non_gold_average - self.gold_average


def gold_vs_nongold_costs(graph: SearchGraph, gold: GoldStandard) -> EdgeCostGap:
    """Average cost of gold vs non-gold association edges in the graph."""
    gold_costs: List[float] = []
    non_gold_costs: List[float] = []
    for edge, cost, pair in association_edge_costs(graph):
        if pair is None:
            continue
        if pair in gold.pairs:
            gold_costs.append(cost)
        else:
            non_gold_costs.append(cost)
    gold_avg = sum(gold_costs) / len(gold_costs) if gold_costs else 0.0
    non_gold_avg = sum(non_gold_costs) / len(non_gold_costs) if non_gold_costs else 0.0
    return EdgeCostGap(gold_average=gold_avg, non_gold_average=non_gold_avg)
