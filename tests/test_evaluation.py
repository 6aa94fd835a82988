"""Unit tests for the evaluation metrics (precision/recall, PR curves, cost gaps)."""

from __future__ import annotations

import pytest

from repro.core.evaluation import (
    GoldStandard,
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
from repro.graph import SearchGraph
from repro.matching import AttributeRef, Correspondence


@pytest.fixture()
def gold() -> GoldStandard:
    return GoldStandard.from_pairs(
        [("a.r.x", "b.s.y"), ("a.r.z", "c.t.w")]
    )


def corr(a, b, confidence, matcher="m"):
    rel_a, attr_a = a.rsplit(".", 1)
    rel_b, attr_b = b.rsplit(".", 1)
    return Correspondence(AttributeRef(rel_a, attr_a), AttributeRef(rel_b, attr_b), confidence, matcher)


class TestPrecisionRecall:
    def test_make_pair_canonical(self):
        assert make_pair("b", "a") == ("a", "b") == make_pair("a", "b")

    def test_score_basic(self, gold):
        pr = gold.score([("a.r.x", "b.s.y"), ("a.r.x", "zz.q.q")])
        assert pr.precision == 0.5
        assert pr.recall == 0.5
        assert pr.f_measure == pytest.approx(0.5)

    def test_score_empty_prediction(self, gold):
        pr = gold.score([])
        assert pr.precision == 0.0 and pr.recall == 0.0 and pr.f_measure == 0.0

    def test_score_perfect(self, gold):
        pr = gold.score(gold.pairs)
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_percentages(self):
        pr = PrecisionRecall(precision=2 / 3, recall=0.5)
        assert pr.as_percentages() == (66.67, 50.0, 57.14)

    def test_membership_and_len(self, gold):
        assert make_pair("b.s.y", "a.r.x") in gold
        assert len(gold) == 2


class TestEvaluateTopY:
    def test_top_y_filters_low_rank_pairs(self, gold):
        corrs = [
            corr("a.r.x", "b.s.y", 0.9),
            corr("a.r.x", "zz.q.q", 0.2),
            corr("a.r.z", "c.t.w", 0.8),
        ]
        pr1 = evaluate_top_y(corrs, gold, 1)
        assert pr1.recall == 1.0
        # the zz.q.q pair survives Y=1 because it is zz.q.q's own best match
        assert pr1.precision == pytest.approx(2 / 3)
        pr2 = evaluate_top_y(corrs, gold, 2)
        assert pr2.precision < 1.0
        assert correspondence_pairs(corrs) >= gold.pairs


class TestConfidenceCurve:
    def test_monotone_recall_as_threshold_drops(self, gold):
        corrs = [
            corr("a.r.x", "b.s.y", 0.9),
            corr("a.r.z", "c.t.w", 0.6),
            corr("a.r.x", "zz.q.q", 0.4),
        ]
        points = confidence_precision_recall_curve(corrs, gold)
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls)
        assert max_precision_at_recall(points, 1.0) == 1.0
        assert max_precision_at_recall(points, 2.0) == 0.0


class TestGraphBasedMetrics:
    @pytest.fixture()
    def graph_with_edges(self) -> SearchGraph:
        graph = SearchGraph()
        graph.add_association("a.r", "x", "b.s", "y", {"m": 0.9})   # gold
        graph.add_association("a.r", "z", "c.t", "w", {"m": 0.8})   # gold
        graph.add_association("a.r", "x", "d.u", "v", {"m": 0.2})   # non-gold
        return graph

    def test_edge_attribute_pair(self, graph_with_edges):
        edge = graph_with_edges.association_edges()[0]
        assert edge_attribute_pair(graph_with_edges, edge) == ("a.r.x", "b.s.y")

    def test_precision_recall_curve_over_costs(self, graph_with_edges, gold):
        points = precision_recall_curve(graph_with_edges, gold)
        assert points, "curve should have at least one point"
        # With every edge admitted, recall reaches 1.0.
        assert points[-1].recall == 1.0
        # The cheapest edges are the gold ones (higher confidence -> lower cost),
        # so precision is 1.0 at the strictest threshold.
        assert points[0].precision == 1.0

    def test_gold_vs_nongold_costs(self, graph_with_edges, gold):
        gap = gold_vs_nongold_costs(graph_with_edges, gold)
        assert gap.gold_average < gap.non_gold_average
        assert gap.gap > 0

    def test_gold_vs_nongold_empty_graph(self, gold):
        gap = gold_vs_nongold_costs(SearchGraph(), gold)
        assert gap.gold_average == 0.0 and gap.non_gold_average == 0.0
