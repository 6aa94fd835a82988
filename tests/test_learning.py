"""Unit tests for feedback generalization, the tree loss, Hildreth QP and MIRA."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_hildreth import reference_hildreth_solve, seed_violation

import repro.learning.mira as mira
from repro.api import FeedbackRequest, QService, QueryRequest, ServiceConfig
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.datastore.provenance import AnswerTuple, TupleProvenance
from repro.exceptions import FeedbackError, LearningError
from repro.graph import (
    EdgeKind,
    Node,
    NodeKind,
    SearchGraph,
    WeightVector,
    edge_feature,
    matcher_feature,
)
from repro.learning import (
    AnnotationKind,
    AnswerAnnotation,
    FeedbackEvent,
    FeedbackGeneralizer,
    FeedbackLog,
    LinearConstraint,
    OnlineLearner,
    hildreth_solve,
    symmetric_edge_loss,
    tree_feature_vector,
)
from repro.learning.overlays import OverlayWeightVector
from repro.steiner import SteinerTree, k_best_steiner_trees

#: Few feature names, so constraints share them the way tree constraints share
#: ``default`` and the matcher features.
QP_FEATURES = st.sampled_from(["default", "matcher::mad", "relation::r", "edge::a", "edge::b", "kw"])
QP_CONSTRAINT = st.builds(
    LinearConstraint,
    st.dictionaries(
        QP_FEATURES,
        st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 2.0]), st.floats(0.1, 3.0)),
        max_size=4,
    ),
    st.floats(-2.0, 2.0),
)


@st.composite
def learner_qps(draw):
    """A start, a tenant shadow and a QP shaped like the learner's.

    Tree rows first, each the difference of two trees' summed edge features
    (shared features cancel to 0.0 coefficients), then one positivity row per
    edge over that edge's own features, which all carry ``default``.  Some rows
    are tight at the start: slack exactly 0.0, or one ulp either side of it.
    """
    edges = draw(st.integers(1, 10))
    features = []
    for index in range(edges):
        own = {"default": 1.0, f"edge::{index}": 1.0}
        for relation in draw(st.lists(st.sampled_from(["r", "s", "t"]), min_size=1, max_size=2, unique=True)):
            own[f"relation::{relation}"] = 1.0
        confidence = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.9]), st.floats(0.0, 1.0)))
        if confidence is not None:
            own["matcher::mad"] = confidence
        features.append(own)
    names = sorted({name for own in features for name in own})
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.01, 1.0]), st.floats(-1.0, 2.0))
    start = draw(st.dictionaries(st.sampled_from(names), values, max_size=len(names)))
    shadow = draw(st.dictionaries(st.sampled_from(names), values, max_size=3))

    def summed(tree):
        phi = {}
        for index in sorted(tree):
            for name, value in features[index].items():
                phi[name] = phi.get(name, 0.0) + value
        return phi

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        trees = st.sets(st.integers(0, edges - 1), min_size=1)
        target, other = draw(trees), draw(trees)
        phi_target, phi_other = summed(target), summed(other)
        coefficients = {
            name: phi_other.get(name, 0.0) - phi_target.get(name, 0.0)
            for name in sorted(set(phi_target) | set(phi_other))
        }
        rows.append((coefficients, len(target ^ other) - draw(st.sampled_from([0.0, 0.5, -0.5]))))
    rows.extend((dict(own), 0.01) for own in features)
    constraints = []
    for coefficients, bound in rows:
        at_start = seed_violation(LinearConstraint(coefficients, 0.0), WeightVector(start))
        tight = [-at_start, math.nextafter(-at_start, 9.0), math.nextafter(-at_start, -9.0)]
        bound = draw(st.sampled_from([bound, *tight]))
        constraints.append(LinearConstraint(coefficients, bound))
    return start, shadow, constraints


def assert_seed_solve(weights, constraints, max_iterations):
    """``hildreth_solve`` returns what the seed loop returns, to the bit, and
    evaluates no more rows than it."""
    solved = hildreth_solve(weights, constraints, max_iterations=max_iterations)
    seed = reference_hildreth_solve(weights, constraints, max_iterations=max_iterations)
    assert repr(solved.weights.as_dict()) == repr(seed.weights.as_dict())
    assert solved.weights.as_dict() == seed.weights.as_dict()
    assert solved.converged == seed.converged
    assert repr(solved.max_violation) == repr(seed.max_violation)
    assert solved.moved == seed.moved
    assert solved.rows_evaluated <= seed.rows_evaluated


def build_parallel_edge_graph():
    """Two terminals connected by three parallel association edges of different cost."""
    graph = SearchGraph()
    for name in ("s", "t"):
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    edges = []
    for index, cost in enumerate((1.0, 2.0, 3.0)):
        edge = graph.new_edge("s", "t", EdgeKind.ASSOCIATION)
        edge.features = {edge_feature(edge.edge_id): 1.0}
        graph.weights.set(edge_feature(edge.edge_id), cost)
        graph.add_edge(edge)
        edges.append(edge)
    return graph, edges


class TestLossFunctions:
    def setup_method(self):
        self.tree_a = SteinerTree(frozenset({"e1", "e2"}), frozenset({"t"}), 1.0)
        self.tree_b = SteinerTree(frozenset({"e2", "e3"}), frozenset({"t"}), 2.0)

    def test_symmetric_loss(self):
        assert symmetric_edge_loss(self.tree_a, self.tree_b) == 2.0
        assert symmetric_edge_loss(self.tree_a, self.tree_a) == 0.0


class TestHildrethSolver:
    def test_no_constraints_returns_copy(self):
        weights = WeightVector({"a": 1.0})
        result = hildreth_solve(weights, []).weights
        assert result.as_dict() == {"a": 1.0}
        assert result is not weights

    def test_single_constraint_projection(self):
        weights = WeightVector({"a": 0.0})
        constraint = LinearConstraint({"a": 1.0}, 2.0)
        result = hildreth_solve(weights, [constraint]).weights
        assert result.get("a") == pytest.approx(2.0, abs=1e-6)

    def test_satisfied_constraint_leaves_weights(self):
        weights = WeightVector({"a": 5.0})
        constraint = LinearConstraint({"a": 1.0}, 2.0)
        result = hildreth_solve(weights, [constraint]).weights
        assert result.get("a") == pytest.approx(5.0)

    def test_multiple_constraints(self):
        weights = WeightVector({})
        constraints = [
            LinearConstraint({"a": 1.0}, 1.0),
            LinearConstraint({"b": 1.0}, 2.0),
            LinearConstraint({"a": 1.0, "b": 1.0}, 2.0),
        ]
        result = hildreth_solve(weights, constraints).weights
        assert result.get("a") >= 1.0 - 1e-6
        assert result.get("b") >= 2.0 - 1e-6

    def test_a_solve_stopped_at_the_pass_cap_says_so(self):
        constraints = [LinearConstraint({"a": 1.0}, 1.0), LinearConstraint({"a": 1.0, "b": 1.0}, 3.0)]
        capped = hildreth_solve(WeightVector({}), constraints, max_iterations=1)
        assert not capped.converged and capped.max_violation > 0
        solved = hildreth_solve(WeightVector({}), constraints)
        assert solved.converged and solved.max_violation < 1e-8

    def test_violation_and_norm(self):
        constraint = LinearConstraint({"a": 2.0}, 4.0)
        assert constraint.violation(WeightVector({"a": 1.0})) == pytest.approx(2.0)
        assert constraint.squared_norm() == pytest.approx(4.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.1, 3.0), st.floats(-2.0, 2.0)), min_size=1, max_size=5
        )
    )
    def test_constraints_satisfied_property(self, specs):
        # Single-variable constraints coeff * w >= bound are always feasible
        # when all coefficients are positive.
        constraints = [LinearConstraint({"w": coeff}, bound) for coeff, bound in specs]
        result = hildreth_solve(WeightVector({}), constraints, max_iterations=500).weights
        for constraint in constraints:
            assert constraint.violation(result) <= 1e-5

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(QP_FEATURES, st.floats(-2.0, 2.0), max_size=6),
        st.dictionaries(QP_FEATURES, st.floats(-2.0, 2.0), max_size=3),
        st.lists(QP_CONSTRAINT, max_size=14),
        st.integers(1, 60),
    )
    def test_solve_is_the_seed_loop_to_the_bit(self, start, shadow, constraints, max_iterations):
        """Sparse constraints sharing few features (so usually more constraints
        than features), zero coefficients, starts that violate them, plain and
        overlay starting vectors: the same weights per feature, in the same
        order, ``converged``, ``max_violation`` and ``moved`` as the seed loop."""
        base = WeightVector(start)
        for weights in (base, OverlayWeightVector(base, shadow)):
            assert_seed_solve(weights, constraints, max_iterations)
        for constraint in constraints:
            assert repr(constraint.violation(base)) == repr(seed_violation(constraint, base))

    @settings(max_examples=200, deadline=None)
    @given(learner_qps(), st.sampled_from([1, 2, 3, 5, 200]))
    def test_a_learner_shaped_solve_is_the_seed_loop_to_the_bit(self, qp, max_iterations):
        """The rows the screen skips most: positivity rows sharing ``default``,
        dense tree rows, rows tight at the start, and pass caps that stop an
        oscillation mid-pass."""
        start, shadow, constraints = qp
        base = WeightVector(start)
        for weights in (base, OverlayWeightVector(base, shadow)):
            assert_seed_solve(weights, constraints, max_iterations)


class TestTreeFeatureVector:
    def test_aggregates_learnable_and_fixed(self, mini_graph):
        association = mini_graph.association_edges()[0]
        membership = mini_graph.edges(EdgeKind.MEMBERSHIP)[0]
        tree = SteinerTree(
            frozenset({association.edge_id, membership.edge_id}), frozenset(), 0.0
        )
        phi, fixed = tree_feature_vector(mini_graph, tree)
        assert fixed == 0.0  # membership edges cost 0
        assert phi.get(matcher_feature("mad")) == pytest.approx(0.9)
        assert phi.get("default") == pytest.approx(1.0)


class TestOnlineLearner:
    def test_promoting_expensive_edge_changes_ranking(self):
        graph, edges = build_parallel_edge_graph()
        terminals = ["s", "t"]
        before = k_best_steiner_trees(graph, terminals, 1)[0]
        assert edges[0].edge_id in before.edge_ids

        target = SteinerTree.from_edges(graph, [edges[2].edge_id], terminals)
        learner = OnlineLearner(graph, k=3)
        result = learner.process(FeedbackEvent(terminals=tuple(terminals), target_tree=target))
        assert result.constraints > 0
        assert result.weight_change > 0
        after = k_best_steiner_trees(graph, terminals, 1)[0]
        assert after.edge_ids == target.edge_ids

    def test_margin_between_target_and_alternatives(self):
        graph, edges = build_parallel_edge_graph()
        terminals = ["s", "t"]
        target = SteinerTree.from_edges(graph, [edges[1].edge_id], terminals)
        OnlineLearner(graph, k=3).process(
            FeedbackEvent(terminals=tuple(terminals), target_tree=target)
        )
        target_cost = target.recost(graph).cost
        for edge in (edges[0], edges[2]):
            other = SteinerTree.from_edges(graph, [edge.edge_id], terminals)
            # symmetric loss between two single-edge trees is 2
            assert other.cost - target_cost >= 2.0 - 1e-4

    def test_edge_costs_stay_positive(self):
        graph, edges = build_parallel_edge_graph()
        terminals = ["s", "t"]
        target = SteinerTree.from_edges(graph, [edges[2].edge_id], terminals)
        learner = OnlineLearner(graph, k=3, positive_margin=0.01)
        learner.replay([FeedbackEvent(terminals=tuple(terminals), target_tree=target)], 3)
        for edge in graph.learnable_edges():
            assert graph.edge_cost(edge) >= 0.01 - 1e-6

    def test_demoted_tree_constraint(self):
        graph, edges = build_parallel_edge_graph()
        terminals = ["s", "t"]
        target = SteinerTree.from_edges(graph, [edges[1].edge_id], terminals)
        demoted = SteinerTree.from_edges(graph, [edges[0].edge_id], terminals)
        OnlineLearner(graph, k=1).process(
            FeedbackEvent(terminals=tuple(terminals), target_tree=target, demoted_tree=demoted)
        )
        assert demoted.recost(graph).cost > target.recost(graph).cost

    @settings(max_examples=30, deadline=None)
    @given(
        costs=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        passes=st.sampled_from([1, 2, 200]),
    )
    def test_each_step_satisfies_its_constraints_or_says_it_did_not_converge(self, costs, picks, passes):
        graph = SearchGraph()
        for name in ("s", "t"):
            graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
        edges = []
        for cost in costs:
            edge = graph.new_edge("s", "t", EdgeKind.ASSOCIATION)
            edge.features = {edge_feature(edge.edge_id): 1.0}
            graph.weights.set(edge_feature(edge.edge_id), cost)
            edges.append(graph.add_edge(edge))
        learner = OnlineLearner(graph, k=3, max_qp_iterations=passes)
        for pick in picks:
            target = SteinerTree.from_edges(graph, [edges[pick % len(edges)].edge_id], ("s", "t"))
            step = learner.process(FeedbackEvent(terminals=("s", "t"), target_tree=target))
            if not step.converged:
                continue
            assert step.max_violation <= 1e-6
            price = {edge.edge_id: graph.weights.dot(edge.features) for edge in edges}
            assert all(cost >= learner.positive_margin - 1e-6 for cost in price.values())
            (chosen,) = target.edge_ids
            for tree in step.candidate_trees:
                if tree.edge_ids != target.edge_ids:
                    (other,) = tree.edge_ids
                    assert price[other] - price[chosen] >= symmetric_edge_loss(target, tree) - 1e-6

    def test_missing_terminals_raise(self):
        graph, edges = build_parallel_edge_graph()
        target = SteinerTree.from_edges(graph, [edges[0].edge_id], ["s", "t"])
        learner = OnlineLearner(graph)
        with pytest.raises(LearningError):
            learner.process(FeedbackEvent(terminals=("missing",), target_tree=target))

    def test_process_stream_counts_steps(self):
        graph, edges = build_parallel_edge_graph()
        terminals = ("s", "t")
        target = SteinerTree.from_edges(graph, [edges[1].edge_id], terminals)
        learner = OnlineLearner(graph, k=2)
        learner.process_stream(
            [FeedbackEvent(terminals=terminals, target_tree=target)] * 3
        )
        assert learner.steps_processed == 3
        assert learner.replay([], 5) == []


class TestFeedbackGeneralization:
    def _answer(self, query_id: str) -> AnswerTuple:
        return AnswerTuple(
            values={"x": "1"},
            cost=1.0,
            provenance=TupleProvenance(query_id=query_id, query_cost=1.0),
        )

    def setup_method(self):
        self.tree_a = SteinerTree(frozenset({"e1"}), frozenset({"kw"}), 1.0)
        self.tree_b = SteinerTree(frozenset({"e2"}), frozenset({"kw"}), 2.0)
        self.generalizer = FeedbackGeneralizer(
            ["kw"], {"qa": self.tree_a, "qb": self.tree_b}
        )

    def test_valid_annotation_promotes_tree(self):
        event = self.generalizer.generalize(
            AnswerAnnotation(self._answer("qa"), AnnotationKind.VALID)
        )
        assert event.target_tree is self.tree_a
        assert event.demoted_tree is None

    def test_invalid_annotation_prefers_alternative(self):
        event = self.generalizer.generalize(
            AnswerAnnotation(self._answer("qa"), AnnotationKind.INVALID)
        )
        assert event.target_tree is self.tree_b
        assert event.demoted_tree is self.tree_a

    def test_invalid_without_alternative_raises(self):
        lonely = FeedbackGeneralizer(["kw"], {"qa": self.tree_a})
        with pytest.raises(FeedbackError):
            lonely.generalize(AnswerAnnotation(self._answer("qa"), AnnotationKind.INVALID))

    def test_preference_annotation(self):
        event = self.generalizer.generalize(
            AnswerAnnotation(
                self._answer("qb"), AnnotationKind.PREFERRED_OVER, other=self._answer("qa")
            )
        )
        assert event.target_tree is self.tree_b
        assert event.demoted_tree is self.tree_a

    def test_preference_requires_other(self):
        with pytest.raises(FeedbackError):
            self.generalizer.generalize(
                AnswerAnnotation(self._answer("qa"), AnnotationKind.PREFERRED_OVER)
            )

    def test_unknown_query_id(self):
        with pytest.raises(FeedbackError):
            self.generalizer.generalize(
                AnswerAnnotation(self._answer("unknown"), AnnotationKind.VALID)
            )

    def test_missing_provenance(self):
        with pytest.raises(FeedbackError):
            self.generalizer.generalize(
                AnswerAnnotation(AnswerTuple(values={}), AnnotationKind.VALID)
            )


class TestFeedbackLog:
    def test_sliding_window(self):
        log = FeedbackLog(window_size=2)
        tree = SteinerTree(frozenset(), frozenset(), 0.0)
        for i in range(4):
            log.add(FeedbackEvent(terminals=(f"k{i}",), target_tree=tree))
        assert len(log) == 2
        assert [e.terminals for e in log] == [("k2",), ("k3",)]


#: Feedback on a GBCO session, each replayed twice: (query-log entry of the
#: view, tenant, the answer's rank).  A repeat of a feedback the learner
#: already took moves no weight, for the base vector and for an overlay.
GBCO_FEEDBACK = (
    (7, None, 0), (7, "alice", 0), (7, None, 0), (7, "alice", 0), (11, None, 1),
    (11, None, 1), (11, "alice", 1), (11, "alice", 1), (6, "bob", 2), (6, "bob", 2),
)


def _gbco_session(dataset):
    service = QService(
        sources=[source_from_dict(source_to_dict(s)) for s in dataset.catalog],
        config=ServiceConfig(top_k=5),
    )
    service.bootstrap_alignments()
    views = {
        entry: service.create_view(QueryRequest(keywords=tuple(dataset.query_log[entry].keywords))).view_id
        for entry in sorted({entry for entry, _, _ in GBCO_FEEDBACK})
    }
    return service, views


def _give_feedback(service, views, step):
    entry, tenant, rank = step
    answers = list(service.stream_answers(QueryRequest(view=views[entry], tenant=tenant)))
    service.feedback(
        FeedbackRequest(view=views[entry], answer=answers[rank % len(answers)], tenant=tenant, replay=2)
    )


def _vector_copy(vector):
    """An independent copy of ``vector`` that keeps its kind and version."""
    if isinstance(vector, OverlayWeightVector):
        return OverlayWeightVector(vector.base, vector.shadow_dict(), vector.local_version)
    copy = vector.copy()
    copy.version = vector.version
    return copy


def test_the_learner_installs_what_the_full_install_would(gbco_dataset, monkeypatch):
    """Each step of a GBCO session, base and tenant overlay, against the seed
    step: the seed loop's solve installed weight by weight over the whole
    vector, ``weight_change`` its ``distance_to``.  The same final weights to
    the bit, the same ``repr(weight_change)``, and the version moves exactly
    when the full install changed a weight."""
    service, views = _gbco_session(gbco_dataset)
    solves = []

    def spy(weights, constraints, max_iterations=100, tolerance=1e-8):
        solves.append((constraints, max_iterations))
        return hildreth_solve(weights, constraints, max_iterations, tolerance)

    live = service.learner.process
    seen = []

    def checked(event, graph=None, weights=None):
        vector = weights if weights is not None else graph.weights
        before, version = _vector_copy(vector), vector.version
        result = live(event, graph=graph, weights=weights)
        constraints, cap = solves.pop()
        expected = _vector_copy(before)
        for name, value in reference_hildreth_solve(before, constraints, max_iterations=cap).weights.as_dict().items():
            expected.set(name, value)
        assert repr(vector.as_dict()) == repr(expected.as_dict())
        assert repr(result.weight_change) == repr(before.distance_to(expected))
        moved = repr(expected.as_dict()) != repr(before.as_dict())
        assert (vector.version != version) == moved
        seen.append((isinstance(vector, OverlayWeightVector), moved))
        return result

    monkeypatch.setattr(mira, "hildreth_solve", spy)
    monkeypatch.setattr(service.learner, "process", checked)
    with service:
        for step in GBCO_FEEDBACK:
            _give_feedback(service, views, step)
    # Both vectors, and on each both a step that moved and one that did not.
    assert set(seen) == {(False, False), (False, True), (True, False), (True, True)}


def test_the_gbco_feedback_scenario_evaluates_a_fixed_number_of_rows(gbco_dataset, monkeypatch):
    """The QP rows the learner evaluates over ``GBCO_FEEDBACK``'s 20 steps.
    The seed loop, which evaluates every row in every pass, evaluates 70 289
    rows on the same steps."""
    service, views = _gbco_session(gbco_dataset)
    live = service.learner.process
    steps = []

    def counted(event, graph=None, weights=None):
        steps.append(live(event, graph=graph, weights=weights))
        return steps[-1]

    monkeypatch.setattr(service.learner, "process", counted)
    with service:
        for step in GBCO_FEEDBACK:
            _give_feedback(service, views, step)
    assert len(steps) == 2 * len(GBCO_FEEDBACK)
    assert sum(step.rows_evaluated for step in steps) == 11869
