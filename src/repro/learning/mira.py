"""MIRA-based online learning of edge costs (paper Section 4, Algorithm 4).

Each feedback event supplies the keyword terminals ``S_r`` and the target
tree ``T_r`` the user favoured.  The learner retrieves the ``k`` lowest-cost
Steiner trees ``B`` under the current weights and solves the margin problem

    minimize   ||w - w_prev||^2
    subject to C(T, w) - C(T_r, w) >= L(T_r, T)    for every T in B
               C(e, w) >= epsilon                  for every learnable edge e
               C(e, w) = fixed                     for every fixed-cost edge e

The equality constraints of the original algorithm (the set ``A`` of
zero-cost edges) are handled *structurally* in this implementation: fixed
cost edges carry no learnable features, so no weight assignment can change
their cost.  The inequality-constrained quadratic program is solved with
Hildreth's cyclic projection method, which needs no external QP solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..exceptions import LearningError
from ..graph.features import WeightVector
from ..graph.search_graph import SearchGraph
from ..steiner.topk import KBestSteiner
from ..steiner.tree import SteinerTree
from .feedback import FeedbackEvent
from .loss import symmetric_edge_loss

LossFn = Callable[[SteinerTree, SteinerTree], float]


@dataclass(frozen=True)
class LinearConstraint:
    """A linear inequality ``sum_m coefficients[m] * w[m] >= bound``."""

    coefficients: Mapping[str, float]
    bound: float

    def violation(self, weights: WeightVector) -> float:
        """``bound - a·w``; positive when the constraint is violated."""
        value = sum(weights.get(name) * coeff for name, coeff in self.coefficients.items())
        return self.bound - value

    def squared_norm(self) -> float:
        """``||a||^2`` of the coefficient vector."""
        return sum(coeff * coeff for coeff in self.coefficients.values())


class QPSolution(NamedTuple):
    """What :func:`hildreth_solve` returns: the weights and how the solve ended."""

    weights: WeightVector
    #: ``False`` when the solve stopped at ``max_iterations`` passes.
    converged: bool
    #: The largest constraint violation seen in the final pass (0.0 if none).
    max_violation: float
    #: How many times a pass evaluated a constraint (a screened row is not).
    rows_evaluated: int
    #: The features whose weight differs, bit for bit, from the start's
    #: (a new feature counts), in the order of ``weights``.
    moved: Tuple[str, ...]


#: Relative rounding allowance of the row screen: far above the error of a
#: dot product over a row, or of the drift sum, at any QP size a solve meets.
_SCREEN_SLACK = 1e-9


def hildreth_solve(
    weights: WeightVector,
    constraints: Sequence[LinearConstraint],
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> QPSolution:
    """Solve ``min ||w - w0||^2  s.t.  a_i · w >= b_i`` with Hildreth's method.

    The starting point ``weights`` is ``w0``; the returned weights are the
    (approximate) projection of ``w0`` onto the feasible polyhedron.  The
    method maintains one non-negative multiplier per constraint and cycles
    through the constraints applying coordinate-wise dual ascent; it has
    converged when a pass moves no multiplier by ``tolerance`` or more.

    The passes run on the flattened copy's own dict, with each constraint's
    coefficients read once per solve: the same products summed in the same
    order as :meth:`LinearConstraint.violation` and the same per-feature
    additions as :meth:`WeightVector.update`, so the weights, ``converged``
    and ``max_violation`` are those of the loop over those methods, to the bit.

    A pass skips a row that provably cannot step.  ``drift`` sums
    ``|step| * max|a_s|`` over the steps taken, so a row's ``a · w`` moved by
    at most ``||a||_1`` times the drift since its last evaluation.  A row
    whose multiplier is exactly 0.0, and whose last violation ``v`` stays
    negative with that bound and a rounding allowance added
    (``_SCREEN_SLACK`` of ``|b| + Σ|a_j w_j|`` and of ``||a||_1 * drift``),
    evaluates to ``v <= 0`` again: its step is ``max(v / ||a||^2, -0.0) == 0``,
    it writes nothing and leaves ``max_violation`` alone.  So the skip changes
    no weight, no key order, no ``converged`` and no ``max_violation``.
    """
    if not constraints:
        return QPSolution(weights.copy(), True, 0.0, 0, ())
    start = weights.copy()._weights
    result = WeightVector(start)
    values = result._weights
    get = values.get
    rows = []
    for c in constraints:
        sizes = [abs(coeff) for coeff in c.coefficients.values()]
        norm = max(c.squared_norm(), 1e-12)
        rows.append((c.bound, tuple(c.coefficients.items()), norm, sum(sizes), max(sizes, default=0.0)))
    multipliers = [0.0] * len(rows)
    # Per row: the drift at its last evaluation, and how far ``||a||_1``
    # times the drift since may grow before it must be evaluated again.
    seen = [0.0] * len(rows)
    room = [0.0] * len(rows)
    drift = reach = 0.0
    evaluated = 0
    converged, max_violation = False, 0.0
    for _ in range(max_iterations):
        max_update = max_violation = 0.0
        for index, (bound, coefficients, norm, length, peak) in enumerate(rows):
            if length * (reach - seen[index]) < room[index]:
                continue
            evaluated += 1
            products = [get(name, 0.0) * coeff for name, coeff in coefficients]
            violation = bound - sum(products)
            if violation > max_violation:
                max_violation = violation
            seen[index] = drift
            # Multipliers must stay non-negative.
            step = max(violation / norm, -multipliers[index])
            if step != 0.0:
                multipliers[index] += step
                for name, coeff in coefficients:
                    values[name] = get(name, 0.0) + step * coeff
                max_update = max(max_update, abs(step))
                drift += abs(step) * peak
                reach = drift + _SCREEN_SLACK * drift
            room[index] = 0.0
            if violation < 0.0 and multipliers[index] == 0.0:
                room[index] = -violation - _SCREEN_SLACK * (abs(bound) + sum(map(abs, products)))
        if max_update < tolerance:
            converged = True
            break
    # A weight no step wrote is the start's own float; a written one moved
    # unless its repr, which round-trips, is the start's.
    moved = tuple(
        name for name, value in values.items()
        if value is not start.get(name) and repr(value) != repr(start.get(name))
    )
    return QPSolution(result, converged, max_violation, evaluated, moved)


def tree_feature_vector(graph: SearchGraph, tree: SteinerTree) -> Tuple[Dict[str, float], float]:
    """Aggregate feature vector and fixed-cost sum of a tree.

    Returns ``(phi, fixed)`` where ``phi[m]`` is the summed value of feature
    ``m`` over the tree's *learnable* edges and ``fixed`` is the summed cost
    of its fixed-cost edges — so that ``C(T, w) = w · phi + fixed``.
    """
    phi: Dict[str, float] = {}
    fixed = 0.0
    for edge in tree.edges(graph):
        if not edge.is_learnable():
            fixed += edge.fixed_cost or 0.0
            continue
        for name, value in edge.features.items():
            phi[name] = phi.get(name, 0.0) + value
    return phi, fixed


@dataclass
class FeedbackStepResult:
    """Diagnostics for one processed feedback event."""

    candidate_trees: List[SteinerTree]
    target_tree: SteinerTree
    constraints: int
    weight_change: float
    #: Whether the QP solve ended before its pass cap (``max_qp_iterations``).
    converged: bool
    #: The largest constraint violation of the solve's final pass.
    max_violation: float
    #: The QP rows the solve evaluated (:attr:`QPSolution.rows_evaluated`).
    rows_evaluated: int


class OnlineLearner:
    """The ONLINELEARNER of Algorithm 4, operating on a query graph.

    Parameters
    ----------
    graph:
        The (query) graph whose weights are learned.  The graph's
        :class:`~repro.graph.features.WeightVector` is updated in place so
        that views sharing the weight vector see the new costs immediately.
    k:
        Number of candidate trees retrieved per feedback step.
    loss:
        Loss function between trees; defaults to the symmetric edge loss.
    positive_margin:
        Minimum cost enforced for every learnable edge (the strict
        positivity constraint of Algorithm 4, made numerical).
    solver:
        Top-k Steiner solver; a default :class:`KBestSteiner` is used when
        omitted.
    """

    def __init__(
        self,
        graph: SearchGraph,
        k: int = 5,
        loss: LossFn = symmetric_edge_loss,
        positive_margin: float = 0.01,
        solver: Optional[KBestSteiner] = None,
        max_qp_iterations: int = 200,
    ) -> None:
        self.graph = graph
        self.k = k
        self.loss = loss
        self.positive_margin = positive_margin
        self.solver = solver or KBestSteiner()
        self.max_qp_iterations = max_qp_iterations
        self.steps_processed = 0

    # ------------------------------------------------------------------
    # Single feedback step
    # ------------------------------------------------------------------
    def process(
        self,
        event: FeedbackEvent,
        graph: Optional[SearchGraph] = None,
        weights: Optional[WeightVector] = None,
    ) -> FeedbackStepResult:
        """Apply one feedback event, updating the graph's weights in place.

        ``graph`` optionally overrides the learner's default graph for this
        event.  A persistent learner (one per :class:`~repro.api.service.QService`
        session) is constructed once against the search graph and handed the
        *query* graph of whichever view produced each event — the feedback
        terminals are keyword nodes that exist only there, while the weight
        vector is shared so every view observes the update.

        ``weights`` optionally overrides the weight vector the step reads
        *and writes* — the multi-tenant overlay path.  The event is then
        solved and applied against a structural clone of ``graph`` priced
        under ``weights`` (typically an
        :class:`~repro.learning.overlays.OverlayWeightVector`), so a
        tenant's feedback personalizes that vector without ever touching
        the graph's shared base weights.

        Only the weights the solve moved are installed (:attr:`QPSolution.moved`,
        ``-0.0`` against ``0.0`` included), so a step that moves nothing bumps
        no version and re-solves no view.  A plain vector ends as a full
        install would leave it; an overlay keeps its shadow entries for the
        features the step did not move.  ``weight_change`` is ``distance_to``
        the old vector: an unmoved feature adds an exact zero to its ``fsum``.
        """
        graph = graph if graph is not None else self.graph
        if weights is not None and weights is not graph.weights:
            from .overlays import graph_with_weights

            graph = graph_with_weights(graph, weights)
        terminals = [t for t in event.terminals if graph.has_node(t)]
        if not terminals:
            raise LearningError("feedback event references no terminals present in the graph")

        candidates = self.solver.solve(graph, terminals, self.k)
        target = event.target_tree.recost(graph)

        constraints: List[LinearConstraint] = []
        target_phi, target_fixed = tree_feature_vector(graph, target)

        comparison_trees = list(candidates)
        if event.demoted_tree is not None:
            comparison_trees.append(event.demoted_tree.recost(graph))

        for tree in comparison_trees:
            if tree.edge_ids == target.edge_ids:
                continue  # L(Tr, Tr) = 0: trivially satisfied.
            margin = self.loss(target, tree)
            phi, fixed = tree_feature_vector(graph, tree)
            coefficients: Dict[str, float] = {}
            for name in sorted(set(phi) | set(target_phi)):
                coefficients[name] = phi.get(name, 0.0) - target_phi.get(name, 0.0)
            if not coefficients:
                continue
            bound = margin - (fixed - target_fixed)
            constraints.append(LinearConstraint(coefficients, bound))

        # Positivity constraints for every learnable edge of the graph.
        for edge in graph.learnable_edges():
            coefficients = dict(edge.features.items())
            if not coefficients:
                continue
            constraints.append(LinearConstraint(coefficients, self.positive_margin))

        weights = graph.weights
        solution = hildreth_solve(weights, constraints, max_iterations=self.max_qp_iterations)
        # Install the moved weights in place so all sharers observe them.
        squares = []
        for name in solution.moved:
            value = solution.weights.get(name)
            squares.append((weights.get(name) - value) ** 2)
            weights.set(name, value)
        self.steps_processed += 1
        return FeedbackStepResult(
            candidate_trees=candidates,
            target_tree=target,
            constraints=len(constraints),
            weight_change=math.fsum(squares) ** 0.5,
            converged=solution.converged,
            max_violation=solution.max_violation,
            rows_evaluated=solution.rows_evaluated,
        )

    # ------------------------------------------------------------------
    # Streams of feedback
    # ------------------------------------------------------------------
    def process_stream(
        self,
        events: Iterable[FeedbackEvent],
        graph: Optional[SearchGraph] = None,
        weights: Optional[WeightVector] = None,
    ) -> List[FeedbackStepResult]:
        """Apply a sequence of feedback events in order."""
        return [self.process(event, graph=graph, weights=weights) for event in events]

    def replay(
        self,
        events: Sequence[FeedbackEvent],
        repetitions: int,
        graph: Optional[SearchGraph] = None,
        weights: Optional[WeightVector] = None,
    ) -> List[FeedbackStepResult]:
        """Apply ``events`` ``repetitions`` times in a row (feedback replay).

        The paper replays the feedback log several times to reinforce the
        constraints ("we input the 10 feedback items to the learner four
        times in succession").
        """
        results: List[FeedbackStepResult] = []
        for _ in range(max(repetitions, 0)):
            results.extend(self.process_stream(events, graph=graph, weights=weights))
        return results
