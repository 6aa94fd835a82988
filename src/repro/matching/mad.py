"""Modified Adsorption (MAD) label propagation and the MAD schema matcher.

Implements Algorithm 1 of the paper (which follows Talukdar & Crammer,
ECML 2009): every attribute node is injected with its own label, labels are
propagated through shared data values, and after convergence each attribute
node's label distribution says how strongly it matches every other
attribute.  A dummy "none of the above" label absorbs probability mass when
the evidence is insufficient.

The random-walk probabilities ``p_inj``, ``p_cont`` and ``p_abnd`` per node
are set with the entropy-based heuristic of the MAD paper, which the authors
also use here ("We used the heuristics from [31] to set the random walk
probabilities", Section 5.2.1).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..datastore.table import Table
from .base import BaseMatcher, Correspondence
from .mad_graph import (
    MadGraphConfig,
    PropagationGraph,
    attribute_graph_node,
    build_column_value_graph,
)

#: The dummy "none of the above" label (written ⊤ in the paper).
DUMMY_LABEL = "__none_of_the_above__"


@dataclass
class RandomWalkProbabilities:
    """Per-node injection / continuation / abandonment probabilities."""

    p_inj: float
    p_cont: float
    p_abnd: float


def compute_walk_probabilities(
    graph: PropagationGraph,
    seed_nodes: Set[str],
    beta: float = 2.0,
) -> Dict[str, RandomWalkProbabilities]:
    """Entropy-based heuristic for the random-walk probabilities.

    For each node ``v`` with transition distribution ``p(u | v)`` proportional
    to edge weights, let ``H(v)`` be its entropy.  Then::

        c_v = log(beta) / log(beta + exp(H(v)))
        d_v = (1 - c_v) * sqrt(H(v))      if v is a seed node, else 0
        z_v = max(c_v + d_v, 1)
        p_cont = c_v / z_v ;  p_inj = d_v / z_v ;  p_abnd = 1 - p_cont - p_inj

    High-degree hub nodes get high entropy, hence low continuation and high
    abandonment probability — exactly the mitigation the paper describes for
    random walks passing through hubs.
    """
    probabilities: Dict[str, RandomWalkProbabilities] = {}
    log_beta = math.log(beta)
    for node in graph.nodes():
        neighbors = graph.neighbors(node)
        total_weight = sum(neighbors.values())
        if total_weight <= 0:
            probabilities[node] = RandomWalkProbabilities(p_inj=1.0, p_cont=0.0, p_abnd=0.0)
            continue
        entropy = 0.0
        for weight in neighbors.values():
            p = weight / total_weight
            if p > 0:
                entropy -= p * math.log(p)
        c_v = log_beta / math.log(beta + math.exp(entropy))
        d_v = (1.0 - c_v) * math.sqrt(entropy) if node in seed_nodes else 0.0
        z_v = max(c_v + d_v, 1.0)
        p_cont = c_v / z_v
        p_inj = d_v / z_v
        p_abnd = max(0.0, 1.0 - p_cont - p_inj)
        probabilities[node] = RandomWalkProbabilities(p_inj=p_inj, p_cont=p_cont, p_abnd=p_abnd)
    return probabilities


@dataclass
class MadConfig:
    """Hyperparameters of the MAD algorithm.

    Defaults follow the paper's experimental setup: ``mu1 = mu2 = 1``,
    ``mu3 = 1e-2``, 3 iterations (with an optional convergence tolerance).
    """

    mu1: float = 1.0
    mu2: float = 1.0
    mu3: float = 1e-2
    max_iterations: int = 3
    tolerance: float = 1e-4
    beta: float = 2.0


LabelDistribution = Dict[str, float]


def run_mad(
    graph: PropagationGraph,
    seed_labels: Mapping[str, LabelDistribution],
    config: Optional[MadConfig] = None,
) -> Dict[str, LabelDistribution]:
    """Run Modified Adsorption over ``graph``.

    Parameters
    ----------
    graph:
        The propagation graph.
    seed_labels:
        Mapping from node id to its injected label distribution ``I_v``.
    config:
        Hyperparameters; see :class:`MadConfig`.

    Returns
    -------
    dict
        Mapping from node id to its estimated label distribution ``L_v``
        (which includes the dummy label's mass).
    """
    config = config or MadConfig()
    seeds = set(seed_labels.keys())
    probabilities = compute_walk_probabilities(graph, seeds, beta=config.beta)

    # R_v: label prior putting all mass on the dummy label.
    # I_v: injected labels (zero vector for non-seed nodes).
    injected: Dict[str, LabelDistribution] = {
        node: dict(seed_labels.get(node, {})) for node in graph.nodes()
    }
    estimates: Dict[str, LabelDistribution] = {
        node: dict(injected[node]) for node in graph.nodes()
    }

    # M_vv normalization terms (line 2 of Algorithm 1).
    normalizers: Dict[str, float] = {}
    for node in graph.nodes():
        prob = probabilities[node]
        weight_sum = sum(graph.neighbors(node).values())
        normalizers[node] = (
            config.mu1 * prob.p_inj + config.mu2 * prob.p_cont * weight_sum + config.mu3
        )

    for _ in range(config.max_iterations):
        max_change = 0.0
        new_estimates: Dict[str, LabelDistribution] = {}
        for node in graph.nodes():
            prob = probabilities[node]
            # D_v: weighted combination of neighbor label estimates (line 4).
            aggregated: LabelDistribution = defaultdict(float)
            for neighbor, weight in graph.neighbors(node).items():
                neighbor_prob = probabilities[neighbor]
                coefficient = prob.p_cont * weight + neighbor_prob.p_cont * weight
                if coefficient == 0.0:
                    continue
                for label, score in estimates[neighbor].items():
                    aggregated[label] += coefficient * score
            # Line 6-7 update.
            updated: LabelDistribution = defaultdict(float)
            for label, score in injected[node].items():
                updated[label] += config.mu1 * prob.p_inj * score
            for label, score in aggregated.items():
                updated[label] += config.mu2 * score
            updated[DUMMY_LABEL] += config.mu3 * prob.p_abnd * 1.0
            normalizer = normalizers[node]
            if normalizer <= 0:
                normalizer = 1.0
            result = {label: score / normalizer for label, score in updated.items() if score != 0.0}
            previous = estimates[node]
            for label in set(result) | set(previous):
                max_change = max(max_change, abs(result.get(label, 0.0) - previous.get(label, 0.0)))
            new_estimates[node] = result
        estimates = new_estimates
        if max_change < config.tolerance:
            break
    return estimates


def normalize_distribution(distribution: LabelDistribution, drop_dummy: bool = True) -> LabelDistribution:
    """Normalize a label distribution to sum to one (optionally dropping the dummy)."""
    items = {
        label: max(score, 0.0)
        for label, score in distribution.items()
        if not (drop_dummy and label == DUMMY_LABEL)
    }
    total = sum(items.values())
    if total <= 0:
        return {}
    return {label: score / total for label, score in items.items()}


class MadMatcher(BaseMatcher):
    """Instance-based schema matcher built on MAD label propagation.

    Unlike pairwise matchers, MAD propagates over *all* relations at once
    (no pairwise source comparison is required — one of its selling points
    in the paper).  The pairwise :meth:`match_relations` interface is still
    provided for interoperability with the aligner strategies: it simply
    restricts a global propagation run to the two relations involved.
    """

    name = "mad"

    def __init__(
        self,
        config: Optional[MadConfig] = None,
        graph_config: Optional[MadGraphConfig] = None,
        top_y: int = 3,
        min_confidence: float = 0.05,
    ) -> None:
        super().__init__()
        self.config = config or MadConfig()
        self.graph_config = graph_config or MadGraphConfig()
        self.top_y = top_y
        self.min_confidence = min_confidence

    # ------------------------------------------------------------------
    # Global (multi-relation) matching
    # ------------------------------------------------------------------
    def propagate(self, tables: Sequence[Table]) -> Dict[str, LabelDistribution]:
        """Run MAD over all ``tables`` and return attribute label distributions.

        The returned mapping is keyed by attribute node id
        (``col::<relation>.<attribute>``); each distribution is normalized
        over attribute labels (the dummy label is dropped).
        """
        graph = build_column_value_graph(tables, self.graph_config)
        seed_labels: Dict[str, LabelDistribution] = {}
        for attr_node, (relation, attribute) in graph.attribute_nodes.items():
            seed_labels[attr_node] = {attr_node: 1.0}
        raw = run_mad(graph, seed_labels, self.config)
        distributions: Dict[str, LabelDistribution] = {}
        for attr_node in graph.attribute_nodes:
            distributions[attr_node] = normalize_distribution(raw.get(attr_node, {}))
        return distributions

    def match_tables(self, tables: Sequence[Table]) -> List[Correspondence]:
        """Produce correspondences between all attribute pairs of ``tables``."""
        distributions = self.propagate(tables)
        node_refs = {
            attribute_graph_node(ref.relation, ref.attribute): ref
            for t in tables
            for ref in t.schema.attribute_refs
        }
        correspondences: List[Correspondence] = []
        for attr_node, distribution in distributions.items():
            source_ref = node_refs.get(attr_node)
            if source_ref is None:
                continue
            ranked = sorted(
                (
                    (label, score)
                    for label, score in distribution.items()
                    if label != attr_node and label in node_refs
                ),
                key=lambda item: -item[1],
            )
            for label, score in ranked[: self.top_y]:
                if score < self.min_confidence:
                    continue
                target_ref = node_refs[label]
                if target_ref != source_ref:
                    correspondences.append(Correspondence(source_ref, target_ref, round(min(score, 1.0), 6), self.name))
        return correspondences

    # ------------------------------------------------------------------
    # Pairwise interface (for the aligner strategies)
    # ------------------------------------------------------------------
    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Pairwise adapter: propagate over just the two relations."""
        if table_a.schema.qualified_name == table_b.schema.qualified_name:
            return []
        self.counter.record_relation_pair(
            len(table_a.schema.attribute_names), len(table_b.schema.attribute_names)
        )
        correspondences = self.match_tables([table_a, table_b])
        relation_a = table_a.schema.qualified_name
        relation_b = table_b.schema.qualified_name
        return [
            c
            for c in correspondences
            if {c.source.relation, c.target.relation} == {relation_a, relation_b}
        ]
