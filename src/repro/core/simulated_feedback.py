"""Simulated domain-expert feedback (paper Section 5.2).

"For each query, we generate one feedback response, marking one answer that
only makes use of edges in the gold standard.  Since the gold standard
alignments are known during evaluation, this feedback response step can be
simulated on behalf of a user."

:func:`gold_target_tree` finds, for a keyword view, the lowest-cost Steiner
tree that uses only gold-standard association edges (plus the always-valid
zero-cost, keyword-match and foreign-key edges).  The resulting tree is the
target ``T_r`` of a :class:`~repro.learning.feedback.FeedbackEvent`, exactly
as if the user had marked one of its answers as valid.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import SteinerError
from ..graph.edges import EdgeKind
from ..graph.search_graph import SearchGraph
from ..learning.feedback import FeedbackEvent
from ..steiner.network import SteinerNetwork
from ..steiner.tree import SteinerTree
from .evaluation import GoldStandard, edge_attribute_pair
from .view import RankedView


def gold_restricted_graph(graph: SearchGraph, gold: GoldStandard) -> SearchGraph:
    """A copy of ``graph`` keeping only gold association edges.

    Zero-cost membership edges, keyword-match edges and foreign-key edges are
    always kept; association edges are kept only if their attribute pair is
    in the gold standard.
    """
    restricted = graph.copy(share_weights=True)
    for edge in list(restricted.edges(EdgeKind.ASSOCIATION)):
        pair = edge_attribute_pair(restricted, edge)
        if pair is None or pair not in gold.pairs:
            restricted.remove_edge(edge.edge_id)
    return restricted


def gold_target_tree(
    graph: SearchGraph, terminals: Sequence[str], gold: GoldStandard
) -> Optional[SteinerTree]:
    """The cheapest Steiner tree over ``terminals`` using only gold associations.

    Returns ``None`` when the terminals cannot be connected through gold
    edges alone (e.g. the matchers failed to recall a needed alignment).
    The returned tree references edge ids of the original ``graph`` and can
    be re-costed there.
    """
    restricted = gold_restricted_graph(graph, gold)
    usable_terminals = [t for t in terminals if restricted.has_node(t)]
    if len(usable_terminals) < len(list(terminals)):
        return None
    try:
        tree = SteinerNetwork(restricted).default_tree(usable_terminals)
    except SteinerError:
        return None
    return SteinerTree.from_edges(graph, tree.edge_ids, usable_terminals)


def simulated_feedback_for_view(view: RankedView, gold: GoldStandard) -> Optional[FeedbackEvent]:
    """One simulated feedback event for ``view``: its gold tree marked valid."""
    graph = view.query_graph.graph
    tree = gold_target_tree(graph, view.terminals, gold)
    if tree is None:
        return None
    return FeedbackEvent(terminals=view.terminals, target_tree=tree)

