"""VIEWBASEDALIGNER (Algorithm 2 of the paper).

Given an existing keyword view with keywords ``K`` and the cost ``α`` of its
k-th best answer, only relations inside the α-cost neighborhood of some
keyword node can possibly contribute a Steiner tree of cost ≤ α — so those
are the only relations the new source is matched against.  Because edge
costs are non-negative this pruning is *lossless*: the view's top-k results
after alignment are identical to what EXHAUSTIVE would produce.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..datastore.database import Catalog, DataSource
from ..exceptions import AlignmentError
from ..graph.neighborhood import neighborhood_relations
from ..graph.search_graph import SearchGraph
from ..matching.base import BaseMatcher
from ..matching.value_overlap import ValueOverlapFilter
from .base import BaseAligner


class ViewBasedAligner(BaseAligner):
    """Information-need-driven aligner restricted to the α-cost neighborhood.

    Parameters
    ----------
    matcher, top_y, value_filter, count_only:
        See :class:`~repro.alignment.base.BaseAligner`.
    keyword_nodes:
        Node ids of the view's keyword nodes.  They are looked up in
        ``neighborhood_graph`` when that is given (the usual case: the
        persistent search graph does not contain keyword nodes, the view's
        query graph does), otherwise in the graph being aligned.
    alpha:
        The cost of the view's k-th best answer (the pruning radius).
    neighborhood_graph:
        Optional graph in which the α-cost neighborhood is computed;
        defaults to the graph passed to :meth:`align`.
    """

    strategy_name = "view_based"

    def __init__(
        self,
        matcher: BaseMatcher,
        keyword_nodes: Sequence[str],
        alpha: float,
        top_y: int = 2,
        value_filter: Optional[ValueOverlapFilter] = None,
        count_only: bool = False,
        neighborhood_graph: Optional[SearchGraph] = None,
        profile_index=None,
    ) -> None:
        super().__init__(
            matcher,
            top_y=top_y,
            value_filter=value_filter,
            count_only=count_only,
            profile_index=profile_index,
        )
        if alpha < 0:
            raise AlignmentError("alpha must be non-negative")
        self.keyword_nodes = list(keyword_nodes)
        self.alpha = alpha
        self.neighborhood_graph = neighborhood_graph

    def candidate_relations(
        self, graph: SearchGraph, catalog: Catalog, new_source: DataSource
    ) -> List[str]:
        """Relations whose nodes lie within cost α of any keyword node."""
        neighborhood_source = self.neighborhood_graph or graph
        start_nodes = [n for n in self.keyword_nodes if neighborhood_source.has_node(n)]
        if not start_nodes:
            raise AlignmentError(
                "none of the keyword nodes are present in the graph; "
                "expand the query graph before aligning"
            )
        neighborhood = neighborhood_relations(neighborhood_source, start_nodes, self.alpha)
        new_relations = {t.schema.qualified_name for t in new_source.tables()}
        # Preserve catalog order for determinism.
        candidates: List[str] = []
        for source in catalog:
            for table in source:
                qualified = table.schema.qualified_name
                if qualified in neighborhood and qualified not in new_relations:
                    candidates.append(qualified)
        return candidates
