"""PREFERENTIALALIGNER (Algorithm 3 of the paper).

Candidate relations are ranked by an *alignment prior* ``P`` over the
vertices of the existing search graph — e.g. authoritativeness learned from
feedback, or link-analysis scores — and the new source is compared against
the most-preferred relations first, stopping after a budget.  Unlike
VIEWBASEDALIGNER this is not guaranteed to preserve the exhaustive top-k
results, but it is the cheapest strategy (Figures 6–8).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Union

from ..datastore.database import Catalog, DataSource
from ..exceptions import AlignmentError
from ..graph.features import relation_feature
from ..graph.search_graph import SearchGraph
from ..matching.base import BaseMatcher
from .base import BaseAligner

# A vertex prior may be given as a mapping or as a callable on relation names.
VertexPrior = Union[Mapping[str, float], Callable[[str], float]]


def prior_from_weights(graph: SearchGraph) -> Dict[str, float]:
    """Derive a vertex prior from the learned relation-authority feature weights.

    The weight of ``relation::<R>`` is the negated log-authoritativeness of
    relation ``R`` (paper Section 3.4): lower weight means more
    authoritative, so the prior value is the *negated* weight — higher is
    preferred.  Relations with no learned weight default to 0.
    """
    prior: Dict[str, float] = {}
    for node in graph.relation_nodes():
        if node.relation is None:
            continue
        weight = graph.weights.get(relation_feature(node.relation), 0.0)
        prior[node.relation] = -weight
    return prior


class PreferentialAligner(BaseAligner):
    """Aligner that follows a preference ordering over existing relations.

    Parameters
    ----------
    matcher, and by keyword top_y, value_filter, count_only, profile_index:
        See :class:`~repro.alignment.base.BaseAligner`.
    prior:
        The vertex cost/preference function ``P``: mapping (or callable)
        from qualified relation name to a preference score, higher = try
        earlier.  When omitted, the prior is derived from the graph's
        learned relation-authority weights at alignment time.
    max_relations:
        Comparison budget: only the ``max_relations`` most-preferred
        relations are matched against (this is what makes the strategy
        cheaper than VIEWBASEDALIGNER; set to ``None`` to rank but not
        truncate).
    """

    strategy_name = "preferential"

    def __init__(
        self,
        matcher: BaseMatcher,
        prior: Optional[VertexPrior] = None,
        max_relations: Optional[int] = 5,
        **common,
    ) -> None:
        super().__init__(matcher, **common)
        if max_relations is not None and max_relations < 1:
            raise AlignmentError("max_relations must be >= 1 (or None)")
        self.prior = prior
        self.max_relations = max_relations

    def candidate_relations(
        self, graph: SearchGraph, catalog: Catalog, new_source: DataSource
    ) -> List[str]:
        """Existing relations sorted by decreasing prior, truncated to the budget."""
        new_relations = {t.schema.qualified_name for t in new_source.tables()}
        # Resolve the prior once if it needs to be derived from the graph.
        derived = prior_from_weights(graph) if self.prior is None else None
        scored: List[tuple] = []
        for source in catalog:
            for table in source:
                qualified = table.schema.qualified_name
                if qualified in new_relations:
                    continue
                if derived is not None:
                    value = derived.get(qualified, 0.0)
                elif callable(self.prior):
                    value = float(self.prior(qualified))
                else:
                    value = float(self.prior.get(qualified, 0.0))  # type: ignore[union-attr]
                scored.append((-value, qualified))
        scored.sort()
        ordered = [relation for _, relation in scored]
        if self.max_relations is not None:
            ordered = ordered[: self.max_relations]
        return ordered
