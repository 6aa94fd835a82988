"""PROFILE-BLOCKED alignment strategy (index-driven candidate selection).

The exhaustive strategy iterates every existing relation; the view-based
and preferential strategies prune by *information need*.  This strategy
prunes by *evidence*: the shared
:class:`~repro.profiling.index.CatalogProfileIndex` already knows which
existing attributes share values with the new source's attributes, so the
base matcher is only invoked on relations the index proposes — the
candidate probe is a handful of posting-list (and, when a sketch tier is
configured, LSH bucket) lookups instead of a catalog scan.

Candidate generation goes through
:meth:`~repro.profiling.index.CatalogProfileIndex.tiered_candidates` when
the index maintains MinHash/LSH sketches, and through the lossless
posting-list walk otherwise — the index works that out from what it holds.
The tiered pipeline re-verifies every sketch survivor against the true
distinct-value sets, so at the value-overlap accept threshold the surviving
relation set — and hence the accepted correspondences — is determined by
exact shared-value counts, never by a sketch estimate.

This is the strategy that keeps registration sub-linear at the 10k+
relation scale benchmarked by ``benchmarks/scale_bench.py``.
"""

from __future__ import annotations

from typing import List

from ..datastore.database import Catalog, DataSource
from ..exceptions import AlignmentError
from ..graph.search_graph import SearchGraph
from ..matching.base import BaseMatcher
from .base import BaseAligner


class ProfileBlockedAligner(BaseAligner):
    """Aligns a new source against the relations its profile evidence points at.

    Parameters
    ----------
    matcher, and by keyword top_y, value_filter, count_only, profile_index:
        See :class:`~repro.alignment.base.BaseAligner`; ``profile_index``
        is **required** here — it is the candidate source.
    min_shared_values:
        Exact-tier acceptance floor: an existing relation becomes a
        candidate only if some attribute pair shares at least this many
        distinct values.  Mirrors the value-overlap matcher's
        ``min_shared_values`` so the pruning stays lossless for it.
    """

    strategy_name = "profile_blocked"

    def __init__(self, matcher: BaseMatcher, min_shared_values: int = 1, **common) -> None:
        super().__init__(matcher, **common)
        if self.profile_index is None:
            raise AlignmentError(
                "profile_blocked registration requires a catalog profile index"
            )
        self.min_shared_values = min_shared_values

    def candidate_relations(
        self, graph: SearchGraph, catalog: Catalog, new_source: DataSource
    ) -> List[str]:
        """Existing relations sharing ≥ ``min_shared_values`` values with the source.

        The new source is profiled before alignment (the registrar admits
        it into every maintained index first), so its posting lists and
        sketches are already queryable.  Candidates are returned in catalog
        order for determinism, exactly like the exhaustive strategy.
        """
        index = self.profile_index
        new_relations = {t.schema.qualified_name for t in new_source.tables()}
        hits = set()
        for relation in new_relations:
            if not index.has_relation(relation):
                continue
            for _, other, _ in index.candidate_pairs(
                relation, min_shared_values=self.min_shared_values
            ):
                hits.add(other[0])
        return catalog.in_catalog_order(hits - new_relations)
