"""Content tf-idf matcher: instance evidence from precomputed token vectors.

An extra ensemble component on top of the profiling layer: each attribute is
treated as a document of its distinct value *tokens*, and a pair's
confidence is the cosine of their L2-normalized tf-idf vectors — both
precomputed and cached by the shared
:class:`~repro.profiling.index.CatalogProfileIndex`.  Where the
value-overlap matcher needs exact shared values, tf-idf content similarity
also catches columns whose values merely share vocabulary (compound terms,
free-text descriptions), weighted against catalog-common tokens.

Blocking: two attributes with no shared value token have cosine exactly 0,
so the pair is skipped on a token-set disjointness test over the profiles'
precomputed ``value_tokens`` — lossless for any positive ``min_confidence``
and O(pair), independent of catalog size.
"""

from __future__ import annotations

from typing import List, Optional

from ..datastore.table import Table
from ..profiling.index import CatalogProfileIndex
from .base import AttributeRef, BaseMatcher, Correspondence


class ContentTfIdfMatcher(BaseMatcher):
    """Scores attribute pairs by cosine similarity of content tf-idf vectors.

    Parameters
    ----------
    min_confidence:
        Minimum cosine for a correspondence to be emitted; must be positive
        (token-disjoint pairs are pruned by blocking, which is only lossless
        because their cosine is exactly 0).
    profile_index:
        Optional shared :class:`CatalogProfileIndex`.  When absent (or when
        a table's profile is stale), the matcher profiles the two relations
        into a private index on the fly — correct but without the shared
        amortization.
    """

    name = "content_tfidf"

    def __init__(
        self,
        min_confidence: float = 0.25,
        profile_index: Optional[CatalogProfileIndex] = None,
    ) -> None:
        super().__init__()
        if min_confidence <= 0.0:
            raise ValueError("min_confidence must be positive (blocking relies on it)")
        self.min_confidence = min_confidence
        self.profile_index = profile_index

    def _index_for(self, table_a: Table, table_b: Table) -> CatalogProfileIndex:
        index = self.profile_index
        if index is not None and index.is_current(table_a) and index.is_current(table_b):
            return index
        return CatalogProfileIndex.from_tables((table_a, table_b))

    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Align the attributes of two relations by content tf-idf cosine."""
        relation_a = table_a.schema.qualified_name
        relation_b = table_b.schema.qualified_name
        if relation_a == relation_b:
            return []
        self.counter.record_relation_pair(
            len(table_a.schema.attribute_names), len(table_b.schema.attribute_names)
        )
        index = self._index_for(table_a, table_b)
        correspondences: List[Correspondence] = []
        for attr_a in table_a.schema.attribute_names:
            profile_a = index.profile(relation_a, attr_a)
            if profile_a is None or not profile_a.value_tokens:
                continue
            for attr_b in table_b.schema.attribute_names:
                profile_b = index.profile(relation_b, attr_b)
                if profile_b is None or profile_a.value_tokens.isdisjoint(
                    profile_b.value_tokens
                ):
                    # Token-disjoint vectors have cosine 0: skip losslessly.
                    continue
                confidence = index.content_similarity(
                    relation_a, attr_a, relation_b, attr_b
                )
                if confidence < self.min_confidence:
                    continue
                correspondences.append(
                    Correspondence(
                        source=AttributeRef(relation_a, attr_a),
                        target=AttributeRef(relation_b, attr_b),
                        confidence=round(min(confidence, 1.0), 6),
                        matcher=self.name,
                    )
                )
        return correspondences
