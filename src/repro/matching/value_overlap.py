"""Value-overlap matcher and filter.

Two roles:

* :class:`ValueOverlapMatcher` — a simple instance-based matcher scoring
  attribute pairs by the containment of their distinct value sets.
  Dispatchable as ``"value_overlap"``; wires the experiments' initial search
  graphs and serves the tests as a sanity baseline.
* :class:`ValueOverlapFilter` — the "Value Overlap Filter" of the Figure 7
  experiment: given a content index, only attribute pairs that share at
  least one value (and hence could join) are compared at all.

Both are backed by the shared
:class:`~repro.profiling.index.CatalogProfileIndex` when one is supplied:
candidate attribute pairs are generated by **posting-list intersection**
(cost proportional to actual value co-occurrences) instead of the seed's
nested all-pairs loops.  Because a pair with zero shared values can never
clear ``min_shared_values >= 1``, the blocking is lossless — the returned
correspondences (and the filter's pair counts) are identical to the
exhaustive scan, which survives only as the fallback for unindexed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..datastore.table import Table
from ..profiling.index import CatalogProfileIndex
from ..similarity.jaccard import max_containment
from .base import BaseMatcher, Correspondence


class ValueOverlapMatcher(BaseMatcher):
    """Scores attribute pairs by the overlap of their distinct values.

    Parameters
    ----------
    min_confidence, min_shared_values:
        Acceptance thresholds.
    profile_index:
        Optional shared :class:`CatalogProfileIndex`.  When both relations
        are indexed (and their profiles are current), candidate pairs come
        from posting-list intersection instead of the all-pairs loop; the
        result is identical because pairs sharing no value cannot pass
        ``min_shared_values``.
    """

    name = "value_overlap"

    def __init__(
        self,
        min_confidence: float = 0.1,
        min_shared_values: int = 1,
        profile_index: Optional[CatalogProfileIndex] = None,
    ) -> None:
        super().__init__(profile_index)
        self.min_confidence = min_confidence
        self.min_shared_values = min_shared_values

    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Align attributes of two relations by distinct-value containment."""
        relation_a = table_a.schema.qualified_name
        relation_b = table_b.schema.qualified_name
        if relation_a == relation_b:
            return []
        self.counter.record_relation_pair(
            len(table_a.schema.attribute_names), len(table_b.schema.attribute_names)
        )
        if self._can_block(table_a, table_b):
            return self._match_blocked(table_a, table_b)
        return self._match_exhaustive(table_a, table_b)

    # ------------------------------------------------------------------
    # Blocked (posting-list) candidate generation
    # ------------------------------------------------------------------
    def _can_block(self, table_a: Table, table_b: Table) -> bool:
        index = self.profile_index
        return (
            index is not None
            and self.min_shared_values >= 1
            and index.is_current(table_a)
            and index.is_current(table_b)
        )

    def _match_blocked(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        index = self.profile_index
        assert index is not None
        relation_b = table_b.schema.qualified_name
        refs_b = table_b.schema.attribute_refs
        floor, min_shared, name = self.min_confidence, self.min_shared_values, self.name
        correspondences: List[Correspondence] = []
        for ref_a in table_a.schema.attribute_refs:
            candidates = index.value_candidates(ref_a.relation, ref_a.attribute)
            if not candidates:
                continue
            profile_a = index.profile(ref_a.relation, ref_a.attribute)
            values_a = profile_a.distinct_values if profile_a is not None else frozenset()
            # Iterate the candidate attributes in schema order so the output
            # order matches the exhaustive loop exactly.
            for ref_b in refs_b:
                if candidates.get((relation_b, ref_b.attribute), 0) < min_shared:
                    continue
                profile_b = index.profile(relation_b, ref_b.attribute)
                values_b = profile_b.distinct_values if profile_b is not None else frozenset()
                confidence = max_containment(values_a, values_b)
                if confidence >= floor:
                    correspondences.append(Correspondence(ref_a, ref_b, round(confidence, 6), name))
        return correspondences

    # ------------------------------------------------------------------
    # Exhaustive fallback (the Figure 7 "no filter" baseline semantics)
    # ------------------------------------------------------------------
    def _match_exhaustive(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        refs_b = table_b.schema.attribute_refs
        floor, min_shared, name = self.min_confidence, self.min_shared_values, self.name
        correspondences: List[Correspondence] = []
        for ref_a in table_a.schema.attribute_refs:
            values_a = table_a.distinct_values(ref_a.attribute)
            if not values_a:
                continue
            for ref_b in refs_b:
                values_b = table_b.distinct_values(ref_b.attribute)
                if not values_b or len(values_a & values_b) < min_shared:
                    continue
                confidence = max_containment(values_a, values_b)
                if confidence >= floor:
                    correspondences.append(Correspondence(ref_a, ref_b, round(confidence, 6), name))
        return correspondences

    def match_tables(self, tables: Sequence[Table]) -> List[Correspondence]:
        """Align every relation pair of ``tables`` (blocked where possible).

        The global interface mirrors :meth:`MadMatcher.match_tables`; with a
        profile index the all-pairs relation loop only pays for pairs that
        actually share values.
        """
        correspondences: List[Correspondence] = []
        for i, table_a in enumerate(tables):
            for table_b in tables[i + 1 :]:
                correspondences.extend(self.match_relations(table_a, table_b))
        return correspondences


@dataclass
class ValueOverlapFilter:
    """Prunes attribute comparisons to pairs that share at least one value.

    Mirrors the "Value Overlap Filter" assumption of Figure 7: a content
    index is available for both the existing sources and the new source, so
    comparisons can be restricted to attribute pairs that can actually join.

    The backing index is a shared
    :class:`~repro.profiling.index.CatalogProfileIndex` (the registration
    service maintains one incrementally).
    """

    index: CatalogProfileIndex
    min_shared_values: int = 1

    @classmethod
    def from_tables(cls, tables: Sequence[Table], min_shared_values: int = 1) -> "ValueOverlapFilter":
        """Build a filter by profiling ``tables`` into a fresh index."""
        return cls(
            index=CatalogProfileIndex.from_tables(tables),
            min_shared_values=min_shared_values,
        )

    @classmethod
    def from_index(
        cls, index: CatalogProfileIndex, min_shared_values: int = 1
    ) -> "ValueOverlapFilter":
        """Wrap an existing (shared, incrementally maintained) index."""
        return cls(index=index, min_shared_values=min_shared_values)

    def allows(
        self, relation_a: str, attribute_a: str, relation_b: str, attribute_b: str
    ) -> bool:
        """Whether the attribute pair shares enough values to be worth comparing."""
        return (
            self.index.overlap(relation_a, attribute_a, relation_b, attribute_b)
            >= self.min_shared_values
        )

    def comparable_pairs(self, table_a: Table, table_b: Table) -> int:
        """Number of attribute pairs of the two relations that pass the filter.

        Answered from posting-list candidate maps when the index's profiles
        of both relations are current (identical count, no nested loop); the
        pairwise ``allows`` scan remains as the fallback.
        """
        relation_a = table_a.schema.qualified_name
        relation_b = table_b.schema.qualified_name
        if (
            relation_a != relation_b
            and self.min_shared_values >= 1
            and self.index.is_current(table_a)
            and self.index.is_current(table_b)
        ):
            return self.index.comparable_pair_count(
                relation_a, relation_b, self.min_shared_values
            )
        count = 0
        for attr_a in table_a.schema.attribute_names:
            for attr_b in table_b.schema.attribute_names:
                if self.allows(relation_a, attr_a, relation_b, attr_b):
                    count += 1
        return count
