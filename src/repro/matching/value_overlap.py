"""Value-overlap matcher and filter.

Two roles:

* :class:`ValueOverlapMatcher` — a simple instance-based matcher scoring
  attribute pairs by the containment of their distinct value sets.
  Dispatchable as ``"value_overlap"``; wires the experiments' initial search
  graphs and serves the tests as a sanity baseline.
* :class:`ValueOverlapFilter` — the "Value Overlap Filter" of the Figure 7
  experiment: given a content index, only attribute pairs that share at
  least one value (and hence could join) are compared at all.

Both read a :class:`~repro.profiling.index.CatalogProfileIndex`, the only
summary of a table's values: candidate attribute pairs come from
**posting-list intersection** (cost proportional to actual value
co-occurrences), never from a nested all-pairs loop over the tables.  A pair
sharing no value cannot clear ``min_shared_values >= 1``, so the blocking is
lossless: the correspondences and pair counts are those of comparing every
attribute pair's distinct value sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..datastore.table import Table
from ..profiling.index import CatalogProfileIndex
from ..similarity.jaccard import max_containment
from .base import BaseMatcher, Correspondence


class ValueOverlapMatcher(BaseMatcher):
    """Scores attribute pairs by the overlap of their distinct values.

    Parameters
    ----------
    min_confidence, min_shared_values:
        Acceptance thresholds.  ``min_shared_values`` must be at least 1:
        candidate pairs come from posting-list intersection, which is exact
        only for pairs sharing a value.
    profile_index:
        Optional shared :class:`CatalogProfileIndex` (see
        :meth:`~repro.matching.base.BaseMatcher.index_for`).
    """

    name = "value_overlap"

    def __init__(
        self,
        min_confidence: float = 0.1,
        min_shared_values: int = 1,
        profile_index: Optional[CatalogProfileIndex] = None,
    ) -> None:
        if min_shared_values < 1:
            raise ValueError(f"min_shared_values must be >= 1, got {min_shared_values}")
        super().__init__(profile_index)
        self.min_confidence = min_confidence
        self.min_shared_values = min_shared_values

    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Align attributes of two relations by distinct-value containment.

        Candidate pairs come from ``table_a``'s posting-list candidate maps;
        they are walked in ``table_b``'s schema order.
        """
        relation_a = table_a.schema.qualified_name
        relation_b = table_b.schema.qualified_name
        if relation_a == relation_b:
            return []
        self.counter.record_relation_pair(
            len(table_a.schema.attribute_names), len(table_b.schema.attribute_names)
        )
        index = self.index_for((table_a, table_b))
        refs_b = table_b.schema.attribute_refs
        floor, min_shared, name = self.min_confidence, self.min_shared_values, self.name
        correspondences: List[Correspondence] = []
        for ref_a in table_a.schema.attribute_refs:
            candidates = index.value_candidates(relation_a, ref_a.attribute)
            if not candidates:
                continue
            values_a = index.profile(relation_a, ref_a.attribute).distinct_values
            for ref_b in refs_b:
                if candidates.get((relation_b, ref_b.attribute), 0) < min_shared:
                    continue
                values_b = index.profile(relation_b, ref_b.attribute).distinct_values
                confidence = max_containment(values_a, values_b)
                if confidence >= floor:
                    correspondences.append(Correspondence(ref_a, ref_b, round(confidence, 6), name))
        return correspondences

    def match_tables(self, tables: Sequence[Table]) -> List[Correspondence]:
        """Align every relation pair of ``tables``.

        The global interface mirrors :meth:`MadMatcher.match_tables`; the
        all-pairs relation loop only pays for pairs that actually share values.
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

        Read off the index's posting-list candidate maps of ``table_a``.
        """
        return self.index.comparable_pair_count(
            table_a.schema.qualified_name, table_b.schema.qualified_name, self.min_shared_values
        )
