"""Combining multiple matchers (paper Section 3.2.3).

The ensemble runs every configured matcher over a relation pair (or a whole
set of tables), merges the per-matcher confidences for each attribute pair,
and exposes:

* the merged per-matcher confidence map — what
  :meth:`repro.graph.search_graph.SearchGraph.add_associations` installs,
  one batch per registration, so that each matcher's confidence becomes its
  own weighted feature;
* a simple *averaged* score — the no-feedback baseline of Figure 11
  ("the matchers' scores are simply averaged for every edge").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..datastore.table import Table
from .base import (
    AttributeRef,
    BaseMatcher,
    Correspondence,
    group_correspondences,
    pair_key,
    top_y_per_attribute,
)
from .mad import MadMatcher


@dataclass
class EnsembleAlignment:
    """One attribute pair with the confidences assigned by each matcher."""

    source: AttributeRef
    target: AttributeRef
    confidences: Dict[str, float] = field(default_factory=dict)

    @property
    def average_confidence(self) -> float:
        """Unweighted mean of the per-matcher confidences (Figure 11 baseline)."""
        if not self.confidences:
            return 0.0
        return sum(self.confidences.values()) / len(self.confidences)

    @property
    def max_confidence(self) -> float:
        """Highest confidence any matcher assigned."""
        return max(self.confidences.values()) if self.confidences else 0.0

    def key(self) -> Tuple[str, str]:
        """Order-independent identity of the attribute pair."""
        return pair_key(self.source, self.target)


class MatcherEnsemble:
    """Runs several matchers and merges their outputs per attribute pair.

    Parameters
    ----------
    matchers:
        Member matchers.
    top_y:
        How many candidate pairs to keep per attribute after merging.

    The ensemble wires nothing: each member reads the profile index it was
    handed (:meth:`~repro.matching.base.BaseMatcher.attach_index`), or none.
    """

    def __init__(self, matchers: Sequence[BaseMatcher], top_y: int = 2) -> None:
        if not matchers:
            raise ValueError("the ensemble needs at least one matcher")
        self.matchers = list(matchers)
        self.top_y = top_y

    # ------------------------------------------------------------------
    # Pairwise interface
    # ------------------------------------------------------------------
    def match_relations(self, table_a: Table, table_b: Table) -> List[EnsembleAlignment]:
        """Run every matcher on one relation pair and merge the results."""
        correspondences: List[Correspondence] = []
        for matcher in self.matchers:
            correspondences.extend(matcher.match_relations(table_a, table_b))
        return self._merge(correspondences)

    # ------------------------------------------------------------------
    # Whole-catalog interface
    # ------------------------------------------------------------------
    def match_tables(self, tables: Sequence[Table]) -> List[EnsembleAlignment]:
        """Run every matcher across all ``tables``.

        Pairwise matchers are applied to every relation pair; the MAD
        matcher (and any other matcher exposing ``match_tables``) is run
        once globally, which is cheaper and is how the paper uses it.
        """
        correspondences: List[Correspondence] = []
        for matcher in self.matchers:
            if hasattr(matcher, "match_tables"):
                correspondences.extend(matcher.match_tables(tables))  # type: ignore[attr-defined]
                continue
            for i, table_a in enumerate(tables):
                for table_b in tables[i + 1 :]:
                    correspondences.extend(matcher.match_relations(table_a, table_b))
        return self._merge(correspondences)

    # ------------------------------------------------------------------
    # Post-processing
    # ------------------------------------------------------------------
    def _merge(self, correspondences: Iterable[Correspondence]) -> List[EnsembleAlignment]:
        # Merge per attribute pair first so that top-Y selection is over
        # *pairs* (ranked by their best confidence across matchers), not
        # over individual matcher outputs — otherwise a strong matcher's
        # proposals could crowd a weaker matcher's evidence for the same
        # pair out of the selection.  Top-Y returns the kept pairs ranked.
        best_per_pair = {
            Correspondence(source, target, max(confidences.values()), "ensemble"): confidences
            for source, target, confidences in group_correspondences(correspondences)
        }
        return [
            EnsembleAlignment(kept.source, kept.target, best_per_pair[kept])
            for kept in top_y_per_attribute(best_per_pair, self.top_y)
        ]

    def reset_counters(self) -> None:
        """Reset the comparison instrumentation of every member matcher."""
        for matcher in self.matchers:
            matcher.reset_counters()

    @property
    def total_attribute_comparisons(self) -> int:
        """Sum of attribute comparisons across member matchers."""
        return sum(m.counter.attribute_comparisons for m in self.matchers)
