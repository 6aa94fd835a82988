"""Binning of real-valued features into indicator features (paper Section 4).

"Using real-valued features directly in the algorithm can cause poor
learning because of the different ranges of different real-valued and binary
features.  Therefore ... we bin the real-valued features into empirically
determined bins; the real-valued features are then replaced by features
indicating bin membership."

The :class:`FeatureBinner` rewrites edge feature vectors in place: each
configured real-valued feature (typically the matcher-confidence features
and the keyword-mismatch feature) is replaced by a one-hot bin indicator,
and the corresponding bin weights are initialized so that the edge costs are
unchanged by the rewrite (weight of bin ``i`` = old weight × bin center).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..graph.edges import Edge
from ..graph.features import bin_feature, is_matcher_feature
from ..graph.search_graph import SearchGraph


@dataclass
class FeatureBinner:
    """Rewrites selected real-valued features as bin-membership indicators.

    Parameters
    ----------
    num_bins:
        Number of equal-width bins over ``[lower, upper]``.
    lower, upper:
        The value range to bin (confidences and mismatch costs live in
        ``[0, 1]``).
    """

    num_bins: int = 5
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if self.num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if self.upper <= self.lower:
            raise ValueError("upper must be greater than lower")

    # ------------------------------------------------------------------
    # Bin arithmetic
    # ------------------------------------------------------------------
    def bin_index(self, value: float) -> int:
        """The bin index of ``value`` (values outside the range are clamped)."""
        if value <= self.lower:
            return 0
        if value >= self.upper:
            return self.num_bins - 1
        width = (self.upper - self.lower) / self.num_bins
        return min(int((value - self.lower) / width), self.num_bins - 1)

    def bin_center(self, index: int) -> float:
        """The center value of bin ``index``."""
        width = (self.upper - self.lower) / self.num_bins
        return self.lower + (index + 0.5) * width

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def bin_vector(
        self, features: Mapping[str, float], features_to_bin: Iterable[str]
    ) -> Dict[str, float]:
        """Return ``features`` with the selected features replaced by bin indicators."""
        to_bin = set(features_to_bin)
        values: Dict[str, float] = {}
        for name, value in features.items():
            if name in to_bin:
                values[bin_feature(name, self.bin_index(value))] = 1.0
            else:
                values[name] = value
        return values

    def apply_to_graph(
        self,
        graph: SearchGraph,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Rewrite every learnable edge of ``graph``; returns the number rewritten.

        Parameters
        ----------
        graph:
            The search graph whose edges (and weights) are rewritten.
        feature_names:
            The real-valued features to bin; defaults to every
            matcher-confidence feature found in the graph.
        """
        rewritten = 0
        for edge in graph.learnable_edges():
            if feature_names is None:
                targets = [n for n in edge.features if is_matcher_feature(n)]
            else:
                targets = [n for n in feature_names if n in edge.features]
            if not targets:
                continue
            # Initialize bin weights so that costs are preserved.
            for name in targets:
                value = edge.features.get(name)
                index = self.bin_index(value)
                binned_name = bin_feature(name, index)
                if binned_name not in graph.weights:
                    base_weight = graph.weights.get(name, 0.0)
                    graph.weights.set(binned_name, base_weight * self.bin_center(index))
            # Spelled-out metadata keeps the raw confidences under ``matchers``
            # once the ``matcher::`` features they were read off are gone.
            graph.replace_edge(edge.changed(self.bin_vector(edge.features, targets), dict(edge.metadata)))
            rewritten += 1
        return rewritten
