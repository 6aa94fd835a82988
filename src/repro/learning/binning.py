"""Binning of real-valued features into indicator features (paper Section 4).

"Using real-valued features directly in the algorithm can cause poor
learning because of the different ranges of different real-valued and binary
features.  Therefore ... we bin the real-valued features into empirically
determined bins; the real-valued features are then replaced by features
indicating bin membership."

The :class:`FeatureBinner` maps an edge's feature vector to its binned
form: each selected real-valued feature (typically the matcher-confidence
features and the keyword-mismatch feature) is replaced by a one-hot bin
indicator.  Initializing the weight of bin ``i`` to the old weight × the bin
center keeps a rewritten edge's cost close to what it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from ..graph.features import bin_feature


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
