"""Feature-based edge costs (paper Section 3.4, Equation 1).

Every edge of the search graph carries a *feature vector* ``f(i, j)`` — a
plain ``{feature name: value}`` dict the edge holds as ``Edge.features`` and
never writes into; the system maintains a single global *weight vector*
``w``; and the edge cost is the dot product ``C((i, j), w) = w · f(i, j)``.

The standard features attached to an association edge are:

* ``DEFAULT_FEATURE`` — value 1 on every edge; its weight is the uniform
  cost offset that keeps all edge costs positive.
* ``matcher_feature(name)`` — the (possibly binned) confidence score of each
  schema matcher that proposed the edge; its weight encodes how much that
  matcher is trusted.
* ``relation_feature(relation)`` — value 1 for each relation an edge
  touches; its weight is the negated log-authoritativeness of the relation.
* ``edge_feature(edge_id)`` — value 1 only on that edge; its weight is a
  per-edge cost correction, which is what lets feedback suppress one
  specific bad alignment.

Real-valued matcher confidences can optionally be *binned* into indicator
features (see :mod:`repro.learning.binning`), as the paper does to avoid
mixing real-valued and Boolean features in MIRA.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

DEFAULT_FEATURE = "default"
_MATCHER_PREFIX = "matcher::"
_RELATION_PREFIX = "relation::"
_EDGE_PREFIX = "edge::"
_BIN_PREFIX = "bin::"


def matcher_feature(matcher_name: str) -> str:
    """Feature name carrying the confidence of matcher ``matcher_name``.

    Interned, like :func:`relation_feature`: the edges of a registration name
    the same few matchers and relations and share one string per name, which
    the interpreter drops with the last edge that holds it.
    """
    return sys.intern(f"{_MATCHER_PREFIX}{matcher_name}")


def relation_feature(relation: str) -> str:
    """Feature name for the authoritativeness of ``relation`` (interned)."""
    return sys.intern(f"{_RELATION_PREFIX}{relation}")


def edge_feature(edge_id: str) -> str:
    """Feature name identifying a single edge."""
    return f"{_EDGE_PREFIX}{edge_id}"


def bin_feature(base_feature: str, bin_index: int) -> str:
    """Indicator feature for ``base_feature`` falling in bin ``bin_index``."""
    return f"{_BIN_PREFIX}{base_feature}::{bin_index}"


def is_matcher_feature(name: str) -> bool:
    """Whether ``name`` is a matcher-confidence feature (possibly binned)."""
    return name.startswith(_MATCHER_PREFIX) or (
        name.startswith(_BIN_PREFIX) and _MATCHER_PREFIX in name
    )


def is_edge_feature(name: str) -> bool:
    """Whether ``name`` is a per-edge identity feature."""
    return name.startswith(_EDGE_PREFIX)


def is_relation_feature(name: str) -> bool:
    """Whether ``name`` is a per-relation authoritativeness feature."""
    return name.startswith(_RELATION_PREFIX)


def matchers_of(features: Mapping[str, float]) -> Dict[str, float]:
    """Matcher name -> raw confidence, read off the ``matcher::`` features in order."""
    skip = len(_MATCHER_PREFIX)
    return {name[skip:]: value for name, value in features.items() if name.startswith(_MATCHER_PREFIX)}


#: The features of every edge that carries none (membership edges): one
#: shared read-only mapping.
NO_FEATURES: Mapping[str, float] = MappingProxyType({})


class WeightVector:
    """The global weight vector ``w`` learned by MIRA.

    Unknown features have weight 0 by default; a *default weight* per
    feature prefix can be installed so that, e.g., every matcher-confidence
    feature starts with a sensible prior weight before any learning.
    """

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self._weights: Dict[str, float] = dict(weights or {})
        #: Monotonically increasing mutation counter.  All edge costs are
        #: functions of this vector, so callers (e.g. the incremental view
        #: refresh) can use the version to detect that *no* cost changed
        #: since their last computation and skip re-solving.
        self.version = 0

    # ------------------------------------------------------------------
    # Access / mutation
    # ------------------------------------------------------------------
    def get(self, feature: str, default: float = 0.0) -> float:
        """Weight of ``feature`` (``default`` if never set)."""
        return self._weights.get(feature, default)

    def set(self, feature: str, weight: float) -> None:
        """Set the weight of one feature."""
        self._weights[feature] = weight
        self.version += 1

    def update(self, deltas: Mapping[str, float]) -> None:
        """Add ``deltas`` to the current weights (creating entries as needed)."""
        for feature, delta in deltas.items():
            self._weights[feature] = self._weights.get(feature, 0.0) + delta
        self.version += 1

    def gather(self, positions: Mapping[str, int]) -> List[float]:
        """The weight of each feature of ``positions``, in its order: what
        :meth:`get` returns for it, one dict read each."""
        return list(map(self._weights.get, positions, itertools.repeat(0.0)))

    def items(self) -> Iterable[Tuple[str, float]]:
        """Iterate over (feature, weight) pairs that have been set."""
        return self._weights.items()

    def as_dict(self) -> Dict[str, float]:
        """A copy of the underlying mapping."""
        return dict(self._weights)

    def copy(self) -> "WeightVector":
        """An independent copy of this weight vector."""
        return WeightVector(self._weights)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def dot(self, features: Mapping[str, float]) -> float:
        """Dot product ``w · f`` over the features present in ``features``.

        ``get(name) * value`` summed in ``features``' order, with the weights
        read straight off the dict (a subclass whose :meth:`get` reads
        elsewhere overrides this).
        """
        weights = map(self._weights.get, features, itertools.repeat(0.0))
        return sum(map(operator.mul, weights, features.values()))

    def cost(self, features: Mapping[str, float]) -> float:
        """Alias of :meth:`dot`: the cost of an edge with feature vector ``features``."""
        return self.dot(features)

    def distance_to(self, other: "WeightVector") -> float:
        """Euclidean distance between two weight vectors."""
        names = set(self._weights) | set(other._weights)
        # fsum is exactly rounded, hence independent of the set's iteration order.
        return math.fsum((self.get(n) - other.get(n)) ** 2 for n in names) ** 0.5

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, feature: object) -> bool:
        return feature in self._weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightVector({len(self._weights)} features)"
