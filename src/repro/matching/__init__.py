"""Schema matchers: metadata (COMA++ stand-in), MAD label propagation, value overlap.

Public API
----------
* :class:`BaseMatcher`, :class:`Correspondence`, :class:`AttributeRef`,
  :func:`top_y_per_attribute`, :func:`group_correspondences` — the black-box
  matcher interface (paper Section 3.2).
* :class:`MetadataMatcher` — metadata-only matcher standing in for COMA++.
* :class:`MadMatcher`, :func:`run_mad`, :func:`build_column_value_graph` —
  the Modified Adsorption instance-based matcher (Algorithm 1).
* :class:`ValueOverlapMatcher`, :class:`ValueOverlapFilter` — instance
  overlap scoring and the Figure 7 comparison filter.
* :class:`MatcherEnsemble`, :class:`EnsembleAlignment` — combining matchers
  (Section 3.2.3).
* :func:`resolve_matcher`, :func:`available_matchers` — the built-in
  matchers by name, as requests reference them.
"""

from types import MappingProxyType
from typing import Tuple, Union

from ..exceptions import UnknownMatcherError
from .base import (
    AttributeRef,
    BaseMatcher,
    ComparisonCounter,
    Correspondence,
    group_correspondences,
    top_y_per_attribute,
)
from .ensemble import EnsembleAlignment, MatcherEnsemble
from .mad import (
    DUMMY_LABEL,
    MadConfig,
    MadMatcher,
    compute_walk_probabilities,
    normalize_distribution,
    run_mad,
)
from .mad_graph import (
    MadGraphConfig,
    PropagationGraph,
    attribute_graph_node,
    build_column_value_graph,
    value_graph_node,
)
from .metadata_matcher import MetadataMatcher, MetadataMatcherConfig
from .value_overlap import ValueOverlapFilter, ValueOverlapMatcher

#: The matchers a request may name, by their canonical names (the same
#: names that appear in Correspondence.matcher / edge feature names).  The
#: table is closed: a new matcher is a new row here.
_MATCHERS = MappingProxyType({cls.name: cls for cls in (MetadataMatcher, MadMatcher, ValueOverlapMatcher)})


def available_matchers() -> Tuple[str, ...]:
    """Sorted names of every matcher a request may name."""
    return tuple(sorted(_MATCHERS))


def resolve_matcher(matcher: Union[str, BaseMatcher]) -> BaseMatcher:
    """Resolve a matcher reference: instances pass through, names build a fresh one.

    A fresh instance per name, because matchers carry mutable comparison
    counters that shared singletons would corrupt (Figures 7 and 8).

    Raises
    ------
    UnknownMatcherError
        If ``matcher`` is a string naming no matcher; the error lists the
        valid options.
    """
    if isinstance(matcher, BaseMatcher):
        return matcher
    cls = _MATCHERS.get(matcher)
    if cls is None:
        raise UnknownMatcherError(matcher, available_matchers())
    return cls()

__all__ = [
    "AttributeRef",
    "BaseMatcher",
    "ComparisonCounter",
    "Correspondence",
    "DUMMY_LABEL",
    "EnsembleAlignment",
    "MadConfig",
    "MadGraphConfig",
    "MadMatcher",
    "MatcherEnsemble",
    "MetadataMatcher",
    "MetadataMatcherConfig",
    "PropagationGraph",
    "ValueOverlapFilter",
    "ValueOverlapMatcher",
    "attribute_graph_node",
    "available_matchers",
    "resolve_matcher",
    "build_column_value_graph",
    "compute_walk_probabilities",
    "group_correspondences",
    "normalize_distribution",
    "run_mad",
    "top_y_per_attribute",
    "value_graph_node",
]
