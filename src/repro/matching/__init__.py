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
"""

from .base import (
    AttributeRef,
    BaseMatcher,
    ComparisonCounter,
    Correspondence,
    available_matchers,
    group_correspondences,
    register_matcher,
    resolve_matcher,
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

# The built-in matchers, dispatchable by their canonical names (the same
# names that appear in Correspondence.matcher / edge feature names).
register_matcher(MetadataMatcher.name, MetadataMatcher)
register_matcher(MadMatcher.name, MadMatcher)
register_matcher(ValueOverlapMatcher.name, ValueOverlapMatcher)

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
    "register_matcher",
    "resolve_matcher",
    "build_column_value_graph",
    "compute_walk_probabilities",
    "group_correspondences",
    "normalize_distribution",
    "run_mad",
    "top_y_per_attribute",
    "value_graph_node",
]
