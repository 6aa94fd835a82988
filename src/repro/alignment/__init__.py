"""Aligner strategies for incorporating new sources (paper Section 3.3).

Public API
----------
* :class:`ExhaustiveAligner` — match a new source against every existing
  relation (the quadratic baseline).
* :class:`ViewBasedAligner` — Algorithm 2: restrict matching to the α-cost
  neighborhood of an existing view's keywords (lossless pruning).
* :class:`PreferentialAligner` — Algorithm 3: follow a preference prior over
  existing relations, within a budget.
* :class:`ProfileBlockedAligner` — index-driven pruning: only relations the
  profile index's (tiered) candidate generation proposes are matched.
* :class:`SourceRegistrar` — the registration service that wires a new
  source into the catalog, search graph and aligner.
* :class:`AlignmentResult`, :func:`install_associations`,
  :func:`prior_from_weights`, :func:`score_pairs` — shared plumbing.
"""

from .base import AlignmentResult, BaseAligner, install_associations, score_pairs
from .exhaustive import ExhaustiveAligner
from .preferential import PreferentialAligner, prior_from_weights
from .profile_blocked import ProfileBlockedAligner
from .registration import RegistrationRecord, SourceRegistrar
from .view_based import ViewBasedAligner

__all__ = [
    "AlignmentResult",
    "BaseAligner",
    "ExhaustiveAligner",
    "PreferentialAligner",
    "ProfileBlockedAligner",
    "RegistrationRecord",
    "SourceRegistrar",
    "ViewBasedAligner",
    "install_associations",
    "prior_from_weights",
    "score_pairs",
]
