"""Steiner-tree algorithms for keyword query interpretation.

Public API
----------
* :class:`SteinerTree` — value object for a tree plus its cost.
* :func:`exact_steiner_tree` — Dreyfus–Wagner exact DP (small terminal sets).
* :func:`approximate_steiner_tree` — distance-network 2-approximation.
* :class:`KBestSteiner`, :func:`k_best_steiner_trees` — top-k enumeration
  (``KBESTSTEINER`` of Algorithm 4).
* :class:`SteinerNetwork` — reusable integer-indexed graph snapshot the
  solvers (and the top-k enumerator) run on; its ``default_tree`` is the
  exact-or-approximate dispatch used by the system.
"""

from .network import SteinerNetwork, approximate_steiner_tree, exact_steiner_tree
from .topk import KBestSteiner, k_best_steiner_trees
from .tree import SteinerTree, validate_terminals

__all__ = [
    "KBestSteiner",
    "SteinerNetwork",
    "SteinerTree",
    "approximate_steiner_tree",
    "exact_steiner_tree",
    "k_best_steiner_trees",
    "validate_terminals",
]
