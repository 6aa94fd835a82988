"""The loss between query trees (paper Section 4, Equation 2).

The MIRA update requires every alternative tree ``T`` to be separated from
the user-preferred target tree ``Tr`` by a margin equal to the loss
``L(Tr, T)``.  The paper uses the symmetric edge-set difference.
"""

from __future__ import annotations

from ..steiner.tree import SteinerTree


def symmetric_edge_loss(target: SteinerTree, other: SteinerTree) -> float:
    """``|E(T) \\ E(T')| + |E(T') \\ E(T)|`` — Equation 2 of the paper."""
    return float(len(target.edge_ids ^ other.edge_ids))

