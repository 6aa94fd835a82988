"""Per-tenant weight overlays for multi-tenant serving.

The paper's Q system learns one global weight vector from user feedback.
When many users share one catalog, their feedback can disagree — one user's
"invalid" join path is another user's preferred one.  The serving layer
(:mod:`repro.service`) resolves this with *overlays*: every tenant ranks
answers under a :class:`OverlayWeightVector` that reads through to the
shared base :class:`~repro.graph.features.WeightVector` but records its own
MIRA updates as a sparse delta (*shadow*) on top.  The base vector is never
mutated by tenant feedback, so tenants personalize ranking without forking
the graph, and registration-time weight seeding remains visible to every
tenant immediately.

Overlays are deliberately storage-free value objects; durability is handled
by :mod:`repro.persist`, which snapshots each tenant's shadow dict alongside
the session overlay.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..graph.features import WeightVector
from ..graph.search_graph import SearchGraph


class OverlayWeightVector(WeightVector):
    """A weight vector layered over a shared, read-only base.

    Reads fall through to ``base`` for any feature the overlay has not
    changed; writes land in the overlay's *shadow* mapping only, never in
    the base.  A shadow entry that is set back to the base's exact value is
    dropped, so the shadow stays a sparse diff of the features tenant
    feedback moved.

    The effective ``version`` is ``base.version + local_version``: it moves
    when *either* the shared base learns (registration seeding, base-session
    feedback) or the tenant's own overlay learns, so version-pinned caches
    (ranked views, Steiner network caches, read snapshots) invalidate
    correctly for tenants too.

    Implementation note: ``_weights`` holds the *shadow* mapping.  The base
    class accesses ``other._weights`` directly only in
    :meth:`~repro.graph.features.WeightVector.distance_to`, where a missing
    base-only name on one side is always supplied by the flattened other
    side, and lookups go through :meth:`get`, which falls through — so the
    inherited algebra stays correct.
    """

    def __init__(
        self,
        base: WeightVector,
        shadow: Optional[Mapping[str, float]] = None,
        local_version: int = 0,
    ) -> None:
        # Intentionally not calling WeightVector.__init__: it assigns
        # ``self.version = 0``, which would collide with the property below.
        self.base = base
        self._weights: Dict[str, float] = dict(shadow or {})
        self._local_version = int(local_version)

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:  # type: ignore[override]
        """Effective mutation counter: shared base plus local overlay."""
        return self.base.version + self._local_version

    @version.setter
    def version(self, value: int) -> None:
        self._local_version = int(value) - self.base.version

    @property
    def local_version(self) -> int:
        """Mutations applied to this overlay alone (persisted per tenant)."""
        return self._local_version

    # ------------------------------------------------------------------
    # Access / mutation
    # ------------------------------------------------------------------
    def get(self, feature: str, default: float = 0.0) -> float:
        """Effective weight: the shadow value if set, else the base's."""
        shadowed = self._weights.get(feature)
        if shadowed is not None:
            return shadowed
        return self.base.get(feature, default)

    def set(self, feature: str, weight: float) -> None:
        """Set one feature in the overlay; the base is never touched."""
        self._store(feature, weight)
        self._local_version += 1

    def update(self, deltas: Mapping[str, float]) -> None:
        """Add ``deltas`` to the effective weights, recording shadow entries."""
        for feature, delta in deltas.items():
            self._store(feature, self.get(feature) + delta)
        self._local_version += 1

    def dot(self, features: Mapping[str, float]) -> float:
        """``w · f`` under the effective weights, summed in ``features``' order."""
        return sum(self.get(name) * value for name, value in features.items())

    def gather(self, positions: Mapping[str, int]) -> List[float]:
        """The base's weights of ``positions`` with the shadow patched in."""
        values = self.base.gather(positions)
        for feature, weight in self._weights.items():
            position = positions.get(feature)
            if position is not None:
                values[position] = weight
        return values

    def _store(self, feature: str, weight: float) -> None:
        if feature in self.base and self.base.get(feature) == weight:
            # Identical to the shared value: keep the shadow a sparse diff.
            self._weights.pop(feature, None)
        else:
            self._weights[feature] = weight

    # ------------------------------------------------------------------
    # Flattened views
    # ------------------------------------------------------------------
    def items(self) -> Iterable[Tuple[str, float]]:
        """Iterate over effective (feature, weight) pairs."""
        return self.as_dict().items()

    def as_dict(self) -> Dict[str, float]:
        """The effective (base + shadow) mapping, flattened."""
        merged = self.base.as_dict()
        merged.update(self._weights)
        return merged

    def copy(self) -> WeightVector:
        """An independent *flattened* plain :class:`WeightVector`.

        MIRA's Hildreth solver starts from ``weights.copy()`` and mutates
        the copy freely; handing it a detached flat vector keeps the solve
        from ever writing through to the base or the live shadow.
        """
        return WeightVector(self.as_dict())

    def shadow_dict(self) -> Dict[str, float]:
        """A copy of the sparse shadow alone (what persistence stores)."""
        return dict(self._weights)

    def __len__(self) -> int:
        return len(set(self.base.as_dict()) | set(self._weights))

    def __contains__(self, feature: object) -> bool:
        return feature in self._weights or feature in self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayWeightVector({len(self._weights)} shadowed over "
            f"{len(self.base)} base features)"
        )


def graph_with_weights(graph: SearchGraph, weights: WeightVector) -> SearchGraph:
    """A structural clone of ``graph`` priced under ``weights``.

    Shares node/edge/adjacency *objects* with the original (they are
    immutable once published) but swaps in a different weight vector — this
    is how one expanded query graph serves many tenants: same topology,
    per-tenant costs.
    """
    clone = graph.copy(share_weights=True)
    clone.weights = weights
    return clone


class TenantProfile:
    """One tenant's personalization state."""

    __slots__ = ("name", "overlay", "events_applied")

    def __init__(self, name: str, overlay: OverlayWeightVector, events_applied: int = 0) -> None:
        self.name = name
        self.overlay = overlay
        self.events_applied = events_applied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantProfile({self.name!r}, {self.overlay!r})"


class TenantRegistry:
    """All tenant overlays of one session, keyed by tenant name.

    Profiles are created on first use (first query or feedback naming the
    tenant).  Creation is locked because reads naming a brand-new tenant can
    arrive concurrently on the serving layer's reader threads; everything else on
    a profile is either read-only from readers or funneled through the
    single writer.
    """

    def __init__(self, base_weights: WeightVector) -> None:
        self.base_weights = base_weights
        self._profiles: Dict[str, TenantProfile] = {}
        self._lock = threading.Lock()

    def profile(self, name: str) -> TenantProfile:
        """Get or create the profile for tenant ``name``."""
        profile = self._profiles.get(name)
        if profile is not None:
            return profile
        with self._lock:
            profile = self._profiles.get(name)
            if profile is None:
                profile = TenantProfile(name, OverlayWeightVector(self.base_weights))
                self._profiles[name] = profile
            return profile

    def overlay(self, name: str) -> OverlayWeightVector:
        """The overlay weight vector for tenant ``name`` (created on demand)."""
        return self.profile(name).overlay

    def names(self) -> Tuple[str, ...]:
        """All tenant names, sorted for deterministic persistence."""
        return tuple(sorted(self._profiles))

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, name: object) -> bool:
        return name in self._profiles

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready mapping persisted inside the session overlay."""
        return {
            name: {
                "shadow": self._profiles[name].overlay.shadow_dict(),
                "local_version": self._profiles[name].overlay.local_version,
                "events_applied": self._profiles[name].events_applied,
            }
            for name in self.names()
        }

    def restore(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Rebuild profiles from :meth:`export_state` output."""
        with self._lock:
            for name, payload in state.items():
                overlay = OverlayWeightVector(
                    self.base_weights,
                    shadow={
                        str(k): float(v)
                        for k, v in dict(payload["shadow"]).items()  # type: ignore[arg-type]
                    },
                    local_version=int(payload["local_version"]),  # type: ignore[arg-type]
                )
                self._profiles[str(name)] = TenantProfile(
                    str(name),
                    overlay,
                    events_applied=int(payload["events_applied"]),  # type: ignore[arg-type]
                )
