"""Versioned session-snapshot payloads (the durable half of :mod:`repro.persist`).

A *snapshot* is a JSON document capturing everything a
:class:`~repro.api.service.QService` session accumulates beyond its stored
rows: the search graph (nodes, edges with features and **their original edge
ids**), the learned :class:`~repro.graph.features.WeightVector`, the
:class:`~repro.profiling.index.CatalogProfileIndex`, the view registry (each
view's definition — keywords and ``k`` — and, while current, its ranking as
edge ids), the learner/feedback/registration counters, and the graph's next
edge number.  A view's expansion is not saved: it names its edges by their
endpoints, so the reopened view expands to the same ids on its first pull.
Restoring a snapshot therefore skips every expensive cold-start step —
profiling, matching, alignment — *and* restores the exact tie-break-relevant
identifiers, which is what makes a reopened session answer queries
byte-identically to the session that saved it.

Serialization rules
-------------------
* **Order is data.**  Node, edge and weight insertion order is preserved
  verbatim: dict iteration order feeds equal-cost tie-breaks, constraint
  enumeration and future query-graph expansions, so payload lists mirror the
  live containers exactly.
* **Sets are canonical.**  Set-valued fields (profile value sets, tree edge
  sets) are emitted sorted, so saving, restoring and saving again produces
  an identical document (the fixed-point property tests rely on it).
* **Every stored document is wrapped** in ``{"format_version", "checksum",
  "body"}``; :func:`unwrap_document` raises a typed
  :class:`~repro.exceptions.SnapshotError` on parse failure, checksum
  mismatch (corruption) or any format version but :data:`FORMAT_VERSION`.
  A session saved in an older format is converted once, offline, by
  ``scripts/upgrade_session.py``.
* **What is written is what is stored.**  An edge's metadata is the mapping
  the edge holds, not the one it reads back (an association derives its
  ``matchers`` from its features), so a restore installs it as read.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, Mapping, Optional

from ..exceptions import SnapshotError
from ..graph.edges import ALIGNER_ORIGIN, Edge, EdgeKind
from ..graph.features import NO_FEATURES, WeightVector
from ..graph.nodes import Node, NodeKind
from ..graph.search_graph import GraphConfig, SearchGraph
from ..learning.feedback import FeedbackEvent
from ..steiner.tree import SteinerTree

#: Version of the on-disk snapshot/journal format, the only one this build
#: reads.  Bumped on any change that an older reader could misinterpret.
#: Version 4 journals only the feedback events added since the last save, and
#: writes an edge's metadata as the edge stores it.  Earlier versions go
#: through ``scripts/upgrade_session.py``.
FORMAT_VERSION = 4

#: The wrapper :func:`wrap_document` writes, up to where the body starts.
_FRAME = re.compile(r'\{"format_version": %d, "checksum": "([0-9a-f]{64})", "body": ' % FORMAT_VERSION)


# ----------------------------------------------------------------------
# Document framing (wrapping, checksums, corruption detection)
# ----------------------------------------------------------------------
def wrap_document(body: Dict[str, object]) -> str:
    """Serialize ``body`` once, framed by format version and integrity checksum.

    The checksum is SHA-256 of exactly the body's serialized bytes: compact
    separators, insertion order kept (order is data, so no ``sort_keys``).
    """
    try:
        payload = json.dumps(body, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"session state is not serializable: {exc}") from exc
    checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f'{{"format_version": {FORMAT_VERSION}, "checksum": "{checksum}", "body": {payload}}}'


def unwrap_document(text: str, what: str = "snapshot") -> Dict[str, object]:
    """Verify one wrapped document; returns its parsed body.

    The document is verified from the text as handed in: the body's slice is
    hashed, then parsed in place, so nothing is re-serialized and what comes
    back is the verified bytes.  A document failing that check is parsed
    whole, which names what is wrong.

    Raises
    ------
    SnapshotError
        On malformed JSON, a missing wrapper field, a format version other
        than :data:`FORMAT_VERSION`, or a checksum mismatch (corruption).
    """
    frame = _FRAME.match(text)
    end = text.rfind("}")
    # ``json.dumps`` escapes non-ASCII, so string offsets are byte offsets.
    if frame and text.isascii() and not text[end + 1 :].strip():
        stored = memoryview(text.encode("ascii"))[frame.end() : end]
        if hashlib.sha256(stored).hexdigest() == frame[1]:
            return json.JSONDecoder().raw_decode(text, frame.end())[0]
    try:
        document = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"corrupt session {what}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict) or "body" not in document:
        raise SnapshotError(f"corrupt session {what}: missing document wrapper")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported session {what} format version {version!r} (this build reads "
            f"version {FORMAT_VERSION}; convert older sessions with scripts/upgrade_session.py)"
        )
    # A document of this version that parses this far has already failed its check.
    raise SnapshotError(
        f"corrupt session {what}: checksum mismatch (file was truncated or modified)"
    )


# ----------------------------------------------------------------------
# Graph elements
# ----------------------------------------------------------------------
def node_payload(node: Node) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "id": node.node_id,
        "kind": node.kind.value,
        "label": node.label,
    }
    if node.relation is not None:
        payload["relation"] = node.relation
    if node.attribute is not None:
        payload["attribute"] = node.attribute
    return payload


# Value→member maps: Enum.__call__ is measurably slow on the restore hot
# path (one lookup per node and edge of the whole graph).
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}


def restore_node(payload: Dict[str, object]) -> Node:
    return Node(
        node_id=payload["id"],
        kind=_NODE_KINDS[payload["kind"]],
        label=payload["label"],
        relation=payload.get("relation"),
        attribute=payload.get("attribute"),
    )


def _encode_metadata(metadata: Mapping[str, object]) -> Dict[str, object]:
    encoded = dict(metadata)
    if "foreign_key" in encoded:
        encoded["foreign_key"] = list(encoded["foreign_key"])
    return encoded


def _decode_metadata(metadata: Optional[Dict[str, object]]) -> Optional[Mapping[str, object]]:
    """What a restored edge keeps of ``metadata``: an aligner's is the shared origin record."""
    if not metadata:
        return None
    if "foreign_key" in metadata:
        return {**metadata, "foreign_key": tuple(metadata["foreign_key"])}
    return ALIGNER_ORIGIN if metadata == ALIGNER_ORIGIN else metadata


def edge_payload(edge: Edge) -> Dict[str, object]:
    """One edge, id included — restored edges keep their original identity."""
    payload: Dict[str, object] = {
        "id": edge.edge_id,
        "u": edge.u,
        "v": edge.v,
        "kind": edge.kind.value,
        "features": dict(edge.features),
    }
    if edge.fixed_cost is not None:
        payload["fixed_cost"] = edge.fixed_cost
    if edge.stored_metadata:
        payload["metadata"] = _encode_metadata(edge.stored_metadata)
    return payload


def restore_edge(payload: Dict[str, object]) -> Edge:
    return Edge(
        payload["id"], payload["u"], payload["v"], _EDGE_KINDS[payload["kind"]],
        payload["features"] or NO_FEATURES, payload.get("fixed_cost"), _decode_metadata(payload.get("metadata")),
    )


# ----------------------------------------------------------------------
# Graph / weights
# ----------------------------------------------------------------------
def graph_payload(graph: SearchGraph) -> Dict[str, object]:
    """Nodes and edges of ``graph`` in insertion order (weights separate)."""
    return {
        "structure_version": graph.structure_version,
        "nodes": [node_payload(node) for node in graph.nodes()],
        "edges": [edge_payload(edge) for edge in graph.edges()],
    }


def restore_graph(
    payload: Dict[str, object],
    config: Optional[GraphConfig] = None,
    weights: Optional[WeightVector] = None,
) -> SearchGraph:
    """Rebuild a graph: same nodes, same edges, same ids, same order.

    ``add_node``/``add_edge`` replay in payload order, which reproduces the
    adjacency lists exactly (they are append-ordered by edge addition).
    The caller installs the definitive ``structure_version`` and weight
    version afterwards — replay bumps both as a side effect.
    """
    graph = SearchGraph(config=config, weights=weights)
    for node_spec in payload["nodes"]:
        graph.add_node(restore_node(node_spec))
    for edge_spec in payload["edges"]:
        graph.add_edge(restore_edge(edge_spec))
    graph.structure_version = payload["structure_version"]
    return graph


def weights_payload(weights: WeightVector) -> Dict[str, object]:
    return {"values": weights.as_dict(), "version": weights.version}


def restore_weights(payload: Dict[str, object]) -> WeightVector:
    weights = WeightVector(payload["values"])
    weights.version = payload["version"]
    return weights


def graph_config_payload(config: GraphConfig) -> Dict[str, object]:
    return {
        "default_cost": config.default_cost,
        "foreign_key_cost": config.foreign_key_cost,
        "initial_matcher_weight": config.initial_matcher_weight,
        "association_threshold": config.association_threshold,
        "minimum_edge_cost": config.minimum_edge_cost,
    }


def restore_graph_config(payload: Dict[str, object]) -> GraphConfig:
    return GraphConfig(**payload)


# ----------------------------------------------------------------------
# Trees and feedback events
# ----------------------------------------------------------------------
def tree_payload(tree: SteinerTree) -> Dict[str, object]:
    return {
        "edge_ids": sorted(tree.edge_ids),
        "terminals": sorted(tree.terminals),
        "cost": tree.cost,
    }


def restore_tree(payload: Dict[str, object]) -> SteinerTree:
    return SteinerTree(
        edge_ids=frozenset(payload["edge_ids"]),
        terminals=frozenset(payload["terminals"]),
        cost=payload["cost"],
    )


def event_payload(event: FeedbackEvent) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "terminals": list(event.terminals),
        "target_tree": tree_payload(event.target_tree),
    }
    if event.demoted_tree is not None:
        payload["demoted_tree"] = tree_payload(event.demoted_tree)
    return payload


def restore_event(payload: Dict[str, object]) -> FeedbackEvent:
    demoted = payload.get("demoted_tree")
    return FeedbackEvent(
        terminals=tuple(payload["terminals"]),
        target_tree=restore_tree(payload["target_tree"]),
        demoted_tree=restore_tree(demoted) if demoted is not None else None,
    )
