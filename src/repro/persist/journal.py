"""The mutation journal: incremental deltas between session checkpoints.

After the first snapshot, :meth:`QService.save` does not re-serialize the
session — it appends one *delta entry* describing everything that changed
since the previous save: feedback steps (as weight movements plus the new
feedback-log events), source registrations/removals (graph nodes and edges,
catalog membership, profile-index growth), and association-confidence merges
(an edge replaced under its id).  On reopen the entries replay in order on
top of the snapshot, reproducing the live state exactly.  An entry's tail
state — views, feedback log, counters — rides along as a delta of its own
(``"overlay_delta"``, see :mod:`repro.persist.session`), so an entry costs
what changed since the previous save, not what the session holds: the
feedback log, for one, is appended to, never written again.

The delta is computed by *shadow diffing* rather than by instrumenting every
mutation site: :class:`StateShadow` captures cheap references (node/edge/
profile object identities, a weight copy) at each save, and
:func:`build_delta` compares the live session against them.  This makes the
journal robust by construction — mutations that happen outside the service's
methods (a read that rebuilds a view's query graph and seeds fresh
keyword-edge weights, a benchmark growing the catalog directly) are captured
all the same, because the diff sees the state, not the call sites.

Identity, not equality, detects replacement: a source that was removed and
re-registered under the same name yields equal-looking nodes at new dict
positions, and insertion order feeds tie-breaks downstream — object identity
distinguishes the two where value comparison cannot.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..datastore.csvio import source_from_dict, source_to_dict
from ..exceptions import SnapshotError, UnknownRelationError
from .snapshot import edge_payload, node_payload, restore_edge, restore_node


class StateShadow:
    """Cheap reference copy of the persisted session state at the last save."""

    def __init__(self, service) -> None:
        graph = service.graph
        self.nodes = {node.node_id: node for node in graph.nodes()}
        self.edges = {edge.edge_id: edge for edge in graph.edges()}
        self.weights = graph.weights.as_dict()
        self.source_names = list(service.catalog.source_names())
        self.profile_refs = {
            relation: service.profile_index.relation_profile(relation)
            for relation in service.profile_index.profiled_relations()
        }
        self.table_versions = {
            table.schema.qualified_name: (table, table.version)
            for table in service.catalog.all_tables()
        }


def build_delta(service, shadow: StateShadow, holds_rows: bool) -> Tuple[Dict[str, object], bool]:
    """Diff ``service`` against ``shadow``; returns ``(delta, needs_snapshot)``.

    ``needs_snapshot`` is ``True`` when the change cannot be expressed as a
    journal entry — rows of an *existing* relation mutated while the session
    store does not hold row data (only a fresh full snapshot captures those),
    or a profile of an existing relation was rebuilt in place.  The caller
    then compacts instead of appending.
    """
    graph = service.graph
    catalog = service.catalog
    index = service.profile_index

    current_nodes = {node.node_id: node for node in graph.nodes()}
    current_edges = {edge.edge_id: edge for edge in graph.edges()}
    current_sources = list(catalog.source_names())

    nodes_removed = [
        node_id
        for node_id, node in shadow.nodes.items()
        if current_nodes.get(node_id) is not node
    ]
    nodes_added = [
        node_payload(node)
        for node_id, node in current_nodes.items()
        if shadow.nodes.get(node_id) is not node
    ]
    edges_removed = [
        edge_id for edge_id in shadow.edges if edge_id not in current_edges
    ]
    edges_added = [
        edge_payload(edge)
        for edge_id, edge in current_edges.items()
        if edge_id not in shadow.edges
    ]
    edges_changed = [
        edge_payload(edge)
        for edge_id, edge in current_edges.items()
        if edge_id in shadow.edges and shadow.edges[edge_id] is not edge
    ]
    weights_set = {
        name: value
        for name, value in graph.weights.items()
        if shadow.weights.get(name) != value
    }

    shadow_set = set(shadow.source_names)
    current_set = set(current_sources)
    sources_removed = [name for name in shadow.source_names if name not in current_set]
    added_names = [name for name in current_sources if name not in shadow_set]
    sources_added = []
    for name in added_names:
        source = catalog.source(name)
        relations = [table.schema.qualified_name for table in source]
        sources_added.append(
            {
                "name": name,
                "source": None if holds_rows else source_to_dict(source),
                "profiles": index.export_state(relations=relations),
            }
        )

    # Changes the journal cannot express: data mutations of relations that
    # survived since the last save (their rows live only in the snapshot
    # when the store holds no row data), and re-profiled existing relations.
    needs_snapshot = False
    added_or_removed = {
        relation
        for name in (set(added_names) | set(sources_removed))
        for relation in _source_relations(catalog, shadow, name)
    }
    if not holds_rows:
        for relation, (table, version) in shadow.table_versions.items():
            if relation in added_or_removed:
                continue
            try:
                live = catalog.relation(relation)
            except UnknownRelationError:
                continue
            if live is not table or live.version != version:
                needs_snapshot = True
                break
    if not needs_snapshot:
        for relation, profile in shadow.profile_refs.items():
            if relation in added_or_removed:
                continue
            live_profile = index.relation_profile(relation)
            if live_profile is not None and live_profile is not profile:
                needs_snapshot = True
                break

    delta = {
        "kind": "delta",
        "nodes_removed": nodes_removed,
        "nodes_added": nodes_added,
        "edges_removed": edges_removed,
        "edges_changed": edges_changed,
        "edges_added": edges_added,
        "weights_set": weights_set,
        "sources_removed": sources_removed,
        "sources_added": sources_added,
        "profile_epoch": index.epoch,
    }
    return delta, needs_snapshot


def _source_relations(catalog, shadow: StateShadow, source_name: str) -> List[str]:
    """Qualified relations of a source, live or from the shadow's bookkeeping."""
    if catalog.has_source(source_name):
        return [table.schema.qualified_name for table in catalog.source(source_name)]
    prefix = f"{source_name}."
    return [rel for rel in shadow.table_versions if rel.startswith(prefix)]


def is_empty_delta(delta: Dict[str, object]) -> bool:
    """Whether the entry records no movement at all (its two constants aside)."""
    return not any(value for key, value in delta.items() if key not in ("kind", "profile_epoch"))


def apply_delta(delta: Dict[str, object], catalog, graph, profile_index, holds_rows: bool) -> None:
    """Replay one journal entry on top of the partially restored session state.

    Order matters and mirrors how the live mutations layered: retractions
    first (removed sources, edges, then nodes), then catalog growth, then
    graph growth (nodes before the edges that reference them), then
    confidence merges and weight movements.  The catalog of a row-holding
    store is left alone: the database already is what every entry led to.
    """
    for name in delta["sources_removed"]:
        if not holds_rows and catalog.has_source(name):
            catalog.remove_source(name)
        profile_index.remove_source(name)
    for edge_id in delta["edges_removed"]:
        if graph.has_edge(edge_id):
            graph.remove_edge(edge_id)
    for node_id in delta["nodes_removed"]:
        if graph.has_node(node_id):
            graph.remove_node(node_id)

    for spec in delta["sources_added"]:
        name = spec["name"]
        if not holds_rows and not catalog.has_source(name):
            if spec["source"] is None:
                raise SnapshotError(f"journal adds source {name!r} without its rows")
            catalog.add_source(source_from_dict(spec["source"]))
        profile_index.absorb_state(spec["profiles"])

    for node_spec in delta["nodes_added"]:
        graph.add_node(restore_node(node_spec))
    for edge_spec in delta["edges_added"]:
        graph.add_edge(restore_edge(edge_spec))
    for edge_spec in delta["edges_changed"]:
        graph.replace_edge(restore_edge(edge_spec))

    for name, value in delta["weights_set"].items():
        graph.weights.set(name, value)
    profile_index.epoch = delta["profile_epoch"]
