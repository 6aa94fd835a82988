"""Translating Steiner trees into conjunctive queries (paper Section 2.2).

Each Steiner tree in the query graph represents one way of joining relations
to answer the keyword query:

* every relation node in the tree — or reachable from a tree node through a
  zero-cost membership edge — becomes a query atom;
* every non-zero-cost edge between attribute nodes (association edge) and
  every foreign-key edge becomes an equi-join predicate;
* every keyword match on a data value becomes an equality selection on the
  value's attribute;
* the select-list contains the attributes the tree touches, so that answers
  surface the values that made the tree relevant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..datastore.query import ConjunctiveQuery
from ..exceptions import QueryError
from ..graph.edges import Edge, EdgeKind
from ..graph.nodes import Node, NodeKind
from ..graph.search_graph import SearchGraph
from ..steiner.tree import SteinerTree


def tree_signature(tree: SteinerTree) -> str:
    """A stable identifier for a tree, derived from its edge set."""
    digest = hashlib.sha1("|".join(sorted(tree.edge_ids)).encode("utf-8")).hexdigest()
    return f"tree:{digest[:12]}"


@dataclass
class GeneratedQuery:
    """A conjunctive query generated from a Steiner tree.

    ``key`` is the engine's answer-cache key: the query's atoms, joins,
    selections and outputs, not its cost or provenance, as one ``str`` (which
    caches its hash, so a lookup does not re-hash the parts).
    """

    query: ConjunctiveQuery
    tree: SteinerTree
    signature: str
    key: str


class QueryGenerator:
    """Generates conjunctive queries from Steiner trees of a query graph."""

    def __init__(self, graph: SearchGraph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, tree: SteinerTree) -> GeneratedQuery:
        """Generate the conjunctive query of one Steiner tree."""
        graph = self.graph
        signature = tree_signature(tree)

        relations = self._collect_relations(tree)
        if not relations:
            raise QueryError("tree touches no relations; cannot generate a query")

        query = ConjunctiveQuery(cost=tree.cost, provenance=signature)
        aliases: Dict[str, str] = {}
        used_aliases: Set[str] = set()
        for relation in sorted(relations):
            alias = relation.split(".")[-1]
            if alias in used_aliases:
                suffix = 2
                while f"{alias}_{suffix}" in used_aliases:
                    suffix += 1
                alias = f"{alias}_{suffix}"
            used_aliases.add(alias)
            aliases[relation] = alias
            query.add_atom(relation, alias)

        self._add_joins(tree, query, aliases)
        selected_attributes = self._add_selections(tree, query, aliases)
        self._add_outputs(tree, query, aliases, selected_attributes)
        key = repr((query.atoms, query.joins, query.selections, query.outputs))
        return GeneratedQuery(query=query, tree=tree, signature=signature, key=key)

    def generate_all(self, trees: Sequence[SteinerTree]) -> List[GeneratedQuery]:
        """Generate queries for several trees, skipping any that fail."""
        generated: List[GeneratedQuery] = []
        for tree in trees:
            try:
                generated.append(self.generate(tree))
            except QueryError:
                continue
        return generated

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _collect_relations(self, tree: SteinerTree) -> Set[str]:
        relations: Set[str] = set()
        for node_id in tree.nodes(self.graph):
            node = self.graph.node(node_id)
            if node.kind in (NodeKind.RELATION, NodeKind.ATTRIBUTE, NodeKind.VALUE):
                if node.relation:
                    relations.add(node.relation)
        return relations

    def _add_joins(
        self, tree: SteinerTree, query: ConjunctiveQuery, aliases: Dict[str, str]
    ) -> None:
        seen: Set[Tuple[str, str, str, str]] = set()
        for edge in tree.edges(self.graph):
            if edge.kind is EdgeKind.ASSOCIATION:
                node_u = self.graph.node(edge.u)
                node_v = self.graph.node(edge.v)
                if (
                    node_u.kind is NodeKind.ATTRIBUTE
                    and node_v.kind is NodeKind.ATTRIBUTE
                    and node_u.relation
                    and node_v.relation
                    and node_u.relation != node_v.relation
                ):
                    key = (node_u.relation, node_u.attribute or "", node_v.relation, node_v.attribute or "")
                    if key in seen or (key[2], key[3], key[0], key[1]) in seen:
                        continue
                    seen.add(key)
                    query.add_join(
                        aliases[node_u.relation],
                        node_u.attribute or "",
                        aliases[node_v.relation],
                        node_v.attribute or "",
                    )
            elif edge.kind is EdgeKind.FOREIGN_KEY:
                fk = edge.metadata.get("foreign_key")
                if not fk:
                    continue
                src_rel, src_attr, dst_rel, dst_attr = fk  # type: ignore[misc]
                node_u = self.graph.node(edge.u)
                node_v = self.graph.node(edge.v)
                # Foreign-key metadata stores local relation names; resolve
                # them against the edge's relation nodes.
                rel_u, rel_v = node_u.relation, node_v.relation
                if rel_u is None or rel_v is None:
                    continue
                if rel_u.endswith(f".{src_rel}") or rel_u == src_rel:
                    left_rel, right_rel = rel_u, rel_v
                    left_attr, right_attr = src_attr, dst_attr
                else:
                    left_rel, right_rel = rel_v, rel_u
                    left_attr, right_attr = src_attr, dst_attr
                if left_rel not in aliases or right_rel not in aliases:
                    continue
                key = (left_rel, left_attr, right_rel, right_attr)
                if key in seen or (key[2], key[3], key[0], key[1]) in seen:
                    continue
                seen.add(key)
                query.add_join(aliases[left_rel], left_attr, aliases[right_rel], right_attr)

    def _add_selections(
        self, tree: SteinerTree, query: ConjunctiveQuery, aliases: Dict[str, str]
    ) -> Set[Tuple[str, str]]:
        """Selections from keyword matches; returns the attributes they touch."""
        touched: Set[Tuple[str, str]] = set()
        for edge in tree.edges(self.graph):
            if edge.kind is not EdgeKind.KEYWORD_MATCH:
                continue
            node_u = self.graph.node(edge.u)
            node_v = self.graph.node(edge.v)
            keyword_node = node_u if node_u.kind is NodeKind.KEYWORD else node_v
            target_node = node_v if keyword_node is node_u else node_u
            if target_node.kind is NodeKind.VALUE and target_node.relation and target_node.attribute:
                if target_node.relation in aliases:
                    query.add_selection(
                        aliases[target_node.relation],
                        target_node.attribute,
                        target_node.label,
                    )
                    touched.add((target_node.relation, target_node.attribute))
            elif (
                target_node.kind is NodeKind.ATTRIBUTE
                and target_node.relation
                and target_node.attribute
            ):
                touched.add((target_node.relation, target_node.attribute))
        return touched

    def _add_outputs(
        self,
        tree: SteinerTree,
        query: ConjunctiveQuery,
        aliases: Dict[str, str],
        selected_attributes: Set[Tuple[str, str]],
    ) -> None:
        output_attrs: List[Tuple[str, str]] = []
        seen: Set[Tuple[str, str]] = set()

        def add(relation: str, attribute: str) -> None:
            key = (relation, attribute)
            if key not in seen and relation in aliases:
                seen.add(key)
                output_attrs.append(key)

        # Attributes explicitly in the tree come first, then selection targets.
        for node_id in tree.nodes(self.graph):
            node = self.graph.node(node_id)
            if node.kind is NodeKind.ATTRIBUTE and node.relation and node.attribute:
                add(node.relation, node.attribute)
        for relation, attribute in sorted(selected_attributes):
            add(relation, attribute)

        if not output_attrs:
            # Fall back to every attribute the graph knows for each atom's
            # relation, so that the answer table is never empty.
            for atom in query.atoms:
                for attr_node in self.graph.attribute_nodes_of(atom.relation):
                    if attr_node.attribute:
                        add(atom.relation, attr_node.attribute)

        used_labels: Set[str] = set()
        for relation, attribute in output_attrs:
            # Prefer the bare attribute name as the label (it is what the
            # disjoint union aligns columns on); qualify it only on clashes
            # within this query's own select-list.
            label = attribute if attribute not in used_labels else f"{aliases[relation]}.{attribute}"
            used_labels.add(label)
            query.add_output(aliases[relation], attribute, label=label)
