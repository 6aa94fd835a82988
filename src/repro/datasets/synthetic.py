"""Synthetic search-graph growth (paper Section 5.1.2, Figure 8).

"Since it is difficult to find large numbers of interlinked tables in the
wild, for this experiment we generated additional synthetic relations and
associations ... we randomly generated new sources with two attributes, and
then connected them to two random nodes in the search graph.  We set the
edge costs to the average cost in the calibrated original graph."

:func:`grow_catalog_and_graph` reproduces that construction: it starts from
an existing catalog + search graph (the GBCO-like one in the benchmarks) and
keeps adding random two-attribute sources, wiring each to two randomly
chosen existing attribute nodes with association edges whose cost equals the
average cost of the calibrated graph's learnable edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..datastore.database import Catalog, DataSource
from ..datastore.schema import RelationSchema, SourceSchema
from ..graph.features import edge_feature
from ..graph.search_graph import SearchGraph


@dataclass
class GrowthResult:
    """Outcome of growing the catalog/graph to a target size."""

    added_sources: List[str]
    target_source_count: int
    average_edge_cost: float


def _alpha(n: int, width: int = 4) -> str:
    """Base-26 letters-only encoding of ``n`` (zero-padded to ``width``).

    Letters-only matters: the similarity tokenizer splits on digit
    boundaries, so a value like ``pool003`` would shatter into high-frequency
    tokens shared across every pool.  An all-letter value stays one token,
    which keeps synthetic value overlap — and hence MinHash sketch overlap —
    exactly where the generator put it.
    """
    chars = []
    for _ in range(width):
        chars.append(chr(ord("a") + n % 26))
        n //= 26
    return "".join(reversed(chars))


def community_value_pool(community: int, pool_size: int = 24) -> List[str]:
    """The shared value pool of one community of synthetic sources.

    Values are letters-only and community-prefixed, so two sources overlap
    exactly when they belong to the same community — the knob that gives
    10k-relation synthetic catalogs realistic *joinability structure*
    (dense overlap inside a community, none across) instead of the legacy
    all-unique values that nothing can align on.
    """
    tag = _alpha(community)
    return [f"{tag}{_alpha(j, width=3)}" for j in range(pool_size)]


def make_community_source(
    name: str,
    community: int,
    seed: int = 0,
    pool_size: int = 24,
    values_per_source: int = 20,
) -> DataSource:
    """A two-attribute synthetic source drawing ``attr_1`` from a community pool.

    ``attr_1`` holds ``values_per_source`` distinct values sampled from the
    community's pool — any two same-community sources therefore share at
    least ``2 * values_per_source - pool_size`` values (16 with the
    defaults, a Jaccard floor of ~0.67, comfortably above the sketch tier's
    collision threshold).  ``attr_2`` holds globally unique single-token
    values (seed-prefixed, letters-only — a shared suffix or the digit-bearing
    source name would tokenize into high-overlap fragments and defeat the
    sketch), so it can never join and only inflates the exhaustive comparison
    count — exactly the attribute a blocking tier should prune.
    """
    rng = random.Random(seed)
    pool = community_value_pool(community, pool_size)
    values = sorted(rng.sample(pool, min(values_per_source, pool_size)))
    schema = SourceSchema(name, description="synthetic community source")
    schema.add_relation(RelationSchema(name, ["attr_1", "attr_2"]))
    source = DataSource(schema)
    table = source.table(name)
    unique_tag = _alpha(seed, width=5)
    for row, value in enumerate(values):
        table.append(
            {"attr_1": value, "attr_2": f"{unique_tag}{_alpha(row, width=3)}"}
        )
    return source


def average_learnable_edge_cost(graph: SearchGraph, default: float = 1.0) -> float:
    """Average cost of the graph's learnable edges (``default`` if there are none)."""
    costs = [graph.edge_cost(edge) for edge in graph.learnable_edges()]
    if not costs:
        return default
    return sum(costs) / len(costs)


def grow_catalog_and_graph(
    catalog: Catalog,
    graph: SearchGraph,
    target_source_count: int,
    seed: int = 3,
    attributes_per_source: int = 2,
    rows_per_source: int = 5,
    value_communities: int = 0,
    community_pool_size: int = 24,
    community_values_per_source: Optional[int] = None,
) -> GrowthResult:
    """Grow ``catalog`` and ``graph`` with synthetic sources until the target size.

    Each synthetic source has ``attributes_per_source`` attributes (two, as
    in the paper); its first two attributes are wired to two randomly chosen
    existing attribute nodes with association edges at the calibrated
    average cost.

    ``value_communities=0`` (the default) keeps the paper's construction:
    every value is unique, so synthetic relations are joinable only through
    the wired association edges.  With ``value_communities=N`` each
    synthetic source additionally draws its first attribute's values from
    one of ``N`` shared community pools (round-robin assignment; see
    :func:`make_community_source`), giving large grown catalogs real value
    overlap for blocking tiers and matchers to work against — the 10k+
    relation configuration of ``benchmarks/scale_bench.py``.

    The function mutates both the catalog and the graph in place and returns
    a :class:`GrowthResult` describing what was added.
    """
    rng = random.Random(seed)
    average_cost = average_learnable_edge_cost(graph)
    added: List[str] = []

    existing_attribute_nodes = [
        node for node in graph.attribute_nodes() if node.relation is not None
    ]
    counter = 0
    while catalog.source_count < target_source_count:
        counter += 1
        name = f"synthetic_{counter:04d}"
        if catalog.has_source(name):
            continue
        attributes = [f"attr_{i}" for i in range(1, attributes_per_source + 1)]
        schema = SourceSchema(name, description="synthetic growth source")
        schema.add_relation(RelationSchema(name, attributes))
        source = DataSource(schema)
        table = source.table(name)
        if value_communities > 0:
            community = counter % value_communities
            pool = community_value_pool(community, community_pool_size)
            take = min(
                community_values_per_source or rows_per_source, community_pool_size
            )
            pooled = sorted(rng.sample(pool, take))
            for row, value in enumerate(pooled):
                record = {attributes[0]: value}
                for attr in attributes[1:]:
                    record[attr] = f"{name}_{attr}_{row}"
                table.append(record)
        else:
            for row in range(rows_per_source):
                table.append({attr: f"{name}_{attr}_{row}" for attr in attributes})
        catalog.add_source(source)
        graph.add_source(source)
        added.append(name)

        # Wire the new source to two random existing attribute nodes.
        if existing_attribute_nodes:
            targets = rng.sample(
                existing_attribute_nodes, k=min(2, len(existing_attribute_nodes))
            )
            for i, target in enumerate(targets):
                local_attr = attributes[i % len(attributes)]
                edge = graph.add_association(
                    f"{name}.{name}",
                    local_attr,
                    target.relation or "",
                    target.attribute or "",
                    matcher_confidences={},
                    metadata={"origin": "synthetic_growth"},
                )
                # Pin the edge cost to the calibrated average via its
                # edge-identity feature (the default feature already
                # contributes the base cost).
                base = graph.weights.get("default", 0.0)
                graph.weights.set(edge_feature(edge.edge_id), average_cost - base)
    return GrowthResult(
        added_sources=added,
        target_source_count=target_source_count,
        average_edge_cost=average_cost,
    )

