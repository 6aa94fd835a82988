"""Datasets used by the experiments: InterPro–GO-like, GBCO-like, synthetic growth.

Public API
----------
* :func:`build_interpro_go`, :data:`GOLD_EDGES`,
  :data:`DEFAULT_KEYWORD_QUERIES` — the 8-relation / 28-attribute dataset
  with the Figure 9 gold standard (Section 5.2 experiments).
* :func:`build_gbco`, :data:`GBCO_RELATIONS`, :data:`QUERY_LOG`,
  :class:`QueryLogEntry` — the 18-relation / 187-attribute dataset and its
  query-log trials (Section 5.1 experiments).
* :func:`grow_catalog_and_graph` — the synthetic graph-growth construction
  of Figure 8.
"""

from .gbco import (
    GBCO_RELATIONS,
    GbcoDataset,
    QUERY_LOG,
    QueryLogEntry,
    build_gbco,
    total_attribute_count,
)
from .interpro_go import (
    DEFAULT_KEYWORD_QUERIES,
    GOLD_EDGES,
    InterproGoDataset,
    build_interpro_go,
)
from .synthetic import (
    GrowthResult,
    average_learnable_edge_cost,
    grow_catalog_and_graph,
)

__all__ = [
    "DEFAULT_KEYWORD_QUERIES",
    "GBCO_RELATIONS",
    "GOLD_EDGES",
    "GbcoDataset",
    "GrowthResult",
    "InterproGoDataset",
    "QUERY_LOG",
    "QueryLogEntry",
    "average_learnable_edge_cost",
    "build_gbco",
    "build_interpro_go",
    "grow_catalog_and_graph",
    "total_attribute_count",
]
