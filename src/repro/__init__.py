"""repro — reproduction of "Automatically Incorporating New Sources in
Keyword Search-Based Data Integration" (Talukdar, Ives, Pereira; SIGMOD 2010).

The package implements the Q system end to end:

* :mod:`repro.storage` — pluggable relation storage behind the
  :class:`~repro.storage.base.StorageBackend` protocol: in-memory rows
  (default) or per-catalog SQLite with bulk ingest, real indexes and SQL
  pushdown.
* :mod:`repro.datastore` — relational substrate (schemas, tables, catalogs,
  indexes, conjunctive query execution with provenance).
* :mod:`repro.engine` — planned, indexed query execution: compiled
  predicates, cardinality-ordered hash joins, shared scan/join-index caches.
* :mod:`repro.similarity` — keyword / label similarity metrics.
* :mod:`repro.graph` — search graph, query graph, feature-based edge costs.
* :mod:`repro.steiner` — exact and approximate top-k Steiner trees.
* :mod:`repro.matching` — schema matchers: metadata (COMA++ stand-in), MAD
  label propagation, value overlap, and ensembles.
* :mod:`repro.profiling` — the registration-side fast path: persistent
  per-attribute profiles, posting-list candidate generation (blocking) and
  shared pair memos behind the :class:`~repro.profiling.CatalogProfileIndex`.
* :mod:`repro.alignment` — EXHAUSTIVE / VIEWBASED / PREFERENTIAL aligners and
  the new-source registration service.
* :mod:`repro.learning` — feedback generalization and MIRA-based learning of
  edge costs.
* :mod:`repro.obs` — observability: the metrics registry (Prometheus/JSON
  exposition), request tracing with per-stage spans, and the per-read
  explain/slow-query logs.
* :mod:`repro.api` — **the supported public surface**: the
  :class:`~repro.api.service.QService` session with typed request/response
  objects, lazy pull-based views and streaming k-best answers.
* :mod:`repro.core` — ranked views, query generation and evaluation metrics.
* :mod:`repro.datasets` — the InterPro–GO-like, GBCO-like and synthetic
  datasets used by the experiment harnesses in ``benchmarks/``.

Quickstart
----------
>>> from repro.api import QService, QueryRequest
>>> from repro.datasets import build_interpro_go
>>> dataset = build_interpro_go()
>>> service = QService(sources=dataset.catalog.sources())
>>> service.bootstrap_alignments(top_y=2)       # doctest: +SKIP
>>> pages = service.answers(QueryRequest(keywords=("membrane", "publication")))
>>> next(pages).answers[:3]                     # doctest: +SKIP
"""

from . import api
from .api.service import QService
from .api.types import ServiceConfig
from .core.view import RankedView
from .datastore.database import Catalog, DataSource
from .exceptions import SnapshotError
from .graph.search_graph import GraphConfig, SearchGraph
from .obs import MetricsRegistry, Observability, ReadTrace, Tracer
from .storage import MemoryBackend, SqliteBackend, StorageBackend, create_backend

__version__ = "2.3.0"

__all__ = [
    "Catalog",
    "DataSource",
    "GraphConfig",
    "MemoryBackend",
    "MetricsRegistry",
    "Observability",
    "QService",
    "RankedView",
    "ReadTrace",
    "SearchGraph",
    "ServiceConfig",
    "SnapshotError",
    "SqliteBackend",
    "StorageBackend",
    "Tracer",
    "api",
    "create_backend",
    "__version__",
]
