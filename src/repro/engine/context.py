"""Shared execution state: cached answers, scans, join indexes and statistics.

An :class:`ExecutionContext` is the engine's memory between queries.  A
:class:`~repro.api.service.QService` session has one, and every reader of
the session shares it: views, tenant twins, snapshot views and the learner.
Their queries hit the same relations with the same selections and join
attributes over and over; the context builds each filtered scan and each
per-attribute hash join index **once** and replays it afterwards.  A whole
query's rows are kept too, under a key made of the query's content (atoms,
joins, selections, outputs), so two views — or two re-expansions of one
view — that generate the same query execute it once.

There is no invalidation.  Staleness is a table's identity and version: scan
and join-index groups are held per :class:`~repro.datastore.table.Table`
object (weakly, so a removed source's tables are freed) and rebuilt when its
``version`` moves, and a cached row list is replayed only while every
table it read is still the catalog's table under that name at the version it
was read at.  A mutation, a registration or a source re-registered under the
same name therefore never returns stale rows, and nothing has to be told.
"""

from __future__ import annotations

import itertools
import operator
import threading
import weakref
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..datastore.database import Catalog
from ..datastore.provenance import AnswerRow
from ..datastore.table import Row, Table
from ..datastore.types import canonicalize
from ..graph.features import WeightVector
from ..graph.search_graph import SearchGraph
from ..obs.tracing import active_trace
from ..steiner.network import SolverCounters, SteinerNetwork
from ..steiner.tree import SteinerTree
from ..storage.pushdown import SqlPushdown, off_backend_relations
from .predicates import CompiledPredicate

#: Identity of a filtered scan within one relation: its predicates' keys (a
#: conjunction is a set, and a set never orders a null needle against a value).
PredicatesKey = FrozenSet[Tuple[str, Optional[str]]]


#: The two targets a read can be lowered onto (see
#: :meth:`ExecutionContext.choose_target`): the Python operators of
#: :mod:`repro.engine.executor`, or SQL rendered by :mod:`repro.storage`.
PYTHON = "python"
SQL = "sql"


@dataclass
class ContextStatistics:
    """Operational counters, mostly for tests and benchmarks."""

    scans: int = 0
    scan_cache_hits: int = 0
    index_scans: int = 0
    join_indexes_built: int = 0
    join_index_cache_hits: int = 0
    #: Whole conjunctive queries answered natively by the storage backend.
    pushdown_queries: int = 0


#: Complete top-k enumerations a :class:`SteinerNetworkCache` keeps (LRU).  An
#: entry is two byte strings (a digest, 8 bytes per edge) and k small trees:
#: 128 of them stay under 1 MB on the serving benchmark's graphs.
RANKING_MEMO_SIZE = 128

#: Answer lists of distinct query contents an :class:`ExecutionContext` keeps (LRU).
ANSWER_CACHE_SIZE = 256

#: Generated queries of distinct (structure stamp, tree edge set) pairs an
#: :class:`ExecutionContext` keeps (LRU).
QUERY_MEMO_SIZE = 256

#: The tables one query read, with the version each was read at.
TableReads = Tuple[Tuple[Table, int], ...]


class _Topology:
    """One structure stamp's indexed network, and what re-prices it.

    ``network`` holds no graph and is never handed out: the index maps, plus
    the costs and adjacency of the snapshot last derived here, which
    ``weights`` priced (the weight of each feature of ``positions``).
    ``postings`` lists, per feature position, the learnable edges that carry
    the feature.  Many topologies are never derived from (a view read once
    between registrations), so the first derivation or :meth:`features` call
    indexes the features; until then ``priced`` holds the effective weights
    the build read.
    ``handed`` refers weakly to the snapshot last handed out and ``version``
    is its graph's weight version: while a caller still holds it, the same
    graph at the same version gets it back, and nothing here keeps a graph
    alive.
    """

    __slots__ = ("network", "handed", "version", "priced", "positions", "postings", "weights")

    def __init__(self, network: SteinerNetwork) -> None:
        graph = network.graph
        self.priced: Optional[Dict[str, float]] = graph.weights.as_dict()
        self.positions: Dict[str, int] = {}
        self.postings: List[List[int]] = []
        self.weights: List[float] = []
        self.network = network.rescored(None, (), graph.weights)
        self.handed, self.version = weakref.ref(network), graph.weights.version

    def features(self, graph: SearchGraph) -> Dict[str, int]:
        """Each feature a learnable edge of ``graph`` carries, at its position:
        the only weights a price of this topology reads.  Indexed on first use."""
        if self.priced is not None:
            postings: Dict[str, List[int]] = defaultdict(list)
            for idx, edge in enumerate(graph.edges()):
                if edge.fixed_cost is None:  # learnable
                    for feature in edge.features:
                        postings[feature].append(idx)
            self.positions = {feature: position for position, feature in enumerate(postings)}
            self.postings = list(postings.values())
            self.weights = list(map(self.priced.get, self.positions, itertools.repeat(0.0)))
            self.priced = None
        return self.positions

    def current(self, graph: SearchGraph) -> Optional[SteinerNetwork]:
        """The snapshot last handed out, if it is ``graph``'s at its weight version and still held."""
        network = self.handed()
        if network is not None and network.graph is graph and self.version == graph.weights.version:
            return network
        return None

    def derive(self, graph: SearchGraph) -> Tuple[SteinerNetwork, bool]:
        """``graph``'s snapshot, and whether it re-priced an edge: every edge
        that carries a feature whose weight moved since the last snapshot is
        re-priced, every other one is kept."""
        weights = graph.weights.gather(self.features(graph))
        moved: Set[int] = set()
        for position in itertools.compress(itertools.count(), map(operator.ne, weights, self.weights)):
            moved.update(self.postings[position])
        flat = WeightVector(dict(zip(self.positions, weights))) if moved else graph.weights
        network = self.network.rescored(graph, moved, flat)
        self.network.edge_costs, self.network.adjacency = network.edge_costs, network.adjacency
        self.weights, self.handed, self.version = weights, weakref.ref(network), graph.weights.version
        return network, bool(moved)


class SteinerNetworkCache:
    """What a session's Steiner solves share: networks, rankings, totals.

    *Networks.*  A :class:`~repro.steiner.network.SteinerNetwork` is indexed
    once per topology, the graph's
    :attr:`~repro.graph.search_graph.SearchGraph.structure_stamp`: an
    expansion, its tenant twins, its snapshot copies and the learner's clones
    share one stamp, and any structural move takes a new one.  Per stamp
    (LRU, ``maxsize``) the cache keeps the indexed network without a graph
    reference, a posting of the learnable edges per feature, and the last
    cost vector with the weights it was priced under.  :meth:`network` then
    answers three ways.  A hit serves the last prices as they are: the
    snapshot handed out last, to the same graph at the same weight version
    while the caller still holds it, or else one sharing its cost vector and
    adjacency when this graph's vector weighs every carried feature the same.
    A rescore derives a snapshot from the last prices with only the edges
    whose features weigh differently re-priced (a feedback step, a tenant
    overlay, a frozen copy).  A build indexes a new stamp from scratch.  The
    derived costs are a from-scratch build's bit for bit, so the ranking memo
    cannot tell them apart.

    *Rankings.*  The k best trees are a function of the priced network, the
    terminals, ``k`` and the expansion cap alone, while the version key moves
    for reasons that leave a graph's costs bit-identical (a sibling view's new
    keyword-edge feature on the shared vector, a tenant shadow on a feature
    this graph does not carry) and a republished snapshot's copy, a tenant
    twin or the learner's clone is a new object altogether.  So complete
    enumerations are remembered under exactly what they read (the key is
    built by :meth:`~repro.steiner.topk.KBestSteiner.solve`), and every
    solver sharing this cache — views, tenant views, snapshot views, the
    learner — finds them.  Beside the memo, the latest complete list per
    terminal set is kept (:meth:`latest`), under the same LRU bound: a
    two-terminal enumeration the memo cannot answer — the costs moved after
    feedback, the expansion after a registration — re-prices it on its own
    network and starts from its k-th cost as α instead of infinity.
    """

    def __init__(self, maxsize: int = 16) -> None:
        self.maxsize = maxsize
        # Structure stamp -> that topology's index and last prices.
        self._topologies: "OrderedDict[int, _Topology]" = OrderedDict()
        # The LRU bookkeeping (move_to_end + popitem) is not safe under the
        # GIL alone; the serving layer shares one cache across all its
        # reader threads, so all lookups serialize on this lock.  Builds and
        # derivations happen inside the critical section too: a topology's
        # last prices are read and replaced by each derivation.
        self._lock = threading.Lock()
        # Memo key -> the trees of one complete enumeration, in its order.
        # Nothing in an entry references a graph, a network or an id list.
        self._rankings: "OrderedDict[tuple, Tuple[SteinerTree, ...]]" = OrderedDict()
        # Terminal set -> the trees last remembered for it (a warm start).
        self._latest: "OrderedDict[FrozenSet[str], Tuple[SteinerTree, ...]]" = OrderedDict()
        # Guards the memo and the solver totals; apart from ``_lock`` so that
        # a recall never waits behind another thread's network build.
        self._solve_lock = threading.Lock()
        self.hits = 0
        self.builds = 0
        #: Networks derived from the last prices of their topology with some
        #: edge re-priced, instead of built from scratch.
        self.rescores = 0
        #: What the top-k solves run through this cache did, in total.
        self.solver = SolverCounters()

    def record_solve(self, counters: SolverCounters) -> None:
        """Total one finished solve's counters; annotate the active trace with them."""
        trace = active_trace()
        with self._solve_lock:
            for name, value in vars(counters).items():
                setattr(self.solver, name, getattr(self.solver, name) + value)
                trace.tally(f"steiner_{name}", value)

    def recall(self, key: tuple) -> Optional[Tuple[SteinerTree, ...]]:
        """The trees remembered under ``key``, in their enumeration's order, if any."""
        with self._solve_lock:
            trees = self._rankings.get(key)
            if trees is not None:
                self._rankings.move_to_end(key)
            return trees

    def remember(self, key: tuple, trees: Sequence[SteinerTree]) -> None:
        """Keep one *complete* enumeration's result, evicting the least recently used.

        Two threads that missed the same key store equal lists: harmless.
        """
        trees = tuple(trees)
        with self._solve_lock:
            self._rankings[key] = trees  # a new key lands at the recent end
            while len(self._rankings) > RANKING_MEMO_SIZE:
                self._rankings.popitem(last=False)
            if trees:
                self._latest[trees[0].terminals] = trees
                self._latest.move_to_end(trees[0].terminals)
                while len(self._latest) > RANKING_MEMO_SIZE:
                    self._latest.popitem(last=False)

    def latest(self, terminals: FrozenSet[str]) -> Tuple[SteinerTree, ...]:
        """The trees last remembered for ``terminals`` (empty if none): valid
        trees of *some* earlier network, for the caller to re-check and re-price."""
        with self._solve_lock:
            return self._latest.get(terminals, ())

    def _topology(self, graph: SearchGraph) -> Tuple[_Topology, Optional[SteinerNetwork]]:
        """``graph``'s topology (caller holds ``_lock``), and the network if this built it."""
        stamp = graph.structure_stamp
        topology = self._topologies.get(stamp)
        if topology is not None:
            self._topologies.move_to_end(stamp)
            return topology, None
        network = SteinerNetwork(graph)
        topology = self._topologies[stamp] = _Topology(network)
        while len(self._topologies) > self.maxsize:
            self._topologies.popitem(last=False)
        self.builds += 1
        return topology, network

    def network(self, graph: SearchGraph) -> SteinerNetwork:
        """``graph``'s snapshot: cached, derived from its topology's, or built."""
        with self._lock:
            topology, network = self._topology(graph)
            if network is not None:
                return network
            network, repriced = topology.current(graph), False
            if network is None:
                network, repriced = topology.derive(graph)
            if repriced:
                self.rescores += 1
            else:
                self.hits += 1
            return network

    def features(self, graph: SearchGraph) -> Dict[str, int]:
        """The features ``graph``'s learnable edges carry, each at its position.

        Two weight vectors that :meth:`~repro.graph.features.WeightVector.gather`
        the same values here price ``graph`` bit for bit alike.  The mapping
        is the topology's own index, shared by every graph of its stamp; it is
        replaced, never mutated, so a caller may keep it.
        """
        with self._lock:
            return self._topology(graph)[0].features(graph)

    def __len__(self) -> int:
        return len(self._topologies)


class _RelationCaches:
    """Everything cached for one table at one version; keyed weakly by the
    table, so it must not reference it (a value pinning its key is never freed)."""

    __slots__ = ("version", "scans", "join_indexes", "attribute_indexes")

    def __init__(self, version: int) -> None:
        self.version = version
        self.scans: Dict[PredicatesKey, List[Row]] = {}
        self.join_indexes: Dict[Tuple[PredicatesKey, Tuple[str, ...]], Dict[Tuple, List[Row]]] = {}
        self.attribute_indexes: Dict[str, Dict[str, List[int]]] = {}


class ExecutionContext:
    """Caches shared across the queries executed against one catalog.

    Selection pushdown: a filtered scan is seeded from a per-attribute
    inverted value index (canonical value → row ids) built lazily per
    relation, on every backend, and rebuilt when the table's data version
    moves, so it can never serve stale rows.  An unfiltered scan reads the
    table.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.statistics = ContextStatistics()
        self._relations: "weakref.WeakKeyDictionary[Table, _RelationCaches]" = (
            weakref.WeakKeyDictionary()
        )
        # Query content key -> (a weak reference and version per table read,
        # the rows); locked like the ranking memo, for concurrent readers.
        self._answers: "OrderedDict[str, tuple]" = OrderedDict()
        self._answers_lock = threading.Lock()
        # (structure stamp, tree edge set) -> the tree's generated query, or
        # None for a tree the generator skipped; locked like the answers.
        self._queries: "OrderedDict[Tuple[int, FrozenSet[str]], object]" = OrderedDict()
        self._queries_lock = threading.Lock()
        #: Shared Steiner cache (networks keyed by topology, rankings by content,
        #: so it needs no explicit invalidation — see :class:`SteinerNetworkCache`).
        self.steiner_cache = SteinerNetworkCache()
        #: Whole-query SQL handle, present iff the catalog's storage
        #: backend supports pushdown (see :mod:`repro.storage.pushdown`).
        self.pushdown = None
        backend = getattr(catalog, "backend", None)
        if backend is not None and backend.supports_sql_pushdown:
            self.pushdown = SqlPushdown(backend)

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------
    def choose_target(self, query, budget=None) -> Tuple[str, Optional[str]]:
        """The one capability check: where ``query`` runs.

        Returns ``(SQL, None)`` when the query can be rendered as one
        statement on the catalog's backend, else ``(PYTHON, reason)`` with
        the concrete condition that ruled SQL out — the string the explain
        log records, so the reason a dashboard shows is the reason the
        engine acted on.  Conditions are tested most fundamental first.

        ``budget`` is the read's deadline: the Python plan loop checks it
        per step; a SQL statement runs to completion.
        """
        if self.pushdown is None:
            return PYTHON, "backend has no SQL pushdown (Python join engine)"
        if budget is not None:
            return PYTHON, (
                "deadline-budgeted read: one SQL statement cannot be "
                "interrupted at the deadline"
            )
        missing = off_backend_relations(self.pushdown.backend, self.catalog, query)
        if missing:
            names = ", ".join(sorted(set(missing)))
            return PYTHON, f"relation(s) not stored on the SQL backend: {names}"
        return SQL, None

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def table_reads(self, query) -> TableReads:
        """Each table ``query`` reads, with its version.  Taken *before* executing,
        so rows computed while a table moved are remembered as stale."""
        tables = map(self.catalog.relation, dict.fromkeys(query.relations()))
        return tuple((table, table.version) for table in tables)

    def recall_answers(self, key: str, reads: TableReads) -> Optional[List[AnswerRow]]:
        """The rows :meth:`remember_answers` kept under ``key``, if read from exactly ``reads``.

        The cache holds rows, not answers: each reader builds its own
        answers from them, under its own cost and query id.  Same table
        *objects* at the same versions: a source re-registered under the
        same name is a new table whose version may coincide with the old
        one's.  The list is shared; callers must not mutate it.
        """
        with self._answers_lock:
            entry = self._answers.get(key)
            if entry is None or tuple((ref(), version) for ref, version in entry[0]) != reads:
                return None
            self._answers.move_to_end(key)
            return entry[1]

    def remember_answers(self, key: str, reads: TableReads, rows: List[AnswerRow]) -> None:
        """Keep one complete execution's rows, evicting the least recently used."""
        weak = tuple((weakref.ref(table), version) for table, version in reads)
        with self._answers_lock:
            self._answers[key] = (weak, rows)
            self._answers.move_to_end(key)
            while len(self._answers) > ANSWER_CACHE_SIZE:
                self._answers.popitem(last=False)

    # ------------------------------------------------------------------
    # Generated queries
    # ------------------------------------------------------------------
    def recall_queries(self, stamp: int, edge_sets: Sequence[FrozenSet[str]]) -> Dict[FrozenSet[str], object]:
        """Of the trees ``edge_sets``, those already generated on topology
        ``stamp``: edge set -> its generated query (``None`` if skipped).

        A query reads the graph's structure and the tree's edges alone, and
        graphs of one :attr:`~repro.graph.search_graph.SearchGraph.structure_stamp`
        share every node and edge object: any twin or copy can re-stamp it.
        """
        with self._queries_lock:
            known = {}
            for edge_ids in edge_sets:
                key = (stamp, edge_ids)
                if key in self._queries:
                    self._queries.move_to_end(key)
                    known[edge_ids] = self._queries[key]
            return known

    def remember_queries(self, stamp: int, generated: Dict[FrozenSet[str], object]) -> None:
        """Keep the queries generated on topology ``stamp``, evicting the least recently used."""
        with self._queries_lock:
            for edge_ids, query in generated.items():
                self._queries[(stamp, edge_ids)] = query
                self._queries.move_to_end((stamp, edge_ids))
            while len(self._queries) > QUERY_MEMO_SIZE:
                self._queries.popitem(last=False)

    def _relation_caches(self, table: Table) -> _RelationCaches:
        caches = self._relations.get(table)
        if caches is None or caches.version != table.version:
            caches = self._relations[table] = _RelationCaches(table.version)
        return caches

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    @staticmethod
    def _predicates_key(predicates: Sequence[CompiledPredicate]) -> PredicatesKey:
        return frozenset(p.key for p in predicates)

    def scan(self, relation: str, predicates: Sequence[CompiledPredicate]) -> List[Row]:
        """Rows of ``relation`` passing all ``predicates`` (cached).

        The returned list is owned by the cache — callers must not mutate it.
        """
        table = self.catalog.relation(relation)
        caches = self._relation_caches(table)
        key = self._predicates_key(predicates)
        cached = caches.scans.get(key)
        if cached is not None:
            self.statistics.scan_cache_hits += 1
            return cached
        rows = self._execute_scan(caches, table, predicates)
        caches.scans[key] = rows
        return rows

    def _execute_scan(
        self, caches: _RelationCaches, table: Table, predicates: Sequence[CompiledPredicate]
    ) -> List[Row]:
        if not predicates:
            self.statistics.scans += 1
            return list(table.scan())
        # Selection pushdown: seed the scan from the value index of the
        # predicate with the fewest candidate rows.
        self.statistics.index_scans += 1
        seed = min(
            (self._attribute_index(caches, table, p.attribute).get(p.canonical_value, [])
             for p in predicates),
            key=len,
        )
        rows = table.scan()
        candidates = (rows[row_id] for row_id in seed)
        return [row for row in candidates if all(p.matches(row[p.attribute]) for p in predicates)]

    def _attribute_index(
        self, caches: _RelationCaches, table: Table, attribute: str
    ) -> Dict[str, List[int]]:
        cached = caches.attribute_indexes.get(attribute)
        if cached is not None:
            return cached
        index: Dict[str, List[int]] = {}
        attr_idx = table.schema.attribute_index(attribute)
        for row in table.scan():
            canon = canonicalize(row.values[attr_idx])
            if canon is None:
                continue
            index.setdefault(canon, []).append(row.row_id)
        caches.attribute_indexes[attribute] = index
        return index

    # ------------------------------------------------------------------
    # Cardinality estimation (used by the planner's greedy join ordering)
    # ------------------------------------------------------------------
    def estimated_cardinality(self, relation: str, predicates: Sequence[CompiledPredicate]) -> int:
        """Exact filtered cardinality of a scan.

        Every atom of a conjunctive query must be scanned during execution
        anyway and scans are cached, so the planner "estimates" by
        materializing the scan — exact numbers at no extra cost.
        """
        return len(self.scan(relation, predicates))

    # ------------------------------------------------------------------
    # Join indexes
    # ------------------------------------------------------------------
    def join_index(
        self,
        relation: str,
        predicates: Sequence[CompiledPredicate],
        key_attributes: Tuple[str, ...],
    ) -> Dict[Tuple, List[Row]]:
        """Hash index of the filtered scan keyed on canonicalized attributes.

        Rows with a null canonical value in any key attribute are omitted
        (null never joins), matching the seed executor's hash-join build.
        The returned dict is owned by the cache — callers must not mutate it.
        """
        table = self.catalog.relation(relation)
        caches = self._relation_caches(table)
        cache_key = (self._predicates_key(predicates), key_attributes)
        cached = caches.join_indexes.get(cache_key)
        if cached is not None:
            self.statistics.join_index_cache_hits += 1
            return cached
        hashed: Dict[Tuple, List[Row]] = {}
        for row in self.scan(relation, predicates):
            key = tuple(canonicalize(row[attr]) for attr in key_attributes)
            if any(part is None for part in key):
                continue
            hashed.setdefault(key, []).append(row)
        caches.join_indexes[cache_key] = hashed
        self.statistics.join_indexes_built += 1
        return hashed
