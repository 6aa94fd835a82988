"""Tests of the concurrent serving layer (:mod:`repro.service`).

Covers the serving contracts the module README promises:

* snapshot-isolated reads: a read never observes a half-applied mutation,
  and a page stream started before concurrent writes land keeps yielding
  byte-identical pages (both storage backends);
* the bounded single-writer queue: FIFO application, publish-before-
  complete, and fail-fast :class:`~repro.exceptions.ServiceOverloadedError`
  backpressure;
* the two read entry points: a blocking ``query`` runs on its caller's
  thread and ``submit_query`` on the read pool, and ``close()`` refuses
  later reads and waits for every admitted one;
* edge-id allocation staying duplicate-free under threads (each graph
  numbers its own edges, so sessions on different threads share nothing;
  within one session the writer lane owns expansion);
* ``QService`` as a context manager with idempotent close;
* the per-topology Steiner-network derivation that makes per-tenant solving cheap.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.exceptions import (
    DeadlineExceededError,
    InvalidRequestError,
    ServerClosedError,
    ServiceOverloadedError,
    UnknownViewError,
)
from repro.graph import EdgeKind, SearchGraph
from repro.learning import AnnotationKind
from repro.matching import MetadataMatcher
from repro.service import QServer
from repro.service.snapshots import ReadSnapshot
from repro.steiner import SteinerNetwork


def _clone(source):
    return source_from_dict(source_to_dict(source))


def _fingerprint(answers):
    return [
        (
            tuple(answer.values.items()),
            answer.cost,
            answer.provenance.query_id if answer.provenance is not None else None,
            tuple(sorted(answer.provenance.base_tuples))
            if answer.provenance is not None
            else None,
        )
        for answer in answers
    ]


def _gbco_service(gbco_dataset, hold_out=(), backend=None):
    """A bootstrap-aligned session over the GBCO catalog minus ``hold_out``."""
    service = QService(
        sources=[
            _clone(source)
            for source in gbco_dataset.catalog
            if source.name not in hold_out
        ],
        config=ServiceConfig(top_k=5, top_y=1, write_queue_limit=16),
        backend=backend,
    )
    service.bootstrap_alignments()
    return service


# ----------------------------------------------------------------------
# Edge-id allocation under threads (regression)
# ----------------------------------------------------------------------
def test_edge_id_allocation_is_duplicate_free_under_threads():
    """Each graph numbers its own edges, so sessions building on different
    threads never share — or skip — an id: every thread's graph hands out
    exactly ``#0 .. #n-1``."""
    per_thread = 200
    threads = 8
    collected = [[] for _ in range(threads)]

    def allocate(bucket):
        graph = SearchGraph()
        for _ in range(per_thread):
            bucket.append(
                graph.new_edge("u", "v", EdgeKind.ASSOCIATION, features={"f": 1.0}).edge_id
            )

    workers = [
        threading.Thread(target=allocate, args=(collected[i],)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive()
    expected = [f"association:u|v#{n}" for n in range(per_thread)]
    assert all(bucket == expected for bucket in collected)


# ----------------------------------------------------------------------
# QService context manager (satellite)
# ----------------------------------------------------------------------
def test_qservice_context_manager_closes_idempotently(mini_catalog):
    with QService(sources=list(mini_catalog)) as service:
        assert service.stats().sources == 2
    # __exit__ already closed; explicit re-close must be a no-op.
    service.close()
    service.close()


def test_qservice_context_manager_closes_on_exception(mini_catalog):
    with pytest.raises(RuntimeError, match="boom"):
        with QService(sources=list(mini_catalog)) as service:
            raise RuntimeError("boom")
    service.close()  # still safe


# ----------------------------------------------------------------------
# Server basics: snapshot reads, writer lane, publish-before-complete
# ----------------------------------------------------------------------
def test_server_reads_are_snapshot_isolated_and_repeatable(gbco_dataset):
    keywords = gbco_dataset.query_log[2].keywords
    with _gbco_service(gbco_dataset) as service:
        with QServer(service) as server:
            first = server.query(QueryRequest(keywords=keywords))
            assert len(first.answers) > 0
            again = server.query(QueryRequest(keywords=keywords))
            assert again.answers == first.answers
            # Futures surface the same results as the blocking form.
            future = server.submit_query(QueryRequest(view=first.view_id))
            assert future.result().answers == first.answers


def test_server_write_publishes_before_future_resolves(gbco_dataset):
    entry = gbco_dataset.query_log[2]
    hold_out = tuple(sorted({r.split(".")[0] for r in entry.new_relations}))
    with _gbco_service(gbco_dataset, hold_out=hold_out) as service:
        with QServer(service) as server:
            before = server.query(QueryRequest(keywords=entry.keywords))
            response = server.register(
                RegisterSourceRequest(
                    source=_clone(gbco_dataset.catalog.source(hold_out[0])),
                    strategy="exhaustive",
                    matcher=MetadataMatcher(),
                )
            )
            assert response.edges_added > 0
            # The snapshot that includes the write is already published.
            after = server.query(QueryRequest(view=before.view_id))
            assert after.snapshot_id > before.snapshot_id
            assert ("register", hold_out[0]) in server.write_log


def test_server_rejects_unknown_view_and_k_mismatch(gbco_dataset):
    keywords = gbco_dataset.query_log[2].keywords
    with _gbco_service(gbco_dataset) as service:
        with QServer(service) as server:
            result = server.query(QueryRequest(keywords=keywords))
            with pytest.raises(InvalidRequestError, match="k="):
                server.query(QueryRequest(view=result.view_id, k=3))
            with pytest.raises(UnknownViewError):
                server.query(QueryRequest(view="view-9999"))


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_write_queue_backpressure_fails_fast(mini_catalog):
    with QService(sources=list(mini_catalog), config=ServiceConfig(write_queue_limit=2)) as service:
        with QServer(service, read_workers=2) as server:
            gate = threading.Event()
            release = threading.Event()

            def blocker():
                gate.set()
                release.wait(timeout=30)
                return "done"

            blocked = server.submit_mutation(blocker, kind="block")
            assert gate.wait(timeout=10)  # writer lane is now busy
            fillers = [
                server.submit_mutation(lambda: None, kind="noop") for _ in range(2)
            ]
            with pytest.raises(ServiceOverloadedError) as excinfo:
                server.submit_mutation(lambda: None, kind="overflow")
            assert excinfo.value.limit == 2
            assert excinfo.value.pending >= 1
            assert server.stats().writes_rejected == 1
            release.set()
            assert blocked.result(timeout=30) == "done"
            for filler in fillers:
                filler.result(timeout=30)
            # Queue drained: writes are admitted again.
            server.submit_mutation(lambda: None, kind="noop").result(timeout=30)
            stats = server.stats()
            assert stats.writes_applied == 4
            assert stats.writes_failed == 0


def test_failed_write_publishes_no_snapshot(mini_catalog):
    with QService(sources=list(mini_catalog)) as service:
        with QServer(service) as server:
            before = server.stats()

            def explode():
                raise RuntimeError("mutation failed")

            future = server.submit_mutation(explode, kind="explode")
            with pytest.raises(RuntimeError, match="mutation failed"):
                future.result(timeout=30)
            stats = server.stats()
            assert stats.writes_failed == 1
            assert stats.snapshot_id == before.snapshot_id
            assert stats.snapshots_published == before.snapshots_published
            assert ("explode", None) not in server.write_log


def test_server_close_is_idempotent_and_rejects_new_work(mini_catalog):
    service = QService(sources=list(mini_catalog))
    server = QServer(service)
    server.close()
    server.close()
    with pytest.raises(InvalidRequestError, match="closed"):
        server.query(QueryRequest(keywords=("kinase",)))
    with pytest.raises(InvalidRequestError, match="closed"):
        server.submit_mutation(lambda: None)
    service.close()


# ----------------------------------------------------------------------
# Blocking reads run on the caller's thread; close() waits for them
# ----------------------------------------------------------------------
def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("qserve-read")]


def test_blocking_query_runs_on_the_calling_thread(gbco_dataset, monkeypatch):
    keywords = gbco_dataset.query_log[2].keywords
    threads = []
    answers_for = ReadSnapshot.answers_for

    def recording(self, *args, **kwargs):
        threads.append(threading.current_thread())
        return answers_for(self, *args, **kwargs)

    monkeypatch.setattr(ReadSnapshot, "answers_for", recording)
    with _gbco_service(gbco_dataset) as service:
        with QServer(service, read_workers=2) as server:
            first = server.query(QueryRequest(keywords=keywords))
            again = server.query(QueryRequest(view=first.view_id), deadline_ms=60_000.0)
            assert threads == [threading.current_thread()] * 2
            assert again.answers == first.answers and not _pool_threads()
            pooled = server.submit_query(QueryRequest(view=first.view_id)).result(timeout=30)
            assert pooled.answers == first.answers
            assert threads[-1].name.startswith("qserve-read")
            assert threads[-1] in _pool_threads()


def test_close_waits_for_an_admitted_blocking_read(gbco_dataset, monkeypatch):
    keywords = gbco_dataset.query_log[2].keywords
    entered, release = threading.Event(), threading.Event()
    order, results = [], []
    answers_for = ReadSnapshot.answers_for

    def held(self, *args, **kwargs):
        entered.set()
        assert release.wait(timeout=30)
        answers = answers_for(self, *args, **kwargs)
        order.append("answered")
        return answers

    def close():
        server.close()
        order.append("closed")

    with _gbco_service(gbco_dataset) as service:
        server = QServer(service)
        view_id = server.query(QueryRequest(keywords=keywords)).view_id
        monkeypatch.setattr(ReadSnapshot, "answers_for", held)
        reader = threading.Thread(target=lambda: results.append(server.query(QueryRequest(view=view_id))), daemon=True)
        closer = threading.Thread(target=close, daemon=True)  # a stuck close() fails, not hangs
        try:
            reader.start()
            assert entered.wait(timeout=30)
            closer.start()
            while server.health() != "closed":
                closer.join(timeout=0.01)
            closer.join(timeout=0.2)
            assert closer.is_alive() and order == []
            # Refused at admission: it never reaches the held snapshot read.
            with pytest.raises(ServerClosedError):
                server.query(QueryRequest(view=view_id))
        finally:
            release.set()
            reader.join(timeout=30)
            closer.join(timeout=30)
            server.close()
    assert not reader.is_alive() and not closer.is_alive()
    assert order == ["answered", "closed"]
    assert len(results) == 1 and results[0].answers


def test_close_after_racing_blocking_reads_returns(gbco_dataset):
    """Six reader threads on two cores, switching every microsecond: a lost
    update to the in-flight count would leave close() waiting forever."""
    keywords = gbco_dataset.query_log[2].keywords
    interval = sys.getswitchinterval()
    with _gbco_service(gbco_dataset) as service:
        server = QServer(service)
        view_id = server.query(QueryRequest(keywords=keywords)).view_id
        closer = threading.Thread(target=server.close, daemon=True)
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(server.query, QueryRequest(view=view_id, tenant=(None, "t")[i % 2]))
                    for i in range(120)
                ]
                assert all(future.result(timeout=60).answers for future in futures)
            closer.start()
            closer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            server.close()
    assert not closer.is_alive()
    assert server.stats().reads_served == 121


def test_query_after_close_raises_server_closed(mini_catalog):
    with QService(sources=list(mini_catalog)) as service:
        server = QServer(service)
        server.close()
        with pytest.raises(ServerClosedError):
            server.query(QueryRequest(keywords=("kinase",)))
        with pytest.raises(ServerClosedError):
            server.submit_query(QueryRequest(keywords=("kinase",)))
        assert server.stats().reads_served == 0


def test_zero_deadline_blocking_query_fails_before_its_first_answer(gbco_dataset):
    keywords = gbco_dataset.query_log[2].keywords
    with _gbco_service(gbco_dataset) as service:
        with QServer(service) as server:
            view_id = server.submit_create_view(QueryRequest(keywords=keywords)).result(timeout=30).view_id
            with pytest.raises(DeadlineExceededError):
                server.query(QueryRequest(view=view_id), deadline_ms=0.0)
            with pytest.raises(DeadlineExceededError):
                server.query(QueryRequest(view=view_id, deadline_ms=0.0))
            full = server.query(QueryRequest(view=view_id))
            assert full.answers and not full.degraded
            assert server.stats().reads_served == 1


# ----------------------------------------------------------------------
# Mid-stream page isolation under concurrent writes (both backends)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_mid_stream_pages_are_isolated_from_concurrent_writes(gbco_dataset, backend):
    """A page iterator opened before writes keeps yielding identical pages.

    The reader pins its snapshot with the first page; a registration (graph
    structure moves, caches invalidate) and a feedback event (weights move)
    then land through the writer lane; the remaining pages must still be
    byte-identical to a full read taken before either write.
    """
    entry = gbco_dataset.query_log[2]
    hold_out = tuple(sorted({r.split(".")[0] for r in entry.new_relations}))
    with _gbco_service(gbco_dataset, hold_out=hold_out, backend=backend) as service:
        with QServer(service) as server:
            result = server.query(QueryRequest(keywords=entry.keywords, page_size=7))
            assert len(result.answers) > 14, "need at least three pages"
            reference = _fingerprint(result.answers)

            pages = result.pages()
            first_page = next(pages)
            consumed = list(first_page.answers)

            server.register(
                RegisterSourceRequest(
                    source=_clone(gbco_dataset.catalog.source(hold_out[0])),
                    strategy="exhaustive",
                    matcher=MetadataMatcher(),
                )
            )
            fresh = server.query(QueryRequest(view=result.view_id))
            server.feedback(
                FeedbackRequest(
                    view=result.view_id,
                    answer=fresh.answers[0],
                    kind=AnnotationKind.VALID,
                )
            )

            for page in pages:
                consumed.extend(page.answers)
            assert _fingerprint(consumed) == reference
            # And the writes really landed: a fresh read runs on a newer
            # snapshot than the pinned one.
            assert (
                server.query(QueryRequest(view=result.view_id)).snapshot_id
                > result.snapshot_id
            )


# ----------------------------------------------------------------------
# Concurrent mixed traffic correctness
# ----------------------------------------------------------------------
def test_concurrent_reads_match_some_published_snapshot(gbco_dataset):
    """Every concurrent read equals the serial answer of the snapshot it names."""
    entry = gbco_dataset.query_log[2]
    with _gbco_service(gbco_dataset) as service:
        with QServer(service, read_workers=4) as server:
            seed = server.query(QueryRequest(keywords=entry.keywords))
            by_snapshot = {seed.snapshot_id: _fingerprint(seed.answers)}
            lock = threading.Lock()

            def read(_):
                result = server.query(QueryRequest(view=seed.view_id))
                return result.snapshot_id, _fingerprint(result.answers)

            def write(i):
                fresh = server.query(QueryRequest(view=seed.view_id))
                server.feedback(
                    FeedbackRequest(
                        view=seed.view_id,
                        answer=fresh.answers[i % len(fresh.answers)],
                        kind=AnnotationKind.VALID,
                    )
                )
                with lock:
                    after = server.query(QueryRequest(view=seed.view_id))
                    by_snapshot[after.snapshot_id] = _fingerprint(after.answers)

            with ThreadPoolExecutor(max_workers=6) as pool:
                read_futures = [pool.submit(read, i) for i in range(12)]
                write_futures = [pool.submit(write, i) for i in range(3)]
                observations = [future.result() for future in read_futures]
                for future in write_futures:
                    future.result()

            for snapshot_id, fingerprint in observations:
                expected = by_snapshot.get(snapshot_id)
                if expected is not None:
                    assert fingerprint == expected, (
                        f"read on snapshot {snapshot_id} diverged from the "
                        "serial answer of that snapshot"
                    )
            assert server.stats().writes_failed == 0


# ----------------------------------------------------------------------
# Steiner networks derived per topology (per-tenant fast path)
# ----------------------------------------------------------------------
def test_tenant_network_derives_from_its_topology(gbco_dataset):
    """A tenant twin shares its view's structure stamp, so its network is
    derived from the one the view's read indexed: only the edges the overlay
    prices differently are re-priced, and the result is a from-scratch
    build's to the bit, ranking included."""
    entry = gbco_dataset.query_log[2]
    with _gbco_service(gbco_dataset) as service:
        info = service.create_view(QueryRequest(keywords=entry.keywords), materialize=False)
        base = list(service.stream_answers(QueryRequest(view=info.view_id)))
        first = base[0]
        other = next(
            a for a in base if a.provenance.query_id != first.provenance.query_id
        )
        service.feedback(
            FeedbackRequest(
                view=info.view_id,
                answer=first,
                kind=AnnotationKind.PREFERRED_OVER,
                other=other,
                replay=4,
                tenant="alice",
            )
        )
        cache = service.engine_context.steiner_cache
        builds_before, rescores_before = cache.builds, cache.rescores
        derived = _fingerprint(
            service.stream_answers(QueryRequest(view=info.view_id, tenant="alice"))
        )
        assert cache.rescores == rescores_before + 1
        assert cache.builds == builds_before
        twin_graph = service.views.get(info.view_id).twins["alice"].query_graph.graph
        network, scratch = cache.network(twin_graph), SteinerNetwork(twin_graph)
        assert network.priced_key() == scratch.priced_key()
        assert network.adjacency == scratch.adjacency

        # Parity: with the whole cache emptied, the tenant network is built
        # from scratch and enumerated afresh, and ranks identically.
        for store in (cache._topologies, cache._rankings, cache._latest):
            store.clear()
        service.views.get(info.view_id).twins.clear()
        rebuilt = _fingerprint(
            service.stream_answers(QueryRequest(view=info.view_id, tenant="alice"))
        )
        assert cache.builds == builds_before + 1
        assert cache.rescores == rescores_before + 1
        assert rebuilt == derived
