"""Property tests of the persistence payloads + corruption handling.

Three properties anchor the snapshot format:

* **Fixed point** — serializing random graph/weights/profile states,
  restoring them and serializing again yields byte-identical payloads
  (canonical encodings: ordered containers verbatim, sets sorted).
* **Journal replay equals direct state** — a session persisted as
  snapshot + journal entries restores to the same graph/weights/profiles a
  compacted full snapshot of the same live session describes.
* **Corruption is typed** — truncated, bit-flipped, version-skewed or
  missing documents raise :class:`~repro.exceptions.SnapshotError`, never
  a silent partial restore.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import FeedbackRequest, QService, QueryRequest, SnapshotError
from repro.datastore import DataSource
from repro.graph.edges import EdgeKind
from repro.graph.nodes import make_attribute_node, make_relation_node
from repro.graph.search_graph import SearchGraph
from repro.matching import ValueOverlapMatcher
from repro.persist import unwrap_document, wrap_document
from repro.persist.snapshot import (
    FORMAT_VERSION,
    graph_payload,
    restore_graph,
    restore_weights,
    weights_payload,
)
from repro.profiling.index import CatalogProfileIndex

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
_names = st.text(alphabet="abcdefg", min_size=1, max_size=4)


@st.composite
def random_graphs(draw):
    """Small random search graphs: relations, attributes, mixed edge kinds."""
    graph = SearchGraph()
    relation_count = draw(st.integers(min_value=1, max_value=4))
    attributes = []
    for r in range(relation_count):
        relation = f"s{r}.rel{r}"
        graph.add_node(make_relation_node(relation))
        for a in range(draw(st.integers(min_value=1, max_value=3))):
            node = make_attribute_node(relation, f"attr{a}")
            graph.add_node(node)
            graph.add_edge(
                graph.new_edge(
                    f"rel:{relation}", node.node_id, EdgeKind.MEMBERSHIP
                )
            )
            attributes.append(node.node_id)
    edge_count = draw(st.integers(min_value=0, max_value=6))
    for _ in range(edge_count):
        if len(attributes) < 2:
            break
        u = draw(st.sampled_from(attributes))
        v = draw(st.sampled_from(attributes))
        if u == v:
            continue
        confidence = draw(_finite)
        edge = graph.new_edge(
            u,
            v,
            EdgeKind.ASSOCIATION,
            metadata={"matchers": {"m": confidence}, "origin": "aligner"},
        )
        features = draw(
            st.dictionaries(_names, _finite, min_size=1, max_size=4)
        )
        from repro.graph.features import FeatureVector

        edge.features = FeatureVector(features)
        graph.add_edge(edge)
    for name, weight in draw(
        st.dictionaries(_names, _finite, min_size=0, max_size=6)
    ).items():
        graph.weights.set(name, weight)
    return graph


@st.composite
def random_tables(draw):
    """A small random source feeding the profile-index fixed point."""
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(0, 9), _names),
                st.one_of(st.none(), st.booleans(), _names),
            ),
            min_size=0,
            max_size=8,
        )
    )
    return DataSource.build(
        "src", {"rel": ["alpha", "beta"]}, data={"rel": [list(r) for r in rows]}
    )


# ----------------------------------------------------------------------
# Fixed-point properties
# ----------------------------------------------------------------------
class TestFixedPoints:
    @given(graph=random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_graph_payload_fixed_point(self, graph):
        payload = graph_payload(graph)
        weights = weights_payload(graph.weights)
        restored = restore_graph(
            json.loads(json.dumps(payload)), weights=restore_weights(weights)
        )
        assert graph_payload(restored) == payload
        assert weights_payload(restored.weights) == weights
        # Iteration order — which feeds tie-breaks — survives verbatim.
        assert [n.node_id for n in restored.nodes()] == [
            n.node_id for n in graph.nodes()
        ]
        assert [e.edge_id for e in restored.edges()] == [
            e.edge_id for e in graph.edges()
        ]
        for node in graph.nodes():
            assert [e.edge_id for e in restored.edges_of(node.node_id)] == [
                e.edge_id for e in graph.edges_of(node.node_id)
            ]

    @given(source=random_tables())
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_profile_index_fixed_point(self, source):
        index = CatalogProfileIndex()
        index.index_source(source)
        payload = index.export_state()
        restored = CatalogProfileIndex.from_state(json.loads(json.dumps(payload)))
        assert restored.export_state() == payload
        # Derived query surfaces agree with the scanned original.
        for relation in index.profiled_relations():
            for profile in index.profiles_of(relation):
                assert restored.value_candidates(
                    relation, profile.attribute
                ) == index.value_candidates(relation, profile.attribute)
                assert restored.content_tfidf(
                    relation, profile.attribute
                ) == index.content_tfidf(relation, profile.attribute)

    def test_session_snapshot_fixed_point(self, tmp_path):
        """save → open → save writes a byte-identical snapshot body."""
        from repro.persist import FileSessionStore, SessionPersistence

        service = _mini_session()
        service.save(tmp_path / "first.json")
        first = json.loads((tmp_path / "first.json").read_text())["body"]
        # The view is current: its ranking is part of what has to come back.
        assert all(record["trees"] for record in first["overlay"]["views"]["records"])

        reopened = QService.open(tmp_path / "first.json")
        SessionPersistence(FileSessionStore(tmp_path / "second.json")).save(reopened)
        second = json.loads((tmp_path / "second.json").read_text())["body"]
        assert second == first


# ----------------------------------------------------------------------
# Journal replay equals direct state
# ----------------------------------------------------------------------
def _mini_session():
    go = DataSource.build(
        "go",
        {"term": ["acc", "name"]},
        data={
            "term": [
                ("GO:0001", "plasma membrane"),
                ("GO:0002", "nucleus"),
                ("GO:0003", "plasma membrane transport"),
            ]
        },
    )
    interpro = DataSource.build(
        "interpro",
        {"interpro2go": ["go_id", "entry_ac"]},
        data={
            "interpro2go": [
                ("GO:0001", "IPR001"),
                ("GO:0003", "IPR003"),
                ("GO:0002", "IPR002"),
            ]
        },
    )
    service = QService(
        sources=[go, interpro],
        matchers=[ValueOverlapMatcher(min_confidence=0.3, min_shared_values=2)],
    )
    service.bootstrap_alignments()
    service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
    return service


class TestJournalEquivalence:
    @given(replays=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_journal_replay_equals_direct_state(self, tmp_path_factory, replays):
        """Snapshot+journal restore == compacted-snapshot restore, state-wise."""
        tmp_path = tmp_path_factory.mktemp("journal-eq")
        service = _mini_session()
        view = service.views.latest()
        service.save(tmp_path / "journaled.json")
        for replay in replays:
            answers = list(
                service.stream_answers(QueryRequest(view=view.view_id))
            )
            service.feedback(
                FeedbackRequest(
                    view=view.view_id, answer=answers[0], replay=replay
                )
            )
            service.save()  # appends one journal entry per iteration

        journaled = QService.open(tmp_path / "journaled.json")
        assert journaled.stats().journal_entries == len(replays)

        service.save(compact=True)  # folds everything into a fresh snapshot
        direct = QService.open(tmp_path / "journaled.json")
        assert direct.stats().journal_entries == 0

        assert graph_payload(journaled.graph) == graph_payload(direct.graph)
        assert weights_payload(journaled.graph.weights) == weights_payload(
            direct.graph.weights
        )
        assert (
            journaled.profile_index.export_state()
            == direct.profile_index.export_state()
        )
        assert journaled.learner.steps_processed == direct.learner.steps_processed
        assert len(journaled.feedback_log) == len(direct.feedback_log)


# ----------------------------------------------------------------------
# Corruption / version mismatch
# ----------------------------------------------------------------------
class TestCorruption:
    def _saved_session(self, tmp_path):
        service = _mini_session()
        path = tmp_path / "session.json"
        service.save(path)
        return path

    def test_truncated_snapshot(self, tmp_path):
        path = self._saved_session(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SnapshotError, match="JSON"):
            QService.open(path)

    def test_bit_flip_fails_checksum(self, tmp_path):
        path = self._saved_session(tmp_path)
        document = json.loads(path.read_text())
        document["body"]["overlay"]["weights_version"] += 1  # tampering
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="checksum"):
            QService.open(path)

    def test_version_mismatch(self, tmp_path):
        path = self._saved_session(tmp_path)
        document = json.loads(path.read_text())
        document["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="format version"):
            QService.open(path)

    def test_missing_wrapper(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps({"not": "a session"}))
        with pytest.raises(SnapshotError, match="wrapper"):
            QService.open(path)

    def test_corrupt_journal_entry(self, tmp_path):
        path = self._saved_session(tmp_path)
        service = QService.open(path)
        service.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        service.save()
        journal = path.parent / (path.name + ".journal")
        assert journal.read_text().strip()
        journal.write_text(journal.read_text()[:-10])
        with pytest.raises(SnapshotError):
            QService.open(path)

    def test_wrap_unwrap_round_trip(self):
        body = {"alpha": [1, 2.5, None, True], "beta": {"nested": "x"}}
        assert unwrap_document(wrap_document(body)) == body

    def test_unserializable_state_is_typed(self):
        with pytest.raises(SnapshotError, match="not serializable"):
            wrap_document({"bad": object()})
