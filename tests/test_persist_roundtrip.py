"""Property tests of the persistence payloads + corruption handling.

Three properties anchor the snapshot format:

* **Fixed point** — serializing random graph/weights/profile states,
  restoring them and serializing again yields byte-identical payloads
  (canonical encodings: ordered containers verbatim, sets sorted).
* **Journal replay equals direct state** — a session persisted as
  snapshot + journal entries restores to the same graph/weights/profiles a
  compacted full snapshot of the same live session describes.
* **The fold is exact** — over generated mutation sequences, folding a
  journal's overlay deltas over its snapshot's overlay yields exactly the
  overlay the saving session wrote, and the reopened session answers, ranks
  and numbers like a twin that never touched a disk.
* **Corruption is typed** — truncated, bit-flipped, version-skewed or
  missing documents raise :class:`~repro.exceptions.SnapshotError`, never
  a silent partial restore; an older format is refused with the name of
  its converter, and converts.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    SnapshotError,
)
from repro.datastore import DataSource
from repro.graph.edges import EdgeKind
from repro.graph.nodes import make_attribute_node, make_relation_node
from repro.graph.search_graph import SearchGraph
from repro.matching import ValueOverlapMatcher
from repro.persist import overlay_payload, unwrap_document, wrap_document
from repro.persist.session import fold_overlay
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
        edge.features = features
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
                for token in profile.value_tokens:
                    assert sorted(restored.token_postings(token)) == sorted(
                        index.token_postings(token)
                    )

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
_FOLD_OPS = (
    st.tuples(st.just("view"), st.integers(0, 2)),
    st.tuples(st.sampled_from(["read", "feedback"]), st.integers(0, 5)),
    st.tuples(st.sampled_from(["register", "remove"]), st.none()),
    st.tuples(st.just("save"), st.booleans()),
)


def _mini_matchers():
    """The matcher stack is not persisted: a reopened session is handed it again."""
    return [ValueOverlapMatcher(min_confidence=0.3, min_shared_values=2)]


def _mini_session(backend=None):
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
        matchers=_mini_matchers(),
        backend=backend,
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


    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    @given(ops=st.lists(st.one_of(*_FOLD_OPS), min_size=1, max_size=12))
    # A ranking that moved between two saves goes into the entry ...
    @example(ops=[("register", None), ("read", 0), ("save", False), ("feedback", 0), ("read", 0), ("save", False)])
    # ... one that merely stopped being current leaves a tombstone ...
    @example(ops=[("view", 1), ("save", False), ("feedback", 0), ("read", 0), ("save", True), ("read", 1)])
    # ... a name created again retires its id, in an entry and after a reopen ...
    @example(ops=[("save", False), ("view", 0), ("save", True), ("view", 0)])
    # ... and a source journaled in, out and in again still has its rows.
    @example(
        ops=[("save", False), ("register", None), ("save", False), ("remove", None)]
        + [("save", True), ("register", None), ("read", 0)]
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_overlay_fold_equals_the_saved_overlay(self, tmp_path_factory, kind, ops):
        """After every save, snapshot overlay + folded entry deltas == what the
        saver wrote; the reopened session equals a twin that never saved."""
        tmp_path = tmp_path_factory.mktemp("fold")
        location = tmp_path / ("session.db" if kind == "sqlite" else "session.json")
        backend, save_path = (f"sqlite:{location}", None) if kind == "sqlite" else (None, location)
        session = _mini_session(backend=backend)
        twin = _mini_session(backend=f"sqlite:{tmp_path / 'twin.db'}" if kind == "sqlite" else None)
        saves = 0
        # A closing save always runs, so every example checks at least one fold.
        for op, arg in [*ops, ("save", True)]:
            if op == "save":
                session.save(save_path)
                saves += 1
                written = overlay_payload(session)
                assert _folded_overlay(session._persistence.store) == written
                if arg:  # go on with the reopened session, as a restart would
                    session.close()
                    session = QService.open(location, matchers=_mini_matchers())
                    assert overlay_payload(session) == written
                    assert session.save().action == "noop"
                continue
            for service in (session, twin):
                _apply_fold_op(service, op, arg)
        assert saves and _observable(session) == _observable(twin)
        session.close()
        twin.close()


_FOLD_KEYWORDS = (("plasma", "IPR001"), ("nucleus", "IPR002"), ("membrane", "IPR003"))


def _extra_source():
    return DataSource.build(
        "pfam",
        {"pfam2go": ["go_id", "pfam_ac"]},
        data={"pfam2go": [("GO:0001", "PF001"), ("GO:0002", "PF002"), ("GO:0003", "PF003")]},
    )


def _apply_fold_op(service, op, arg):
    """One generated mutation or read; ``arg`` picks among what exists."""
    records = service.views.records()
    if op == "view":  # a repeated keyword pair re-creates a view under a used name
        service.create_view(QueryRequest(keywords=_FOLD_KEYWORDS[arg]), materialize=False)
    elif op == "register":
        if not service.catalog.has_source("pfam"):
            service.register_source(
                RegisterSourceRequest(source=_extra_source(), strategy="exhaustive")
            )
    elif op == "remove":
        if service.catalog.has_source("pfam"):
            service.remove_source("pfam")
    elif records:
        view_id = records[arg % len(records)].view_id
        answers = list(service.stream_answers(QueryRequest(view=view_id)))
        if op == "feedback" and answers:
            service.feedback(FeedbackRequest(view=view_id, answer=answers[-1]))


def _folded_overlay(store):
    """What ``restore_core`` hands back as the overlay, from the stored bytes."""
    body, entries = store.load()
    overlay = body["overlay"]
    for entry in entries:
        overlay = fold_overlay(overlay, entry["overlay_delta"])
    return overlay


def _observable(service):
    """Ids, answers (order, cost, provenance) and trees of every view, read in order."""
    seen = []
    for record in service.views.records():
        answers = list(service.stream_answers(QueryRequest(view=record.view_id)))
        seen.append(
            (
                record.view_id,
                record.name,
                [(tuple(a.values.items()), a.cost, a.provenance.query_id) for a in answers],
                [(tree.cost, sorted(tree.edge_ids)) for tree in record.view.state.trees],
            )
        )
    return seen, service.graph.next_edge_number, service.graph.weights.as_dict()


# ----------------------------------------------------------------------
# Corruption / version mismatch
# ----------------------------------------------------------------------
def _wrap_v1(body):
    """The framing of format 1: the checksum is of a canonical re-dump of the body."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps({"format_version": 1, "checksum": checksum, "body": body})


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

    def test_unwrap_keeps_key_order(self):
        """Order is data: the body comes back in insertion, not sorted, order."""
        body = {"zeta": 1, "alpha": {"b": [2.5, None], "a": "x"}, "mid": {}}
        restored = unwrap_document(wrap_document(body) + "\n")
        assert json.dumps(restored) == json.dumps(body)

    @pytest.mark.parametrize("victim", ["snapshot", "journal"])
    @pytest.mark.parametrize(
        "damage, stem", [("body", "checksum"), ("checksum", "checksum"), ("truncated", "JSON")]
    )
    def test_one_damaged_byte_is_typed(self, tmp_path, victim, damage, stem):
        path = self._saved_session(tmp_path)
        service = QService.open(path)
        service.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        service.save()
        file = path if victim == "snapshot" else path.parent / (path.name + ".journal")
        text = file.read_text()
        start = text.index('"body": ') + len('"body": ')
        if damage == "body":  # a digit for a digit: still JSON, no longer what was hashed
            at = start + re.search(r"[1-8]", text[start:]).start()
            text = text[:at] + "9" + text[at + 1 :]
        elif damage == "checksum":
            at = text.index('"checksum": "') + len('"checksum": "')
            text = text[:at] + ("0" if text[at] != "0" else "1") + text[at + 1 :]
        else:
            text = text[: start + (len(text) - start) // 2]
        file.write_text(text)
        with pytest.raises(SnapshotError, match=stem):
            QService.open(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_open_refuses_an_older_format_naming_the_converter(self, tmp_path, version):
        path = self._saved_session(tmp_path)
        body = unwrap_document(path.read_text())
        if version == 1:
            text = _wrap_v1(body)
        else:  # formats 2 and 3 framed a body the way format 4 does
            text = wrap_document(body).replace(f'"format_version": {FORMAT_VERSION},', f'"format_version": {version},')
        path.write_text(text + "\n")
        with pytest.raises(SnapshotError, match=f"format version {version} .*scripts/upgrade_session.py"):
            QService.open(path)

    def test_version_1_document_still_unwraps(self, upgrade_session):
        """The converter reads format 1's framing: the checksum of a canonical body."""
        body = {"zeta": [1, 2.5, None, True], "alpha": {"nested": "x"}}
        text = _wrap_v1(body)
        assert upgrade_session.unwrap(text, "snapshot") == body
        with pytest.raises(upgrade_session.UpgradeError, match="checksum"):
            upgrade_session.unwrap(text.replace('"nested": "x"', '"nested": "y"'), "snapshot")
        with pytest.raises(upgrade_session.UpgradeError, match="format version 4"):
            upgrade_session.unwrap(wrap_document(body), "snapshot")

    def test_session_saved_in_format_1_opens_and_takes_new_entries(self, tmp_path, upgrade_session):
        """What the build before format 2 wrote: version-1 framing, and an
        entry carrying the complete overlay (no ``"trees"`` = no ranking).
        Converted, it opens and takes format-4 entries."""
        service = _mini_session()
        path = tmp_path / "old.json"
        journal = tmp_path / "old.json.journal"
        service.save(path)
        view = service.views.latest()
        answers = list(service.stream_answers(QueryRequest(view=view.view_id)))
        service.feedback(FeedbackRequest(view=view.view_id, answer=answers[0]))
        service.save()  # the view's costs moved and it was not re-read: no ranking
        (entry,) = [unwrap_document(line) for line in journal.read_text().splitlines()]
        del entry["overlay_delta"]
        entry["overlay"] = overlay_payload(service)
        assert "trees" not in entry["overlay"]["views"]["records"][0]
        journal.write_text(_wrap_v1(entry) + "\n")
        path.write_text(_wrap_v1(unwrap_document(path.read_text())) + "\n")

        converted = tmp_path / "new.json"
        assert upgrade_session.main([str(path), str(converted)]) == 0
        reopened = QService.open(converted, matchers=_mini_matchers())
        assert reopened.view(view.view_id).current_ranking() is None
        assert _observable(reopened) == _observable(service)
        assert len(reopened.feedback_log) == len(service.feedback_log) == 1
        for session in (reopened, service):
            session.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        report = reopened.save()
        assert report.action == "append" and report.journal_entries == 1
        (new,) = (tmp_path / "new.json.journal").read_text().splitlines()
        assert new.startswith(f'{{"format_version": {FORMAT_VERSION},')
        assert "overlay" not in unwrap_document(new) and unwrap_document(new)["overlay_delta"]
        again = QService.open(converted, matchers=_mini_matchers())
        assert _observable(again) == _observable(service)

    def test_unserializable_state_is_typed(self):
        with pytest.raises(SnapshotError, match="not serializable"):
            wrap_document({"bad": object()})
