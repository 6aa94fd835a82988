"""The serving contract's one oracle: a read equals the serial replay of its snapshot.

:class:`~repro.service.QServer` applies writes one at a time in its writer
lane and publishes snapshot ``n`` after the ``n``-th applied write
(``QServer.write_log`` lists them, in order).  A read answers entirely
against the snapshot it grabbed, so its answers must equal what a plain
:class:`~repro.api.QService` returns after serially applying the first ``n``
writes of the log, whatever the reads, retries, faults and failed writes
around it.  That is a stronger property than "some serial interleaving":
each read must match *the* serial execution of the writes its snapshot id
names.

:func:`replay` checks it.  Every write is replayable from its ``(kind,
tag)`` log entry alone: a registration or removal is tagged with the source
name, and a feedback write is a descriptor (:func:`feedback_tag`) whose
annotated answer is chosen inside the writer lane, from the state the write
applies to (:func:`apply_feedback`).  The scenarios run on the GBCO dataset
with the query-log sources of the workload's views held out, to be
registered while the views are read (the paper's §3 loop).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_gbco
from repro.datastore import DataSource
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.learning import AnnotationKind
from repro.matching import MetadataMatcher

#: Tenants the scenarios read and annotate for (``None`` = the shared base ranking).
TENANTS: Tuple[Optional[str], ...] = (None, "alice", "bob")

#: Sources named with this prefix are tiny synthetic ones, not GBCO's.
SYNTHETIC = "chaos_"

#: The query-log entries whose keywords the workload's views read.
VIEW_ENTRIES: Tuple[int, ...] = (2, 3)

#: One observed read: ``(snapshot_id, view_id, tenant, fingerprint)``.
Observation = Tuple[int, str, Optional[str], List]


def fingerprint(answers) -> List:
    """A ranking's values, costs, producing queries and base tuples, in order.

    Distinct Steiner trees often project identical ``(values, cost)``, so the
    query id and the sorted base tuples are part of what must match.
    """
    return [
        (
            tuple(answer.values.items()),
            answer.cost,
            answer.provenance.query_id,
            tuple(sorted(answer.provenance.base_tuples)),
        )
        for answer in answers
    ]


def feedback_tag(view: str, index: int, tenant: Optional[str], prefer: bool, replay: int) -> str:
    """The log tag of one feedback write: everything :func:`apply_feedback` needs."""
    descriptor = {"view": view, "index": index, "tenant": tenant, "prefer": prefer, "replay": replay}
    return json.dumps(descriptor, sort_keys=True)


def apply_feedback(service: QService, tag: str) -> None:
    """Apply the feedback write ``tag`` describes to ``service``.

    The annotated answer is picked from the service's current base ranking,
    so the write depends on nothing but its descriptor and the state it is
    applied to: run in the writer lane, it is replayable from the log.
    """
    descriptor = json.loads(tag)
    answers = list(service.stream_answers(QueryRequest(view=descriptor["view"])))
    if not answers:
        return
    answer = answers[descriptor["index"] % len(answers)]
    other = None
    kind = AnnotationKind.VALID
    if descriptor["prefer"]:
        other = next(
            (c for c in answers if c.provenance.query_id != answer.provenance.query_id), None
        )
        if other is not None:
            kind = AnnotationKind.PREFERRED_OVER
    service.feedback(
        FeedbackRequest(
            view=descriptor["view"],
            answer=answer,
            kind=kind,
            other=other,
            replay=descriptor["replay"],
            tenant=descriptor["tenant"],
        )
    )


def clone_source(source: DataSource) -> DataSource:
    """A copy of ``source`` a session may own (and close) without touching the original."""
    return source_from_dict(source_to_dict(source))


def _synthetic_source(name: str) -> DataSource:
    """A tiny deterministic source, for registrations a scenario makes fail or retry."""
    rows = [{"acc": f"{name}:{i:03d}", "label": f"{name} item {i}"} for i in range(1, 4)]
    return DataSource.build(name, {name: ["acc", "label"]}, data={name: rows})


class GbcoWorkload:
    """A GBCO session with its views' query-log sources held out, and its write replay.

    Sessions are bootstrap-aligned over every other source and create one
    unmaterialized view per entry of :data:`VIEW_ENTRIES`, in order, so two
    sessions built here number their edges and views alike.
    """

    def __init__(self) -> None:
        self.gbco = build_gbco(rows_per_relation=10)
        self.held_out: List[str] = sorted(
            {
                relation.split(".")[0]
                for entry in VIEW_ENTRIES
                for relation in self.gbco.query_log[entry].new_relations
            }
        )

    def session(self, backend=None, autosave=False) -> Tuple[QService, List[str]]:
        """A fresh session and its view ids."""
        service = QService(
            sources=[clone_source(s) for s in self.gbco.catalog if s.name not in self.held_out],
            # One journal entry per autosave keeps an ``append_entry`` fault
            # schedule independent of compaction.
            config=ServiceConfig(top_k=5, top_y=1, write_queue_limit=256, journal_compact_after=100_000),
            backend=backend,
            autosave=autosave,
        )
        service.bootstrap_alignments()
        view_ids = [
            service.create_view(
                QueryRequest(keywords=tuple(self.gbco.query_log[entry].keywords)), materialize=False
            ).view_id
            for entry in VIEW_ENTRIES
        ]
        return service, view_ids

    def register_request(self, name: str) -> RegisterSourceRequest:
        """The registration of a held-out GBCO source, or of a synthetic one."""
        if name.startswith(SYNTHETIC):
            source = _synthetic_source(name)
        else:
            source = clone_source(self.gbco.catalog.source(name))
        return RegisterSourceRequest(source=source, strategy="exhaustive", matcher=MetadataMatcher())

    def apply(self, service: QService, kind: str, tag: str) -> None:
        """Apply one ``write_log`` entry to ``service``."""
        if kind == "register":
            service.register_source(self.register_request(tag))
        elif kind == "remove":
            service.remove_source(tag)
        elif kind == "feedback":
            apply_feedback(service, tag)
        else:
            raise AssertionError(f"unreplayable write kind {kind!r} in the write log")


@lru_cache(maxsize=None)
def gbco_workload() -> GbcoWorkload:
    """The shared workload; sessions clone its sources, so nothing mutates it."""
    return GbcoWorkload()


def replay(
    workload: GbcoWorkload,
    write_log: Sequence[Tuple[str, str]],
    observations: Sequence[Observation],
) -> int:
    """Check every observation against a serial replay of ``write_log``; returns how many.

    A fresh session prepares its views as ``QServer`` does — before
    snapshot 0 and after every applied write — so the replay numbers its
    edges like the server's session.  Each observation is checked at exactly
    its snapshot.  Raises ``AssertionError`` naming every read that diverged,
    or when an observation names a snapshot the log cannot reach.
    """
    by_snapshot: Dict[int, List[Tuple[str, Optional[str], List]]] = {}
    for snapshot_id, view_id, tenant, observed in observations:
        by_snapshot.setdefault(snapshot_id, []).append((view_id, tenant, observed))
    service, _ = workload.session()
    violations: List[str] = []
    checked = 0

    def check(snapshot_id: int) -> None:
        nonlocal checked
        for view_id, tenant, observed in by_snapshot.get(snapshot_id, ()):
            expected = fingerprint(service.stream_answers(QueryRequest(view=view_id, tenant=tenant)))
            checked += 1
            if expected != observed:
                violations.append(f"snapshot {snapshot_id} view {view_id} tenant {tenant!r}")

    with service:
        service.prepare_views(structural_only=True)
        check(0)
        for snapshot_id, (kind, tag) in enumerate(write_log, start=1):
            workload.apply(service, kind, tag)
            service.prepare_views(structural_only=True)
            check(snapshot_id)
    assert checked == len(observations), (
        f"oracle coverage hole: checked {checked} of {len(observations)} observations "
        "(a read named a snapshot the write log cannot reach)"
    )
    assert not violations, (
        f"{len(violations)} reads diverged from the serial replay of the write log: {violations}"
    )
    return checked
