"""Durable sessions: register + train + save, then reopen and stream answers.

Everything a Q session accumulates — registered sources, alignment edges,
MIRA-learned edge costs, materialized views — used to evaporate on process
exit.  With :mod:`repro.persist`, one :meth:`QService.save` checkpoints the
whole session; :meth:`QService.open` warm-starts it without re-running
profiling, matching or alignment, answering byte-identically.

The script simulates the two halves of that lifecycle.  Phase 1 builds a
session (bootstrap alignment over the InterPro–GO dataset, a keyword view,
user feedback) and saves it.  Phase 2 reopens the saved file **in a fresh
subprocess** — a genuinely new Python process with no shared state — and
streams the view's answers, which must match phase 1 exactly.

Run with::

    python examples/persistent_session.py            # both phases
    python examples/persistent_session.py reopen P   # phase 2 only, from P
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import FeedbackRequest, QService, QueryRequest, ServiceConfig
from repro.datasets import build_interpro_go

KEYWORDS = ("kinase", "title")


def answer_lines(service: QService, view_ref: str) -> list:
    """The view's ranked answers as printable, comparable lines."""
    lines = []
    for answer in service.stream_answers(QueryRequest(view=view_ref)):
        values = ", ".join(f"{k}={v}" for k, v in answer.values.items())
        lines.append(f"cost={answer.cost:.4f}  {values}")
    return lines


def build_and_save(path: Path) -> list:
    """Phase 1: register sources, train on feedback, checkpoint the session."""
    dataset = build_interpro_go(include_foreign_keys=True)
    # QService is a context manager: __exit__ closes the session (flushing
    # any autosave journal and releasing the storage backend) even when a
    # phase fails part-way.
    with QService(
        sources=[dataset.interpro, dataset.go],
        config=ServiceConfig(top_k=5, top_y=2),
    ) as service:
        service.bootstrap_alignments(top_y=2)
        info = service.create_view(QueryRequest(keywords=KEYWORDS, k=5))
        print(
            f"view {info.view_id} over {list(info.keywords)}: {info.tree_count} trees"
        )

        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        if answers:
            response = service.feedback(
                FeedbackRequest(view=info.view_id, answer=answers[0], replay=2)
            )
            print(
                f"feedback applied: {response.steps_processed} learner steps, "
                f"weight change {response.weight_change:.4f}"
            )

        report = service.save(path)
        stats = service.stats()
        print(
            f"saved snapshot v{report.snapshot_version} to {path} "
            f"({stats.sources} sources, {stats.views} view(s), "
            f"{stats.learner_steps} learner steps)"
        )
        return answer_lines(service, info.view_id)


def reopen_and_stream(path: Path) -> list:
    """Phase 2: warm-start from disk — no profiling, matching or alignment."""
    with QService.open(path) as service:
        stats = service.stats()
        print(
            f"reopened snapshot v{stats.snapshot_version}: {stats.sources} sources, "
            f"{stats.views} view(s), {stats.learner_steps} learner steps restored"
        )
        view = service.views.latest()
        lines = answer_lines(service, view.view_id)
        for line in lines[:5]:
            print("  " + line)
        return lines


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "reopen":
        # Fresh-process entry point: print the restored answers as JSON so
        # the parent can compare them against the live session's.
        lines = reopen_and_stream(Path(sys.argv[2]))
        print("ANSWERS_JSON=" + json.dumps(lines))
        return

    # The session file and its journal live in a directory removed at the end.
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "session.json"
        print("=== 1. Build, train and save ===")
        live = build_and_save(path)

        print("\n=== 2. Reopen in a fresh process and stream ===")
        output = subprocess.run(
            [sys.executable, __file__, "reopen", str(path)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    print("\n".join(l for l in output.splitlines() if not l.startswith("ANSWERS_JSON=")))
    restored = json.loads(output.split("ANSWERS_JSON=", 1)[1].splitlines()[0])

    match = restored == live
    print(f"\nrestored answers identical to live session: {match}")
    if not match:
        raise SystemExit("answer mismatch between live and reopened session")


if __name__ == "__main__":
    main()
