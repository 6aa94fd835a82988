"""User feedback over query answers (paper Section 4).

The user annotates individual answers in the view as *valid*, *invalid*, or
as ranking constraints (``tx`` should rank above ``ty``).  Q generalizes
each annotation from the tuple to the *query tree* that produced it (via the
answer's provenance), producing :class:`FeedbackEvent` objects — the
``(S_r, T_r)`` pairs consumed by the online learner of Algorithm 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datastore.provenance import AnswerTuple
from ..exceptions import FeedbackError
from ..steiner.tree import SteinerTree


class AnnotationKind(enum.Enum):
    """The kind of feedback the user attached to an answer."""

    VALID = "valid"
    INVALID = "invalid"
    PREFERRED_OVER = "preferred_over"


@dataclass(frozen=True)
class AnswerAnnotation:
    """One user annotation on one answer tuple.

    Attributes
    ----------
    answer:
        The annotated answer.
    kind:
        Whether the answer was marked valid, invalid, or preferred over
        another answer.
    other:
        For ``PREFERRED_OVER`` annotations, the answer that should rank
        lower.
    """

    answer: AnswerTuple
    kind: AnnotationKind
    other: Optional[AnswerTuple] = None


@dataclass(frozen=True)
class FeedbackEvent:
    """A generalized feedback item: keyword terminals plus the target tree.

    ``terminals`` is ``S_r`` (the keyword node ids of the view) and
    ``target_tree`` is ``T_r`` (the tree whose answers the user favoured);
    ``demoted_tree`` optionally carries the tree the target should beat
    (from invalid/ranking annotations).
    """

    terminals: Tuple[str, ...]
    target_tree: SteinerTree
    demoted_tree: Optional[SteinerTree] = None


class FeedbackGeneralizer:
    """Maps answer-level annotations to tree-level feedback events.

    Parameters
    ----------
    terminals:
        The keyword node ids of the view the feedback applies to.
    trees_by_query:
        Mapping from query id (as recorded in answer provenance) to the
        Steiner tree that generated the query.
    """

    def __init__(
        self, terminals: Sequence[str], trees_by_query: Dict[str, SteinerTree]
    ) -> None:
        self.terminals = tuple(terminals)
        self.trees_by_query = dict(trees_by_query)

    def _tree_of(self, answer: AnswerTuple) -> SteinerTree:
        if answer.provenance is None:
            raise FeedbackError("answer has no provenance; cannot generalize feedback")
        tree = self.trees_by_query.get(answer.provenance.query_id)
        if tree is None:
            raise FeedbackError(
                f"unknown query id {answer.provenance.query_id!r} in answer provenance"
            )
        return tree

    def generalize(self, annotation: AnswerAnnotation) -> FeedbackEvent:
        """Convert one annotation into a :class:`FeedbackEvent`.

        * a VALID annotation promotes the producing tree;
        * an INVALID annotation demotes the producing tree — the *best other
          known tree* becomes the target (here: any other tree of the view;
          if none exists, the event still records the demoted tree so the
          learner can push its cost up);
        * a PREFERRED_OVER annotation promotes the producing tree of the
          preferred answer and demotes the other answer's tree.
        """
        tree = self._tree_of(annotation.answer)
        if annotation.kind is AnnotationKind.VALID:
            return FeedbackEvent(terminals=self.terminals, target_tree=tree)
        if annotation.kind is AnnotationKind.PREFERRED_OVER:
            if annotation.other is None:
                raise FeedbackError("PREFERRED_OVER annotation requires the other answer")
            other_tree = self._tree_of(annotation.other)
            return FeedbackEvent(
                terminals=self.terminals, target_tree=tree, demoted_tree=other_tree
            )
        # INVALID: favour any alternative tree over the one that produced
        # the bad answer.
        alternative = None
        for candidate in self.trees_by_query.values():
            if candidate.edge_ids != tree.edge_ids:
                alternative = candidate
                break
        if alternative is None:
            raise FeedbackError(
                "cannot generalize INVALID feedback: no alternative query tree is known"
            )
        return FeedbackEvent(
            terminals=self.terminals, target_tree=alternative, demoted_tree=tree
        )


@dataclass
class FeedbackLog:
    """A sliding window of recent feedback events, replayable for reinforcement.

    The paper replays "a log of the most recent feedback steps, recorded as
    a sliding window with a size bound" to make weight updates consistent
    across queries (Section 5.2.2).  :meth:`add` is its only writer, and
    ``added`` counts every event it took in, evicted or not.
    """

    window_size: int = 50
    events: List[FeedbackEvent] = field(default_factory=list)
    added: int = 0

    def add(self, event: FeedbackEvent) -> None:
        """Append an event, evicting the oldest if the window is full."""
        self.added += 1
        self.events.append(event)
        if len(self.events) > self.window_size:
            self.events.pop(0)

    def replay_sequence(self, repetitions: int) -> List[FeedbackEvent]:
        """The stored events repeated ``repetitions`` times, in order."""
        if repetitions < 1:
            return []
        return list(self.events) * repetitions

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
