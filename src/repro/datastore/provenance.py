"""Answer provenance.

Every answer tuple produced by the executor is annotated with provenance:
the query that produced it and the identifiers of the base tuples it was
assembled from.  Provenance is what lets the learning component generalize
feedback on a *tuple* into feedback on the *query tree* that produced it
(paper Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class TupleProvenance:
    """Provenance of one answer tuple.

    Attributes
    ----------
    query_id:
        Identifier of the conjunctive query (and hence of the Steiner tree)
        that produced the answer.
    query_cost:
        Cost of the producing query at execution time.
    base_tuples:
        The set of ``(qualified_relation, row_id)`` pairs joined to form the
        answer.
    """

    query_id: str
    query_cost: float
    base_tuples: FrozenSet[Tuple[str, int]] = frozenset()


#: One answer as a query's execution returns it: the cell values in the
#: order of :meth:`~repro.datastore.query.ConjunctiveQuery.answer_cells`,
#: and the ``(qualified_relation, row_id)`` base tuples joined to form it.
#: A row does not know which tree asked for it: the answer built from it
#: is stamped with that tree's query id and cost.
AnswerRow = Tuple[Tuple[object, ...], FrozenSet[Tuple[str, int]]]


@dataclass
class AnswerTuple:
    """A ranked answer in the unified output table.

    Attributes
    ----------
    values:
        Mapping from unified output column label to value (``None`` for
        columns this answer's originating query does not populate).
    cost:
        The answer's cost (equal to its originating query's cost, since
        per-tuple similarity predicates are not used — see Section 2.2).
    provenance:
        The :class:`TupleProvenance` of the answer.
    """

    values: Dict[str, Optional[object]] = field(default_factory=dict)
    cost: float = 0.0
    provenance: Optional[TupleProvenance] = None

    def __getitem__(self, column: str):
        return self.values[column]

    def get(self, column: str, default=None):
        """Mapping-style access with a default."""
        return self.values.get(column, default)

    def key(self) -> Tuple:
        """A hashable identity for the answer (used when applying feedback)."""
        prov_key: Tuple = ()
        if self.provenance is not None:
            prov_key = (self.provenance.query_id, tuple(sorted(self.provenance.base_tuples)))
        return (tuple(sorted((k, str(v)) for k, v in self.values.items() if v is not None)), prov_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        populated = {k: v for k, v in self.values.items() if v is not None}
        return f"AnswerTuple(cost={self.cost:.3f}, values={populated!r})"
