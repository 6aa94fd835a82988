"""repro.api — the typed, supported public surface of the Q reproduction.

Entry point for query / feedback / registration traffic:

* :class:`QService` — the session object (sources, views, feedback,
  registration) with **lazy pull-based view consistency**: mutations bump
  version counters, reads refresh at most once when stale.
* Frozen request/response dataclasses — :class:`QueryRequest`,
  :class:`AnswerPage`, :class:`RegisterSourceRequest`,
  :class:`FeedbackRequest`, :class:`SystemStats` and friends.
* :class:`AlignmentStrategy` — the closed enum of aligner strategies a
  :class:`RegisterSourceRequest` names; the registration builds the
  aligner it names (matchers are named through the closed table of
  :func:`repro.matching.resolve_matcher`).
* Typed errors in :mod:`repro.api.errors`, all deriving from
  :class:`~repro.exceptions.QError`.

Quickstart
----------
>>> from repro.api import QService, QueryRequest
>>> from repro.datasets import build_interpro_go
>>> service = QService(sources=build_interpro_go().catalog.sources())
>>> service.bootstrap_alignments(top_y=2)             # doctest: +SKIP
>>> for page in service.answers(QueryRequest(keywords=("membrane", "title"))):
...     print(page.index, len(page.answers))          # doctest: +SKIP
"""

from ..persist import SaveReport, SnapshotError
from .errors import (
    InvalidRequestError,
    QError,
    RegistrationError,
    UnknownMatcherError,
    UnknownStrategyError,
    UnknownViewError,
)
from .service import QService
from .strategies import AlignmentStrategy
from .streaming import drain, paginate
from .types import (
    AnswerPage,
    FeedbackRequest,
    FeedbackResponse,
    QueryRequest,
    RegisterSourceRequest,
    RegistrationResponse,
    ServiceConfig,
    SystemStats,
    ViewInfo,
)
from .views import ViewRecord, ViewRegistry

__all__ = [
    "AlignmentStrategy",
    "AnswerPage",
    "FeedbackRequest",
    "FeedbackResponse",
    "InvalidRequestError",
    "QError",
    "QService",
    "QueryRequest",
    "RegisterSourceRequest",
    "RegistrationError",
    "RegistrationResponse",
    "SaveReport",
    "ServiceConfig",
    "SnapshotError",
    "SystemStats",
    "UnknownMatcherError",
    "UnknownStrategyError",
    "UnknownViewError",
    "ViewInfo",
    "ViewRecord",
    "ViewRegistry",
    "drain",
    "paginate",
]
