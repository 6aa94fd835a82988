"""Learning from user feedback: MIRA weight updates and feedback generalization.

Public API
----------
* :class:`OnlineLearner`, :func:`hildreth_solve`, :class:`LinearConstraint`,
  :func:`tree_feature_vector` — the MIRA-style online learner (Algorithm 4).
* :class:`FeedbackEvent`, :class:`AnswerAnnotation`, :class:`AnnotationKind`,
  :class:`FeedbackGeneralizer`, :class:`FeedbackLog` — feedback over answers
  and its generalization to query trees (Section 4).
* :func:`symmetric_edge_loss` — the tree loss the margin uses (Equation 2).
"""

from .feedback import (
    AnnotationKind,
    AnswerAnnotation,
    FeedbackEvent,
    FeedbackGeneralizer,
    FeedbackLog,
)
from .loss import symmetric_edge_loss
from .overlays import (
    OverlayWeightVector,
    TenantProfile,
    TenantRegistry,
    graph_with_weights,
)
from .mira import (
    FeedbackStepResult,
    LinearConstraint,
    OnlineLearner,
    hildreth_solve,
    tree_feature_vector,
)

__all__ = [
    "AnnotationKind",
    "AnswerAnnotation",
    "FeedbackEvent",
    "FeedbackGeneralizer",
    "FeedbackLog",
    "FeedbackStepResult",
    "LinearConstraint",
    "OnlineLearner",
    "OverlayWeightVector",
    "TenantProfile",
    "TenantRegistry",
    "graph_with_weights",
    "hildreth_solve",
    "symmetric_edge_loss",
    "tree_feature_vector",
]
