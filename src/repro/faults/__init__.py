"""Fault tolerance primitives: deadlines and retry.

Two small, dependency-light modules the hardened serving lane
(:mod:`repro.service`) builds on — see the README "Failure model" section:

* :mod:`~repro.faults.budget` — cooperative deadline :class:`Budget`
  polled inside the Steiner solver and executor loops;
* :mod:`~repro.faults.retry` — transient-fault classification
  (:func:`classify_storage_error`) and the writer lane's
  :class:`RetryPolicy` (exponential backoff + jitter).

The scriptable fault injector that exercises them is a test harness and
lives in ``tests/faults_harness.py``.
"""

from .budget import Budget
from .retry import RetryPolicy, classify_storage_error, is_transient

__all__ = [
    "Budget",
    "RetryPolicy",
    "classify_storage_error",
    "is_transient",
]
