"""The seed Hildreth QP loop, kept as an oracle.

``reference_hildreth_solve`` is ``repro.learning.mira.hildreth_solve`` as it
was when every constraint was evaluated through ``WeightVector.get`` and
every step applied through ``WeightVector.update``; ``seed_violation`` is the
``LinearConstraint.violation`` it called.  The live solver must return the
same weights to the bit, the same ``converged``, the same ``max_violation``
and the same ``moved``; its ``rows_evaluated`` is at most this loop's, which
evaluates every row in every pass.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.graph import WeightVector
from repro.learning import LinearConstraint
from repro.learning.mira import QPSolution


def seed_violation(constraint: LinearConstraint, weights: WeightVector) -> float:
    """``bound - a·w``; positive when the constraint is violated."""
    value = sum(weights.get(name) * coeff for name, coeff in constraint.coefficients.items())
    return constraint.bound - value


def reference_hildreth_solve(
    weights: WeightVector,
    constraints: Sequence[LinearConstraint],
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> QPSolution:
    """Solve ``min ||w - w0||^2  s.t.  a_i · w >= b_i`` with Hildreth's method."""
    if not constraints:
        return QPSolution(weights.copy(), True, 0.0, 0, ())
    start = weights.copy()
    result = weights.copy()
    multipliers = [0.0] * len(constraints)
    norms = [max(c.squared_norm(), 1e-12) for c in constraints]
    converged, max_violation, evaluated = False, 0.0, 0
    for _ in range(max_iterations):
        max_update = max_violation = 0.0
        for index, constraint in enumerate(constraints):
            violation = seed_violation(constraint, result)
            evaluated += 1
            if violation > max_violation:
                max_violation = violation
            step = violation / norms[index]
            step = max(step, -multipliers[index])
            if step == 0.0:
                continue
            multipliers[index] += step
            result.update({name: step * coeff for name, coeff in constraint.coefficients.items()})
            max_update = max(max_update, abs(step))
        if max_update < tolerance:
            converged = True
            break
    moved = tuple(
        name for name, value in result.items()
        if name not in start or struct.pack("<d", value) != struct.pack("<d", start.get(name))
    )
    return QPSolution(result, converged, max_violation, evaluated, moved)
