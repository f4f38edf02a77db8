"""Solution representation for real-coded multi-objective optimisation.

A :class:`FloatSolution` is a point in a box-constrained decision space
with attached objective values (always *minimised* internally — problems
negate maximisation objectives) and an aggregate constraint-violation
figure (0 = feasible, larger = worse).  It deliberately mirrors jMetal's
``DoubleSolution`` so the algorithm implementations read like their
reference publications.
"""

from __future__ import annotations

from math import isnan
from typing import Any

import numpy as np

__all__ = ["FloatSolution"]


class FloatSolution:
    """A real vector plus its evaluation results.

    Attributes
    ----------
    variables:
        Decision vector, ``(n_variables,)`` float array.
    objectives:
        Objective vector (minimisation), ``(n_objectives,)`` float array;
        NaN until evaluated.
    constraint_violation:
        Sum of constraint violations; 0.0 means feasible.
    attributes:
        Scratch space used by algorithms (rank, crowding distance, ...).
        Copied shallowly by :meth:`copy`.
    """

    __slots__ = ("variables", "objectives", "constraint_violation", "attributes")

    def __init__(
        self,
        variables: np.ndarray,
        n_objectives: int,
    ):
        self.variables = np.array(variables, dtype=float)
        self.objectives = np.empty(int(n_objectives))
        self.objectives.fill(np.nan)
        self.constraint_violation = 0.0
        self.attributes: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    @property
    def n_variables(self) -> int:
        """Decision-space dimensionality."""
        return int(self.variables.size)

    @property
    def n_objectives(self) -> int:
        """Objective-space dimensionality."""
        return int(self.objectives.size)

    @property
    def is_evaluated(self) -> bool:
        """True once objectives hold real values."""
        return not any(map(isnan, self.objectives.tolist()))

    @property
    def is_feasible(self) -> bool:
        """True when all constraints are satisfied."""
        return self.constraint_violation <= 0.0

    # ------------------------------------------------------------------ #
    def copy(self) -> "FloatSolution":
        """Deep copy of variables/objectives, shallow copy of attributes."""
        clone = FloatSolution.__new__(FloatSolution)
        clone.variables = self.variables.copy()
        clone.objectives = self.objectives.copy()
        clone.constraint_violation = self.constraint_violation
        clone.attributes = dict(self.attributes)
        return clone

    def objective_tuple(self) -> tuple[float, ...]:
        """Objectives as a plain tuple (hashable, for dedup/caches)."""
        return tuple(float(v) for v in self.objectives)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        obj = np.array2string(self.objectives, precision=4)
        return (
            f"FloatSolution(vars={np.array2string(self.variables, precision=4)}, "
            f"obj={obj}, cv={self.constraint_violation:.4g})"
        )
