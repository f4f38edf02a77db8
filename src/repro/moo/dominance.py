"""Pareto dominance with Deb's constraint-domination rules.

The comparison used throughout the framework (NSGA-II, CellDE, archives,
AEDB-MLS feasibility filter):

1. a feasible solution dominates any infeasible one;
2. between two infeasible solutions, the smaller violation dominates;
3. between two feasible solutions, standard Pareto dominance on the
   (minimised) objective vectors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.moo.solution import FloatSolution

__all__ = [
    "pareto_dominates",
    "compare",
    "dominates",
    "non_dominated",
    "non_dominated_objectives_mask",
]


def _dominates(a: list[float], b: list[float]) -> bool:
    """Pareto dominance on plain float sequences (minimisation).  A NaN
    on either side fails ``<=``, so it never dominates."""
    better = False
    for x, y in zip(a, b, strict=True):
        if not x <= y:
            return False
        if x < y:
            better = True
    return better


def pareto_dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Unconstrained Pareto dominance on raw objective vectors
    (minimisation): ``a`` is no worse everywhere and better somewhere."""
    return _dominates(
        np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    )


def compare(a: FloatSolution, b: FloatSolution) -> int:
    """Constraint-aware three-way comparison.

    Returns ``-1`` if ``a`` dominates, ``1`` if ``b`` dominates, ``0`` if
    they are mutually non-dominated (or identical).
    """
    va, vb = a.constraint_violation, b.constraint_violation
    if va <= 0.0 and vb > 0.0:
        return -1
    if vb <= 0.0 and va > 0.0:
        return 1
    if va > 0.0 and vb > 0.0:
        if va < vb:
            return -1
        if vb < va:
            return 1
        return 0
    oa, ob = a.objectives.tolist(), b.objectives.tolist()
    if _dominates(oa, ob):
        return -1
    if _dominates(ob, oa):
        return 1
    return 0


def dominates(a: FloatSolution, b: FloatSolution) -> bool:
    """True iff ``a`` constraint-dominates ``b``."""
    return compare(a, b) == -1


def non_dominated(solutions: Sequence[FloatSolution]) -> list[FloatSolution]:
    """The constraint-aware non-dominated subset (order preserving).

    Duplicate objective vectors are kept (the archives decide about
    duplicates; filtering here would bias diversity measures).  Uses the
    vectorised domination matrix from :mod:`repro.moo.ranking`.
    """
    if not solutions:
        return []
    from repro.moo.ranking import domination_matrix  # local: avoid cycle

    objectives = np.vstack([s.objectives for s in solutions])
    violations = np.array([s.constraint_violation for s in solutions])
    dom = domination_matrix(objectives, violations)
    keep = ~dom.any(axis=0)
    return [solutions[i] for i in np.flatnonzero(keep)]


def non_dominated_objectives_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of Pareto-optimal rows of an ``(n, m)`` objective
    matrix (unconstrained, minimisation).  Vectorised pairwise check —
    O(n²m) but NumPy-fast for the n encountered here."""
    obj = np.asarray(objectives, dtype=float)
    if obj.ndim != 2:
        raise ValueError(f"expected (n, m) matrix, got shape {obj.shape}")
    n = obj.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        # rows that i dominates strictly
        le = np.all(obj[i] <= obj, axis=1)
        lt = np.any(obj[i] < obj, axis=1)
        dominated_by_i = le & lt
        dominated_by_i[i] = False
        mask &= ~dominated_by_i
    return mask
