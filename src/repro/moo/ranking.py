"""Fast non-dominated sorting (Deb et al. 2002, NSGA-II).

Partitions a population into fronts F1, F2, ... such that F1 is the
non-dominated set, F2 is non-dominated once F1 is removed, and so on.
Each solution receives its front index in ``attributes["rank"]`` (0-based).
Constraint-domination is used throughout, so infeasible solutions sort
behind feasible ones automatically.

The pairwise domination relation is computed as one ``(n, n)`` NumPy
matrix rather than O(n²) Python-level comparisons — the difference is an
order of magnitude of wall-clock for the population sizes used here (the
HPC guide's "vectorise the hot loop"); the fronts are then peeled in
plain Python over the relation's rows.  :func:`ranks` is the array core
(objective matrix and violations in, front indices out);
:func:`fast_non_dominated_sort` is its solution-list wrapper.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np

from repro.moo.solution import FloatSolution

__all__ = ["fast_non_dominated_sort", "domination_matrix", "rank_of", "ranks"]


def domination_matrix(
    objectives: np.ndarray, violations: np.ndarray
) -> np.ndarray:
    """Boolean ``(n, n)`` matrix: ``D[i, j]`` iff ``i`` constraint-dominates
    ``j`` (Deb's rules; minimisation)."""
    obj = np.asarray(objectives, dtype=float)
    vio = np.asarray(violations, dtype=float)
    if obj.ndim != 2:
        raise ValueError(f"objectives must be (n, m), got {obj.shape}")
    if vio.shape != (obj.shape[0],):
        raise ValueError("violations must be (n,) matching objectives")

    # One (n, n) comparison per objective: reducing an (n, n, m) cube
    # over its short last axis costs ~10x more at n = 200.  ``i`` is
    # better than ``j`` somewhere exactly when ``j`` is not no-worse
    # everywhere (a NaN fails ``<=`` both ways, so it never dominates).
    no_worse = np.ones((obj.shape[0],) * 2, dtype=bool)
    for column in obj.T:
        no_worse &= column[:, None] <= column
    pareto = no_worse & ~no_worse.T

    feasible = vio <= 0.0
    if np.count_nonzero(feasible) == feasible.size:
        return pareto
    # With violations clamped at 0, "i violates less than j" is Deb's
    # relation wherever j is infeasible or i infeasible (a NaN
    # violation is infeasible and never less); a feasible i also beats
    # an infeasible j outright and a feasible j by Pareto dominance.
    vio = np.maximum(vio, 0.0)
    return (vio[:, None] < vio) | (feasible[:, None] & (pareto | ~feasible))


def ranks(objectives: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """Front index of every row (0 = non-dominated), by peeling the
    constraint-domination relation of :func:`domination_matrix` front by
    front: each front's rows of the relation are walked once to lower
    the domination counts of the rows they dominate."""
    edges = domination_matrix(objectives, violations)
    count = np.add.reduce(edges, axis=0, dtype=np.intp).tolist()  # how many dominate j
    rows = edges.tolist()
    columns = range(len(rows))
    rank = [0] * len(rows)
    members = [j for j, c in enumerate(count) if not c]
    front = ranked = 0
    while members:
        ranked += len(members)
        following = []
        for i in members:
            rank[i] = front
            for j in compress(columns, rows[i]):
                count[j] -= 1
                if not count[j]:
                    following.append(j)
        members = following
        front += 1
    if ranked != len(rows):  # pragma: no cover - defensive
        raise RuntimeError("cyclic domination relation (bug)")
    return np.array(rank, dtype=np.intp)


def fast_non_dominated_sort(
    solutions: Sequence[FloatSolution],
) -> list[list[FloatSolution]]:
    """Return the list of fronts; annotate each solution with its rank."""
    if not solutions:
        return []
    rank = ranks(
        np.array([s.objectives for s in solutions]),
        np.array([s.constraint_violation for s in solutions]),
    ).tolist()
    fronts: list[list[FloatSolution]] = [[] for _ in range(max(rank) + 1)]
    for solution, r in zip(solutions, rank):
        solution.attributes["rank"] = r
        fronts[r].append(solution)
    return fronts


def rank_of(solution: FloatSolution) -> int:
    """Front index assigned by the last sort (infinity if never ranked)."""
    return int(solution.attributes.get("rank", 2**31))
