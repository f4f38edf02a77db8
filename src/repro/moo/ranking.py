"""Fast non-dominated sorting (Deb et al. 2002, NSGA-II).

Partitions a population into fronts F1, F2, ... such that F1 is the
non-dominated set, F2 is non-dominated once F1 is removed, and so on.
Each solution receives its front index in ``attributes["rank"]`` (0-based).
Constraint-domination is used throughout, so infeasible solutions sort
behind feasible ones automatically.

The pairwise domination relation is computed as one ``(n, n)`` NumPy
matrix rather than O(n²) Python-level comparisons — the difference is an
order of magnitude of wall-clock for the population sizes used here (the
HPC guide's "vectorise the hot loop").  :func:`ranks` is the array core
(objective matrix and violations in, front indices out);
:func:`fast_non_dominated_sort` is its solution-list wrapper.
"""

from __future__ import annotations

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
    vio = np.maximum(np.asarray(violations, dtype=float), 0.0)
    if obj.ndim != 2:
        raise ValueError(f"objectives must be (n, m), got {obj.shape}")
    if vio.shape != (obj.shape[0],):
        raise ValueError("violations must be (n,) matching objectives")

    # One (n, n) comparison per objective: reducing an (n, n, m) cube
    # over its short last axis costs ~10x more at n = 200.
    n = obj.shape[0]
    no_worse = np.ones((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    for column in obj.T:
        column_i = column[:, None]
        no_worse &= column_i <= column
        better |= column_i < column
    pareto = no_worse & better

    feasible = vio <= 0.0
    if feasible.all():
        return pareto
    feas_i = feasible[:, None]
    feas_j = feasible[None, :]
    both_feasible = feas_i & feas_j
    both_infeasible = ~feas_i & ~feas_j
    less_violating = vio[:, None] < vio[None, :]

    return np.where(
        both_feasible,
        pareto,
        np.where(both_infeasible, less_violating, feas_i & ~feas_j),
    )


def ranks(objectives: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """Front index of every row (0 = non-dominated), by peeling the
    constraint-domination relation of :func:`domination_matrix` front by
    front."""
    edges = domination_matrix(objectives, violations).astype(np.intp)
    domination_count = edges.sum(axis=0)  # how many dominate j
    rank = np.empty(edges.shape[0], dtype=np.intp)
    unranked = edges.shape[0]
    front = 0
    while unranked:
        front_mask = domination_count == 0
        size = np.count_nonzero(front_mask)
        if not size:  # pragma: no cover - defensive
            raise RuntimeError("cyclic domination relation (bug)")
        rank[front_mask] = front
        # Remove this front's domination edges, and take its members
        # out of the running (their count drops to -1).
        domination_count -= front_mask @ edges + front_mask
        unranked -= size
        front += 1
    return rank


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
