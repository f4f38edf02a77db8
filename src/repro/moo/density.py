"""Crowding-distance density estimator (Deb et al. 2002).

Assigns each solution of a front the sum over objectives of the
normalised gap between its neighbours; boundary solutions get infinity.
:func:`crowding` is the array core (one front's objective matrix in,
distances out); :func:`assign_crowding_distance` stores its result in
``attributes["crowding_distance"]`` for NSGA-II's truncation and the
crowded tournament.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.moo.solution import FloatSolution

__all__ = [
    "assign_crowding_distance",
    "crowded_compare",
    "crowding",
    "crowding_distance_of",
]

_KEY = "crowding_distance"


def crowding(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of every row of one front's ``(n, m)``
    objective matrix; fronts of at most two members are all boundary."""
    n = objectives.shape[0]
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for m in range(objectives.shape[1]):
        order = np.argsort(objectives[:, m], kind="stable")
        col = objectives[order, m]
        span = col[-1] - col[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0:
            continue  # degenerate objective: interior gaps contribute 0
        gaps = (col[2:] - col[:-2]) / span
        interior = order[1:-1]
        finite = ~np.isinf(distance[interior])
        distance[interior[finite]] += gaps[finite]
    return distance


def assign_crowding_distance(front: Sequence[FloatSolution]) -> None:
    """Annotate every member of ``front`` with its crowding distance."""
    if not front:
        return
    distance = crowding(np.array([s.objectives for s in front]))
    for sol, d in zip(front, distance.tolist()):
        sol.attributes[_KEY] = d


def crowding_distance_of(solution: FloatSolution) -> float:
    """Crowding distance from the last assignment (-inf if never set)."""
    return float(solution.attributes.get(_KEY, -np.inf))


def crowded_compare(a: FloatSolution, b: FloatSolution) -> int:
    """NSGA-II's crowded-comparison operator on (rank, crowding).

    Returns -1 if ``a`` is preferred, 1 if ``b``, 0 on a tie.  Both
    solutions must have been ranked (see :mod:`repro.moo.ranking`).
    """
    ra = a.attributes.get("rank", 2**31)
    rb = b.attributes.get("rank", 2**31)
    if ra != rb:
        return -1 if ra < rb else 1
    da, db = crowding_distance_of(a), crowding_distance_of(b)
    if da > db:
        return -1
    if db > da:
        return 1
    return 0
