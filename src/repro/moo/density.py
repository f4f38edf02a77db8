"""Crowding-distance density estimator (Deb et al. 2002).

Assigns each solution of a front the sum over objectives of the
normalised gap between its neighbours; boundary solutions get infinity.
:func:`crowding` is the core (one front's objective rows in, distances
out, in plain floats: DESIGN.md §17); :func:`assign_crowding_distance`
stores its result in
``attributes["crowding_distance"]`` for NSGA-II's truncation and the
crowded tournament.
"""

from __future__ import annotations

from math import inf
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


def crowding(rows: Sequence[Sequence[float]]) -> list[float]:
    """Crowding distance of each of one front's ``n`` objective rows
    (NaN-free); fronts of at most two members are all boundary.

    Plain floats: per objective, a stable sort of the rows (numpy's
    ``argsort(kind="stable")`` order), infinity at both ends, and each
    interior row not yet at infinity gains its neighbours' normalised
    gap, objective by objective in column order.
    """
    n = len(rows)
    if n <= 2:
        return [inf] * n
    distance = [0.0] * n
    for column in zip(*rows):
        order = sorted(range(n), key=column.__getitem__)
        first, last = order[0], order[-1]
        span = column[last] - column[first]
        distance[first] = inf
        distance[last] = inf
        if span <= 0:
            continue  # degenerate objective: interior gaps contribute 0
        below = column[first]
        for position in range(1, n - 1):
            k = order[position]
            d = distance[k]
            if d != inf and d != -inf:
                distance[k] = d + (column[order[position + 1]] - below) / span
            below = column[k]
    return distance


def assign_crowding_distance(front: Sequence[FloatSolution]) -> None:
    """Annotate every member of ``front`` with its crowding distance."""
    if not front:
        return
    distance = crowding([s.objectives.tolist() for s in front])
    for sol, d in zip(front, distance):
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
