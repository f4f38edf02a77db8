"""Parent-selection operators."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.moo.density import crowded_compare
from repro.moo.dominance import compare
from repro.moo.solution import FloatSolution
from repro.utils.rng import as_generator

__all__ = [
    "binary_tournament",
    "crowded_binary_tournament",
    "random_selection",
]

Comparator = Callable[[FloatSolution, FloatSolution], int]


def binary_tournament(
    population: Sequence[FloatSolution],
    rng: np.random.Generator | int | None = None,
    comparator: Comparator = compare,
) -> FloatSolution:
    """Pick two distinct random members; return the comparator's winner
    (random winner on ties)."""
    gen = as_generator(rng)
    n = len(population)
    if n == 0:
        raise ValueError("cannot select from an empty population")
    if n == 1:
        return population[0]
    i, j = gen.choice(n, size=2, replace=False).tolist()
    a, b = population[i], population[j]
    c = comparator(a, b)
    if c == -1:
        return a
    if c == 1:
        return b
    return a if gen.random() < 0.5 else b


def crowded_binary_tournament(
    population: Sequence[FloatSolution],
    rng: np.random.Generator | int | None = None,
) -> FloatSolution:
    """NSGA-II's tournament on (rank, crowding distance)."""
    return binary_tournament(population, rng, comparator=crowded_compare)


def random_selection(
    population: Sequence[FloatSolution],
    rng: np.random.Generator | int | None = None,
    k: int = 1,
    replace: bool = False,
) -> list[FloatSolution]:
    """``k`` members uniformly at random."""
    gen = as_generator(rng)
    if k > len(population) and not replace:
        raise ValueError(
            f"cannot draw {k} distinct members from {len(population)}"
        )
    idx = gen.choice(len(population), size=k, replace=replace)
    return [population[int(i)] for i in idx]
