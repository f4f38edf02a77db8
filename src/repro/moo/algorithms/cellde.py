"""CellDE (Durillo, Nebro, Luna, Alba 2008).

The hybrid cellular genetic algorithm the paper compares against: a
toroidal grid of individuals, each bred with differential evolution using
parents tournament-selected from its neighbourhood, a bounded external
crowding archive, and archive feedback into the grid — "solving
three-objective optimisation problems using a new hybrid cellular genetic
algorithm" (reference [4] of the paper).

Implementation notes (canonical choices):

* grid: square torus (default 10 x 10 = population 100);
* neighbourhood: C9 (Moore — the 8 surrounding cells plus self);
* variation: DE/rand/1/bin with F = 0.5, CR = 0.9, base/difference
  vectors tournament-selected from the neighbourhood;
* replacement: the trial replaces the current cell if it
  constraint-dominates it; if mutually non-dominated it replaces the
  *worst* neighbour by (rank, crowding) within the neighbourhood view;
* archive: :class:`CrowdingDistanceArchive` (capacity = population);
* feedback: after each generation a fixed number of random cells are
  overwritten with random archive members.
"""

from __future__ import annotations

import numpy as np

from repro.moo.algorithms.base import EvolutionaryAlgorithm
from repro.moo.archive import CrowdingDistanceArchive
from repro.moo.density import crowding
from repro.moo.dominance import compare
from repro.moo.problem import Problem
from repro.moo.ranking import ranks
from repro.moo.selection import binary_tournament
from repro.moo.solution import FloatSolution
from repro.moo.variation import DifferentialEvolutionCrossover

__all__ = ["CellDE"]


def displaced_member(view: list[FloatSolution]) -> int | None:
    """Position in ``view[:-1]`` that the newcomer ``view[-1]`` replaces,
    or None: cellular replacement on a local view.

    The worst member is the one with the largest ``(rank, -crowding
    distance)``, the first of them on a tie; the newcomer replaces it
    when its own key is smaller.  Ranks come from one objective matrix,
    and only the worst member's front needs crowding distances.  A
    solution that fills several cells of the view (a 2-wide torus) takes
    the distance of its last position in that front, as annotating the
    solutions front by front leaves it.
    """
    rows = [s.objectives.tolist() for s in view]
    rank = ranks(
        np.array(rows), np.array([s.constraint_violation for s in view])
    ).tolist()
    newcomer = len(view) - 1
    worst_rank = max(rank[:newcomer])
    if rank[newcomer] > worst_rank:
        return None
    front = [k for k, r in enumerate(rank) if r == worst_rank]
    distance = crowding([rows[k] for k in front])
    slot = {id(view[k]): i for i, k in enumerate(front)}
    keys = {k: (worst_rank, -distance[slot[id(view[k])]]) for k in front}
    worst = max((k for k in front if k != newcomer), key=keys.__getitem__)
    if rank[newcomer] < worst_rank or keys[newcomer] < keys[worst]:
        return worst
    return None


class CellDE(EvolutionaryAlgorithm):
    """Cellular GA with DE variation and a crowding archive."""

    name = "CellDE"

    def __init__(
        self,
        problem: Problem,
        max_evaluations: int,
        grid_side: int = 10,
        de_f: float = 0.5,
        de_cr: float = 0.9,
        archive_capacity: int | None = None,
        feedback: int | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__(problem, max_evaluations, rng)
        if grid_side < 2:
            raise ValueError(f"grid_side must be >= 2, got {grid_side}")
        self.grid_side = int(grid_side)
        self.population_size = self.grid_side**2
        self.variation = DifferentialEvolutionCrossover(cr=de_cr, f=de_f)
        self.archive = CrowdingDistanceArchive(
            archive_capacity or self.population_size
        )
        #: Cells refreshed from the archive per generation (jMetal uses 20
        #: for a 100-cell grid).
        self.feedback = (
            feedback if feedback is not None else max(self.population_size // 5, 1)
        )
        self.population: list[FloatSolution] = []
        self.generations = 0
        self._neighbor_idx = self._build_neighborhoods()

    # ------------------------------------------------------------------ #
    def _build_neighborhoods(self) -> list[list[int]]:
        """C9 (Moore) neighbourhood indices on the torus, self excluded."""
        side = self.grid_side
        neighborhoods: list[list[int]] = []
        for cell in range(side * side):
            r, c = divmod(cell, side)
            ids = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    ids.append(((r + dr) % side) * side + ((c + dc) % side))
            neighborhoods.append(ids)
        return neighborhoods

    # ------------------------------------------------------------------ #
    def _initialise(self) -> None:
        self.population = [
            self.problem.create_solution(self.rng)
            for _ in range(self.population_size)
        ]
        self.evaluate_all(self.population)
        for sol in self.population:
            self.archive.add(sol.copy())

    def _step(self) -> None:
        side_budget = min(self.population_size, self.budget_left)
        order = self.rng.permutation(self.population_size)[:side_budget]
        for cell in order:
            self._breed_cell(int(cell))
        self._archive_feedback()
        self.generations += 1

    def _breed_cell(self, cell: int) -> None:
        population = self.population
        current = population[cell]
        hood = [population[i] for i in self._neighbor_idx[cell]]
        rng = self.rng
        base = binary_tournament(hood, rng)
        # Difference pair: two distinct neighbourhood members.
        a, b = rng.choice(len(hood), size=2, replace=False).tolist()
        trial = self.variation.execute(
            current, base, hood[a], hood[b], self.problem, rng
        )
        self.evaluate(trial)
        self._replace(cell, trial)
        self.archive.add(trial.copy())

    def _replace(self, cell: int, trial: FloatSolution) -> None:
        population = self.population
        c = compare(trial, population[cell])
        if c == -1:
            population[cell] = trial
            return
        if c == 1:
            return
        # Mutually non-dominated: the trial displaces the worst neighbour
        # by (rank, crowding) computed on the local view.
        view_idx = [cell, *self._neighbor_idx[cell]]
        worst = displaced_member([population[i] for i in view_idx] + [trial])
        if worst is not None:
            population[view_idx[worst]] = trial

    def _archive_feedback(self) -> None:
        if not len(self.archive):
            return
        members = self.archive.members
        for _ in range(self.feedback):
            cell = int(self.rng.integers(self.population_size))
            pick = members[int(self.rng.integers(len(members)))]
            self.population[cell] = pick.copy()

    # ------------------------------------------------------------------ #
    def _current_front(self) -> list[FloatSolution]:
        return self.archive.members

    def _run_info(self) -> dict:
        return {
            "generations": self.generations,
            "population_size": self.population_size,
            "archive_size": len(self.archive),
            "feedback": self.feedback,
        }
