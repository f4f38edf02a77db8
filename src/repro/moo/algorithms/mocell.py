"""MOCell (Nebro, Durillo, Luna, Dorronsoro, Alba 2007).

The multi-objective *cellular* genetic algorithm CellDE hybridises: the
same toroidal grid, neighbourhood selection, external crowding archive
and archive feedback as :class:`repro.moo.algorithms.cellde.CellDE`, but
with the classic SBX + polynomial-mutation variation instead of
differential evolution.  The paper's future work proposes parallelising
exactly this cellular family with AEDB-MLS embedded; having both cellular
variants lets the ablation benches separate "cellular topology" from "DE
variation".
"""

from __future__ import annotations

import numpy as np

from repro.moo.algorithms.base import EvolutionaryAlgorithm
from repro.moo.algorithms.cellde import displaced_member
from repro.moo.archive import CrowdingDistanceArchive
from repro.moo.dominance import compare
from repro.moo.problem import Problem
from repro.moo.selection import binary_tournament
from repro.moo.solution import FloatSolution
from repro.moo.variation import PolynomialMutation, SBXCrossover

__all__ = ["MOCell"]


class MOCell(EvolutionaryAlgorithm):
    """Cellular GA with SBX/PM variation and a crowding archive."""

    name = "MOCell"

    def __init__(
        self,
        problem: Problem,
        max_evaluations: int,
        grid_side: int = 10,
        crossover: SBXCrossover | None = None,
        mutation: PolynomialMutation | None = None,
        archive_capacity: int | None = None,
        feedback: int | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__(problem, max_evaluations, rng)
        if grid_side < 2:
            raise ValueError(f"grid_side must be >= 2, got {grid_side}")
        self.grid_side = int(grid_side)
        self.population_size = self.grid_side**2
        self.crossover = crossover or SBXCrossover(probability=0.9, eta=20.0)
        self.mutation = mutation or PolynomialMutation(eta=20.0)
        self.archive = CrowdingDistanceArchive(
            archive_capacity or self.population_size
        )
        #: Cells refreshed from the archive per generation (as in CellDE).
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
        budget = min(self.population_size, self.budget_left)
        order = self.rng.permutation(self.population_size)[:budget]
        for cell in order:
            self._breed_cell(int(cell))
        self._archive_feedback()
        self.generations += 1

    def _breed_cell(self, cell: int) -> None:
        current = self.population[cell]
        hood = [self.population[i] for i in self._neighbor_idx[cell]]
        # Two neighbourhood parents; the second tournament includes the
        # current individual (the MOCell "one from the cell" convention).
        pa = binary_tournament(hood, self.rng)
        pb = binary_tournament(hood + [current], self.rng)
        ca, _ = self.crossover.execute(pa, pb, self.problem, self.rng)
        child = self.mutation.execute(ca, self.problem, self.rng)
        self.evaluate(child)
        self._replace(cell, child)
        self.archive.add(child.copy())

    def _replace(self, cell: int, child: FloatSolution) -> None:
        current = self.population[cell]
        c = compare(child, current)
        if c == -1:
            self.population[cell] = child
            return
        if c == 1:
            return
        # Mutually non-dominated: displace the worst neighbour by
        # (rank, crowding) on the local view — same rule as CellDE.
        view_idx = [cell, *self._neighbor_idx[cell]]
        worst = displaced_member([self.population[i] for i in view_idx] + [child])
        if worst is not None:
            self.population[view_idx[worst]] = child

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
