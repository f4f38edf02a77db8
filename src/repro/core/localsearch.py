"""The per-thread local-search procedure (paper Fig. 3).

One :class:`LocalSearchProcedure` owns one population slot and improves
its solution iteratively:

1. pick a random peer ``t`` from the same population (the perturbation
   reference of Eq. 2);
2. pick a search criterion at random and apply the BLX-α step;
3. evaluate; if the perturbed solution is *feasible* (broadcast time
   within limit), accept it unconditionally and offer it to the archive;
4. on the reset condition, replace the owned solution with an archive
   sample (:func:`drain_population`, once for the whole population).

The procedure is engine-agnostic:
:class:`~repro.core.engines.cooperative.PopulationRun` supplies a
population view, an archive port (add/sample callables) and the RNG
stream, then calls :meth:`initialise` / :meth:`step` round-robin, under
the serial and the process engine alike.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import MLSConfig
from repro.core.criteria import select_criterion
from repro.core.operators import blx_alpha_step
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution
from repro.utils.rng import as_generator

__all__ = ["ArchivePort", "Population", "LocalSearchProcedure"]


class ArchivePort:
    """The two archive operations a procedure needs.

    Engines bind these to a local AGA instance (serial) or to a message
    channel toward the archive server (processes).
    """

    def __init__(
        self,
        add: Callable[[FloatSolution], bool],
        sample: Callable[[int], list[FloatSolution]],
    ):
        self._add = add
        self._sample = sample

    def add(self, solution: FloatSolution) -> bool:
        """Offer a (copy of a) solution to the shared archive."""
        return self._add(solution)

    def sample(self, k: int) -> list[FloatSolution]:
        """Draw ``k`` random archive members (copies)."""
        return self._sample(k)


class Population:
    """A fixed-size slot array shared by the procedures of one population.

    The procedures of a population take turns in one thread, so the slots
    need no synchronisation.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.slots: list[FloatSolution | None] = [None] * size

    def set_slot(self, index: int, solution: FloatSolution) -> None:
        """Publish the current solution of one procedure."""
        self.slots[index] = solution

    def peer_of(
        self, index: int, rng: np.random.Generator
    ) -> FloatSolution | None:
        """A random *other* populated slot (None if alone)."""
        candidates = [
            i for i, s in enumerate(self.slots) if s is not None and i != index
        ]
        if not candidates:
            return None
        return self.slots[int(rng.choice(candidates))]

    def solutions(self) -> list[FloatSolution]:
        """All populated slots."""
        return [s for s in self.slots if s is not None]

    def __len__(self) -> int:
        return len(self.slots)


class LocalSearchProcedure:
    """One thread of the AEDB-MLS algorithm (one slot, one solution)."""

    def __init__(
        self,
        problem: Problem,
        config: MLSConfig,
        population: Population,
        slot: int,
        archive: ArchivePort,
        rng: np.random.Generator | int | None = None,
    ):
        self.problem = problem
        self.config = config
        self.population = population
        self.slot = int(slot)
        self.archive = archive
        self.rng = as_generator(rng)
        self.current: FloatSolution | None = None
        self.evaluations = 0
        self.iterations = 0
        self.accepted = 0
        self.archived = 0

    # ------------------------------------------------------------------ #
    @property
    def budget_left(self) -> int:
        """Evaluations remaining for this thread."""
        return max(self.config.evaluations_per_thread - self.evaluations, 0)

    @property
    def done(self) -> bool:
        """True once the thread's evaluation budget is exhausted."""
        return self.budget_left <= 0

    def _evaluate(self, solution: FloatSolution) -> FloatSolution:
        self.problem.evaluate(solution)
        self.evaluations += 1
        return solution

    # ------------------------------------------------------------------ #
    def initialise(self) -> None:
        """Fig. 3 lines 1–3: random feasible start, evaluated, archived.

        Feasibility is sought by rejection sampling (each attempt costs an
        evaluation, honestly charged against the thread budget); if no
        feasible point appears within ``max_init_attempts`` the best
        (least-violating) attempt is kept — constraint-domination then
        drives the search back to feasibility.
        """
        best: FloatSolution | None = None
        attempts = min(self.config.max_init_attempts, self.budget_left)
        for _ in range(max(attempts, 1)):
            candidate = self._evaluate(self.problem.create_solution(self.rng))
            if best is None or (
                candidate.constraint_violation < best.constraint_violation
            ):
                best = candidate
            if candidate.is_feasible:
                break
        assert best is not None
        self.current = best
        self.population.set_slot(self.slot, best)
        if self.archive.add(best.copy()):
            self.archived += 1

    def step(self) -> None:
        """Fig. 3 lines 6–12: one perturbation iteration."""
        if self.current is None:
            raise RuntimeError("step() before initialise()")
        if self.done:
            return
        self.iterations += 1

        reference = self.population.peer_of(self.slot, self.rng)
        if reference is None:
            reference = self.current  # alone: Eq. 2 degenerates to a no-op
        criterion = select_criterion(self.rng, self.config.criterion_weights)
        child_vars = blx_alpha_step(
            self.current.variables,
            reference.variables,
            criterion,
            self.config.alpha,
            self.problem.lower_bounds,
            self.problem.upper_bounds,
            self.rng,
            symmetric=self.config.symmetric_blx,
        )
        child = FloatSolution(child_vars, self.problem.n_objectives)
        self._evaluate(child)

        if child.is_feasible:
            self.accepted += 1
            self.current = child
            self.population.set_slot(self.slot, child)
            if self.archive.add(child.copy()):
                self.archived += 1

    # ------------------------------------------------------------------ #
    def needs_reset(self) -> bool:
        """Fig. 3 line 13: the re-initialisation condition."""
        return (
            self.iterations > 0
            and self.iterations % self.config.reset_iterations == 0
        )

    def reset_from(self, solution: FloatSolution) -> None:
        """Fig. 3 line 14: restart from an archive sample (no evaluation
        needed — the sample is already evaluated)."""
        self.current = solution
        self.population.set_slot(self.slot, solution)

    def stats(self) -> dict:
        """Per-thread counters for the run report."""
        return {
            "evaluations": self.evaluations,
            "iterations": self.iterations,
            "accepted": self.accepted,
            "archived": self.archived,
        }


def drain_population(
    procedures: Sequence[LocalSearchProcedure],
    archive: ArchivePort,
) -> int:
    """Population-wide reset: every live procedure restarts from its own
    archive sample, drawn in one ``sample`` call.

    Returns the number of procedures reset.  Called by
    :meth:`~repro.core.engines.cooperative.PopulationRun.step` under both
    engines; under the process engine the sample is a round trip to the
    parent's archive.
    """
    live = [p for p in procedures if not p.done]
    if not live:
        return 0
    samples = archive.sample(len(live))
    for proc, sample in zip(live, samples):
        proc.reset_from(sample)
    return len(live)
