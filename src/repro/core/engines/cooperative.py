"""One population's loop, shared by the serial and process engines.

The paper's shared-memory level maps to POSIX threads in C.  Here a
population's T procedures take turns in one thread instead: every round
steps each live procedure once, so all of them reach the reset condition
(Fig. 3 line 13) in the same round, and the population-wide
re-initialisation happens at the iteration boundaries a barrier would
impose.  Given its RNG streams the loop is deterministic.

OS threads bought nothing here.  With 4 populations × 6 threads × 60
evaluations on a 300 dev/km² tuning problem (5 networks, seed 11, 2-vCPU
host, compiled kernel), five runs per engine took a median 1.26 s in this
loop, 1.48 s on one thread per procedure and 0.80 s with one process per
population, and the threaded runs gave five different fronts (CHANGES.md).
"""

from __future__ import annotations

from repro.core.config import MLSConfig
from repro.core.localsearch import (
    ArchivePort,
    LocalSearchProcedure,
    Population,
    drain_population,
)
from repro.moo.archive import AdaptiveGridArchive
from repro.moo.problem import Problem
from repro.utils.rng import RngFactory

__all__ = ["PopulationRun", "build_archive"]


def build_archive(
    problem: Problem, config: MLSConfig, factory: RngFactory
) -> AdaptiveGridArchive:
    """The run's external archive (AGA), on the ``"archive"`` stream."""
    return AdaptiveGridArchive(
        capacity=config.archive_capacity,
        n_objectives=problem.n_objectives,
        bisections=config.archive_bisections,
        rng=factory.generator("archive"),
    )


class PopulationRun:
    """The T procedures of one population, stepped one round at a time."""

    def __init__(
        self,
        problem: Problem,
        config: MLSConfig,
        population_index: int,
        port: ArchivePort,
        factory: RngFactory,
    ):
        population = Population(config.threads_per_population)
        self.port = port
        self.procedures = [
            LocalSearchProcedure(
                problem,
                config,
                population,
                slot=t,
                archive=port,
                rng=factory.generator("mls", population_index, t),
            )
            for t in range(config.threads_per_population)
        ]

    def initialise(self) -> None:
        """Fig. 3 lines 1–4: every procedure starts, in slot order."""
        for proc in self.procedures:
            proc.initialise()

    @property
    def done(self) -> bool:
        """True once every procedure has spent its budget."""
        return all(proc.done for proc in self.procedures)

    def step(self) -> bool:
        """One round: one ``step`` per live procedure, then the population
        reset if the round reached it.  Returns True when it did."""
        live = [proc for proc in self.procedures if not proc.done]
        for proc in live:
            proc.step()
        # All live procedures share the iteration count in this
        # round-robin schedule; one check covers the population.
        if live and live[0].needs_reset():
            drain_population(self.procedures, self.port)
            return True
        return False

    def stats(self) -> list[dict]:
        """Per-procedure counters, in slot order."""
        return [proc.stats() for proc in self.procedures]

