"""Serial (deterministic) AEDB-MLS engine.

All populations share one archive in one thread.  Each is a
:class:`~repro.core.engines.cooperative.PopulationRun`; they initialise in
population order, then every round steps each population once, in order.
Given a seed, runs are bit-for-bit reproducible, which makes this engine
the behavioural reference for the tests.
"""

from __future__ import annotations

from repro.core.config import MLSConfig
from repro.core.engines.cooperative import PopulationRun, build_archive
from repro.core.localsearch import ArchivePort
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution
from repro.utils.rng import RngFactory

__all__ = ["SerialEngine"]


class SerialEngine:
    """Single-threaded reference engine."""

    name = "serial"

    def run(
        self,
        problem: Problem,
        config: MLSConfig,
        seed: int = 0,
    ) -> tuple[list[FloatSolution], dict]:
        """Execute a full AEDB-MLS run; return (archive members, stats)."""
        factory = RngFactory(seed)
        archive = build_archive(problem, config, factory)
        port = ArchivePort(archive.add, archive.sample)
        runs = [
            PopulationRun(problem, config, p, port, factory)
            for p in range(config.n_populations)
        ]
        for run in runs:
            run.initialise()

        resets = 0
        while not all(run.done for run in runs):
            for run in runs:
                resets += run.step()

        per_population = [run.stats() for run in runs]
        stats = {
            "engine": self.name,
            "evaluations": sum(s["evaluations"] for pop in per_population for s in pop),
            "population_resets": resets,
            "archive_size": len(archive),
            "per_population": per_population,
        }
        return [m.copy() for m in archive.members], stats
