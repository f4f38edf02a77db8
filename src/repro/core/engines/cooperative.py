"""Cooperative (round-robin) scheduling of one population's procedures.

The paper's shared-memory level maps naturally to POSIX threads in C.
Under CPython, however, preemptive threads running this workload convoy
on the GIL (NumPy releases it at every medium-sized ufunc call, forcing
a context switch per operation — measured 3-5x slowdowns; see DESIGN.md
§7).  Because the thread engine synchronises all of a population's
threads at the same iteration boundaries anyway, a *cooperative*
round-robin over the population's procedures executes the identical
sequence of algorithm states with none of the GIL traffic.

The process engine therefore schedules each population's procedures
cooperatively; real OS threads remain the thread engine's
(:mod:`repro.core.engines.threads`).
"""

from __future__ import annotations

from repro.core.config import MLSConfig
from repro.core.localsearch import (
    ArchivePort,
    LocalSearchProcedure,
    Population,
    drain_population,
)
from repro.moo.problem import Problem
from repro.utils.rng import RngFactory

__all__ = ["run_population_cooperative"]


def run_population_cooperative(
    problem: Problem,
    config: MLSConfig,
    population_index: int,
    port: ArchivePort,
    factory: RngFactory,
) -> list[dict]:
    """Run one population's T procedures round-robin; return their stats.

    Equivalent to :func:`repro.core.engines.threads.run_population_threaded`
    state-for-state: initialise all, then one ``step`` per live procedure
    per round, with the population-wide archive reset at the shared
    iteration boundaries (all live procedures reach the reset condition in
    the same round by construction).
    """
    population = Population(config.threads_per_population)
    procedures = [
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
    reset_rng = factory.generator("reset", population_index)

    for proc in procedures:
        proc.initialise()

    while any(not proc.done for proc in procedures):
        live = [proc for proc in procedures if not proc.done]
        for proc in live:
            proc.step()
        if live and live[0].needs_reset():
            drain_population(procedures, port, reset_rng)

    return [proc.stats() for proc in procedures]
