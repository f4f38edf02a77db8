"""The Fig. 3 local-search procedure and population plumbing."""

import numpy as np
import pytest

from repro.core.config import MLSConfig
from repro.core.localsearch import (
    ArchivePort,
    LocalSearchProcedure,
    Population,
    drain_population,
)
from repro.moo.archive import AdaptiveGridArchive
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution


class ToyAEDBLike(Problem):
    """5-variable, 3-objective analytic stand-in for the tuning problem.

    Feasibility mimics the broadcast-time constraint: infeasible when the
    delay-window midpoint exceeds 1 (so criterion iii can repair it).
    """

    def __init__(self):
        from repro.manet.aedb import AEDBParams

        super().__init__(
            AEDBParams.lower_bounds(),
            AEDBParams.upper_bounds(),
            n_objectives=3,
            n_constraints=1,
        )

    def _evaluate(self, solution):
        x = solution.variables
        solution.objectives[0] = x[2] + x[4]  # "energy"
        solution.objectives[1] = -(x[4] + 0.1 * x[3])  # "-coverage"
        solution.objectives[2] = x[4] - x[2] * 0.1  # "forwardings"
        bt = 0.5 * (x[0] + x[1])
        solution.constraint_violation = max(bt - 1.0, 0.0)


def make_setup(config=None, slots=3, seed=0):
    problem = ToyAEDBLike()
    cfg = config or MLSConfig(
        n_populations=1,
        threads_per_population=slots,
        evaluations_per_thread=30,
        reset_iterations=10,
    )
    population = Population(slots)
    archive = AdaptiveGridArchive(capacity=20, n_objectives=3, rng=seed)
    port = ArchivePort(archive.add, archive.sample)
    procs = [
        LocalSearchProcedure(problem, cfg, population, slot=i, archive=port,
                             rng=np.random.default_rng(seed + i))
        for i in range(slots)
    ]
    return problem, cfg, population, archive, port, procs


class TestPopulation:
    def test_slots(self):
        pop = Population(3)
        assert len(pop) == 3 and pop.solutions() == []
        s = FloatSolution(np.zeros(5), 3)
        pop.set_slot(1, s)
        assert pop.solutions() == [s]

    def test_peer_excludes_self(self, rng):
        pop = Population(3)
        a, b = FloatSolution(np.zeros(5), 3), FloatSolution(np.ones(5), 3)
        pop.set_slot(0, a)
        pop.set_slot(1, b)
        for _ in range(20):
            assert pop.peer_of(0, rng) is b

    def test_peer_alone_is_none(self, rng):
        pop = Population(2)
        pop.set_slot(0, FloatSolution(np.zeros(5), 3))
        assert pop.peer_of(0, rng) is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Population(0)


class TestProcedure:
    def test_initialise_seeks_feasible(self):
        _, _, population, archive, _, procs = make_setup()
        procs[0].initialise()
        assert procs[0].current is not None
        assert procs[0].evaluations >= 1
        assert len(archive) >= 1
        assert population.slots[0] is procs[0].current

    def test_step_only_accepts_feasible(self):
        _, _, _, _, _, procs = make_setup()
        proc = procs[0]
        proc.initialise()
        for _ in range(20):
            before = proc.current
            proc.step()
            # Accepted solutions must be feasible.
            if proc.current is not before:
                assert proc.current.is_feasible

    def test_budget_enforced(self):
        _, cfg, _, _, _, procs = make_setup()
        proc = procs[0]
        proc.initialise()
        while not proc.done:
            proc.step()
        assert proc.evaluations == cfg.evaluations_per_thread
        # Further steps are no-ops.
        evals = proc.evaluations
        proc.step()
        assert proc.evaluations == evals

    def test_step_before_initialise_raises(self):
        _, _, _, _, _, procs = make_setup()
        with pytest.raises(RuntimeError):
            procs[0].step()

    def test_needs_reset_cadence(self):
        _, _, _, _, _, procs = make_setup()
        proc = procs[0]
        proc.initialise()
        resets = []
        while not proc.done:
            proc.step()
            if proc.needs_reset():
                resets.append(proc.iterations)
        assert all(r % 10 == 0 for r in resets)
        assert resets  # with 30 evals and reset every 10, some fire

    def test_reset_from_replaces_current(self):
        _, _, population, _, _, procs = make_setup()
        proc = procs[0]
        proc.initialise()
        fresh = FloatSolution(np.zeros(5), 3)
        fresh.objectives[:] = 0
        proc.reset_from(fresh)
        assert proc.current is fresh
        assert population.slots[0] is fresh

    def test_stats_keys(self):
        _, _, _, _, _, procs = make_setup()
        procs[0].initialise()
        stats = procs[0].stats()
        assert set(stats) == {"evaluations", "iterations", "accepted", "archived"}


class TestDrain:
    def test_drain_resets_live_procedures(self):
        _, _, _, archive, port, procs = make_setup()
        for p in procs:
            p.initialise()
        before = [p.current for p in procs]
        n = drain_population(procs, port)
        assert n == len(procs)
        # Current solutions now come from the archive (fresh copies).
        for p, old in zip(procs, before):
            assert p.current is not old

    def test_drain_skips_done(self):
        _, cfg, _, _, port, procs = make_setup()
        for p in procs:
            p.initialise()
        # Exhaust one procedure.
        while not procs[0].done:
            procs[0].step()
        n = drain_population(procs, port)
        assert n == len(procs) - 1
