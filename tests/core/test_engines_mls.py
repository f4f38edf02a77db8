"""AEDB-MLS engines: semantics, determinism, cross-engine agreement."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core import AEDBMLS, MLSConfig
from repro.moo.algorithms.base import AlgorithmResult
from tests.core.test_localsearch import ToyAEDBLike

FAST_CFG = dict(
    n_populations=2,
    threads_per_population=3,
    evaluations_per_thread=20,
    reset_iterations=8,
    archive_capacity=30,
)


class TestConfig:
    def test_total_evaluations(self):
        cfg = MLSConfig(**FAST_CFG)
        assert cfg.total_evaluations == 2 * 3 * 20

    def test_paper_defaults(self):
        cfg = MLSConfig()
        assert cfg.n_populations == 8
        assert cfg.threads_per_population == 12
        assert cfg.evaluations_per_thread == 250
        assert cfg.total_evaluations == 24000
        assert cfg.alpha == 0.2
        assert cfg.reset_iterations == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"engine": "threads"},
            {"n_populations": 0},
            {"criterion_weights": (1.0, 1.0)},
            {"criterion_weights": (0.0, 0.0, 0.0)},
            {"criterion_weights": (-1.0, 1.0, 1.0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MLSConfig(**kwargs)


#: Digests of serial AEDB-MLS runs with 3 populations on ``ToyAEDBLike``
#: (see :func:`_run_digest`).  They pin the round-robin order over
#: populations and procedures, the RNG stream keys and the stats record.
SERIAL_DIGESTS = {
    0: "80f4237907859ac1",
    1: "9fcc643511f397f9",
    2: "49a250ef7616f1ed",
    3: "791d93593a818423",
}


def _run_digest(result) -> str:
    """sha256 prefix over the front (variables and objectives as
    ``float.hex``) and the run's ``info`` without its config."""
    h = hashlib.sha256()
    for sol in result.front:
        h.update(",".join(float(v).hex() for v in sol.variables).encode())
        h.update(";".join(float(v).hex() for v in sol.objectives).encode())
    info = {k: v for k, v in result.info.items() if k != "config"}
    h.update(json.dumps(info).encode())
    return h.hexdigest()[:16]


class TestSerialEngine:
    @pytest.mark.parametrize("seed", sorted(SERIAL_DIGESTS))
    def test_golden_digest(self, seed):
        cfg = MLSConfig(**{**FAST_CFG, "n_populations": 3})
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=seed).run()
        assert _run_digest(result) == SERIAL_DIGESTS[seed]

    def test_deterministic(self):
        a = AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=5).run()
        b = AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=5).run()
        np.testing.assert_array_equal(
            a.objectives_matrix(), b.objectives_matrix()
        )

    def test_seed_matters(self):
        a = AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=1).run()
        b = AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=2).run()
        assert not np.array_equal(a.objectives_matrix(), b.objectives_matrix())

    def test_budget_and_result_shape(self):
        result = AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=3).run()
        assert isinstance(result, AlgorithmResult)
        assert result.algorithm == "AEDB-MLS"
        assert result.evaluations == MLSConfig(**FAST_CFG).total_evaluations
        assert result.info["engine"] == "serial"
        assert result.info["population_resets"] > 0
        assert 0 < len(result.front) <= FAST_CFG["archive_capacity"]

    def test_front_feasible_and_nondominated(self):
        from repro.moo.dominance import dominates

        result = AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=4).run()
        front = result.front
        assert all(s.is_feasible for s in front)
        assert not any(
            dominates(a, b)
            for i, a in enumerate(front)
            for j, b in enumerate(front)
            if i != j
        )


def _front(result) -> list:
    return [
        (s.variables.tolist(), s.objectives.tolist(), s.constraint_violation)
        for s in result.front
    ]


#: The info keys both engines report.
SHARED_INFO = ("evaluations", "population_resets", "archive_size", "per_population")


class TestProcessEngine:
    def test_runs_and_respects_budget(self):
        cfg = MLSConfig(**FAST_CFG, engine="processes")
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=6).run()
        assert result.evaluations == cfg.total_evaluations
        assert result.info["engine"] == "processes"
        assert len(result.front) > 0
        assert all(s.is_feasible for s in result.front)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("seed", sorted(SERIAL_DIGESTS))
    def test_matches_the_serial_golden_digest(self, seed):
        # The serial pins, reached through the process engine: the front
        # and every shared stat, ``archived`` included, are serial's.
        cfg = MLSConfig(**{**FAST_CFG, "n_populations": 3}, engine="processes")
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=seed).run()
        assert result.info["engine"] == "processes"
        assert result.info.pop("archive_messages") > 0
        result.info["engine"] = "serial"
        assert _run_digest(result) == SERIAL_DIGESTS[seed]

    @pytest.mark.parametrize("n_populations", [1, 2, 3, 4])
    def test_front_and_stats_equal_serial(self, n_populations):
        # Twice through the process engine, once through the serial one.
        cfg = MLSConfig(**{**FAST_CFG, "n_populations": n_populations})
        serial = AEDBMLS(ToyAEDBLike(), cfg, seed=9).run()
        procs_cfg = dataclasses.replace(cfg, engine="processes")
        for _ in range(2):
            procs = AEDBMLS(ToyAEDBLike(), procs_cfg, seed=9).run()
            assert _front(procs) == _front(serial)
            for key in SHARED_INFO:
                assert procs.info[key] == serial.info[key], key

    def test_archived_counts_true_outcomes(self):
        # Each procedure offers its start and every accepted move; with a
        # small archive many offers are rejected, and ``archived`` says so.
        cfg = MLSConfig(**{**FAST_CFG, "archive_capacity": 5}, engine="processes")
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=4).run()
        slots = [s for pop in result.info["per_population"] for s in pop]
        offered = sum(1 + s["accepted"] for s in slots)
        archived = sum(s["archived"] for s in slots)
        assert 0 < archived < offered

    def test_one_message_per_reset_segment(self):
        # One sample request per population reset and one final report
        # per population, however many adds the run makes.
        cfg = MLSConfig(**FAST_CFG, engine="processes")
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=3).run()
        n_pop = cfg.n_populations
        assert result.info["archive_messages"] == (
            result.info["population_resets"] + n_pop
        )
        adds = sum(
            1 + s["accepted"] for pop in result.info["per_population"] for s in pop
        )
        assert result.info["archive_messages"] < adds / 5


class _FailingToy(ToyAEDBLike):
    """Fails in the worker of population ``population`` after ``after``
    evaluations: by raising, or by ending the process outright."""

    def __init__(self, population: int, after: int, hard: bool):
        super().__init__()
        self.population, self.after, self.hard = population, after, hard
        self.calls = 0

    def _evaluate(self, solution):
        self.calls += 1
        name = multiprocessing.current_process().name
        if name == f"mls-pop{self.population}" and self.calls > self.after:
            if self.hard:
                os._exit(3)
            raise ValueError("evaluation failed")
        super()._evaluate(solution)


class TestProcessEngineFailures:
    @pytest.mark.parametrize(
        "hard, message",
        [(False, r"population 1: ValueError\('evaluation failed'\)"),
         (True, "population 1: worker .*before reporting")],
    )
    def test_failing_worker_fails_the_run_fast(self, hard, message):
        cfg = MLSConfig(
            n_populations=3,
            threads_per_population=3,
            evaluations_per_thread=400,
            reset_iterations=100,
            archive_capacity=30,
            engine="processes",
        )
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=message):
            AEDBMLS(_FailingToy(1, after=30, hard=hard), cfg, seed=1).run()
        assert time.monotonic() - start < 10.0
        assert multiprocessing.active_children() == []


class TestGuards:
    def test_rejects_non_aedb_problem(self):
        from repro.moo.problems import ZDT1

        with pytest.raises(ValueError):
            AEDBMLS(ZDT1(), MLSConfig(**FAST_CFG))


class TestOnTuningProblem:
    def test_small_real_run(self, tiny_problem):
        cfg = MLSConfig(
            n_populations=1,
            threads_per_population=3,
            evaluations_per_thread=10,
            reset_iterations=5,
            archive_capacity=20,
        )
        result = AEDBMLS(tiny_problem, cfg, seed=11).run()
        assert result.evaluations == 30
        assert len(result.front) >= 1
        # Objectives carry simulator semantics.
        display = tiny_problem.display_objectives(result.objectives_matrix())
        assert np.all(display[:, 1] >= 0)  # coverage non-negative


class TestProcessWorkerModes:
    def test_cooperative_worker_meets_budget(self):
        cfg = MLSConfig(**FAST_CFG, engine="processes")
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=8).run()
        assert result.evaluations == cfg.total_evaluations
        assert len(result.front) > 0

    def test_worker_is_not_a_constructor_argument(self):
        for worker in ("cooperative", "threads", "fibers"):
            with pytest.raises(TypeError, match="process_worker"):
                MLSConfig(**FAST_CFG, process_worker=worker)
        assert "process_worker='cooperative'" in repr(MLSConfig(**FAST_CFG))

    def test_population_run_directly(self):
        from repro.core.engines.cooperative import PopulationRun
        from repro.core.localsearch import ArchivePort
        from repro.moo.archive import AdaptiveGridArchive
        from repro.utils.rng import RngFactory

        problem = ToyAEDBLike()
        cfg = MLSConfig(**FAST_CFG)
        archive = AdaptiveGridArchive(capacity=30, n_objectives=3, rng=0)
        port = ArchivePort(archive.add, archive.sample)
        run = PopulationRun(problem, cfg, 0, port, RngFactory(5))
        run.initialise()
        resets = 0
        while not run.done:
            resets += run.step()
        stats = run.stats()
        assert len(stats) == cfg.threads_per_population
        assert all(
            s["evaluations"] == cfg.evaluations_per_thread for s in stats
        )
        assert resets > 0
        assert len(archive) > 0
