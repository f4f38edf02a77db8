"""AEDB-MLS engines: semantics, determinism, cross-engine agreement."""

import hashlib
import json

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


@pytest.mark.parametrize("engine", ["processes"])
class TestConcurrentEngines:
    def test_runs_and_respects_budget(self, engine):
        cfg = MLSConfig(**FAST_CFG, engine=engine)
        result = AEDBMLS(ToyAEDBLike(), cfg, seed=6).run()
        assert result.evaluations == cfg.total_evaluations
        assert result.info["engine"] == engine
        assert len(result.front) > 0
        assert all(s.is_feasible for s in result.front)

    def test_quality_comparable_to_serial(self, engine):
        # Same budget must land in the same objective region (the
        # engines differ only in scheduling).  Concurrent engines are not
        # trajectory-deterministic (archive insertions race), so compare
        # small seed-ensembles rather than single runs.
        seeds = (7, 8, 9)
        serial_best = np.min(
            [
                AEDBMLS(ToyAEDBLike(), MLSConfig(**FAST_CFG), seed=s)
                .run()
                .objectives_matrix()
                .min(axis=0)
                for s in seeds
            ],
            axis=0,
        )
        other_best = np.min(
            [
                AEDBMLS(
                    ToyAEDBLike(), MLSConfig(**FAST_CFG, engine=engine), seed=s
                )
                .run()
                .objectives_matrix()
                .min(axis=0)
                for s in seeds
            ],
            axis=0,
        )
        # Ensemble best-per-objective within a loose band.
        np.testing.assert_allclose(serial_best, other_best, atol=30.0)


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

    def test_cooperative_function_directly(self):
        from repro.core.engines.cooperative import run_population_cooperative
        from repro.core.localsearch import ArchivePort
        from repro.moo.archive import AdaptiveGridArchive
        from repro.utils.rng import RngFactory

        problem = ToyAEDBLike()
        cfg = MLSConfig(**FAST_CFG)
        archive = AdaptiveGridArchive(capacity=30, n_objectives=3, rng=0)
        port = ArchivePort(archive.add, archive.sample)
        stats = run_population_cooperative(
            problem, cfg, 0, port, RngFactory(5)
        )
        assert len(stats) == cfg.threads_per_population
        assert all(
            s["evaluations"] == cfg.evaluations_per_thread for s in stats
        )
        assert len(archive) > 0

    def test_one_population_matches_in_process_loop(self):
        # With one population nothing races: the worker's adds and
        # samples reach the parent's archive in program order, so the
        # front equals that of the same loop run in this process on the
        # worker's seed, with the parent's archive stream.
        from repro.core.engines.cooperative import (
            build_archive,
            run_population_cooperative,
        )
        from repro.core.engines.processes import ProcessEngine
        from repro.core.localsearch import ArchivePort
        from repro.utils.rng import RngFactory

        problem = ToyAEDBLike()
        cfg = MLSConfig(**{**FAST_CFG, "n_populations": 1}, engine="processes")
        seed = 5
        factory = RngFactory(seed)
        worker_seed = int(factory.seed_sequence("worker", 0).generate_state(1)[0])
        archive = build_archive(problem, cfg, factory)
        run_population_cooperative(
            problem, cfg, 0, ArchivePort(archive.add, archive.sample),
            RngFactory(worker_seed),
        )
        expected = [
            (m.variables.tolist(), m.objectives.tolist()) for m in archive.members
        ]
        for _ in range(2):
            members, _ = ProcessEngine().run(problem, cfg, seed=seed)
            assert [
                (m.variables.tolist(), m.objectives.tolist()) for m in members
            ] == expected
