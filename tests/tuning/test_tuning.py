"""The AEDB tuning problem: objectives, constraint, caching."""

import numpy as np
import pytest

from repro.manet.aedb import AEDBParams
from repro.tuning import (
    AEDBTuningProblem,
    EvaluationCache,
    NetworkSetEvaluator,
)
from repro.tuning.bounds import (
    BROADCAST_TIME_LIMIT_S,
    lower_bounds,
    upper_bounds,
    variable_names,
)


class TestBounds:
    def test_table3(self):
        np.testing.assert_allclose(lower_bounds(), [0, 0, -95, 0, 0])
        np.testing.assert_allclose(upper_bounds(), [1, 5, -70, 3, 50])
        assert BROADCAST_TIME_LIMIT_S == 2.0

    def test_names_order(self):
        assert variable_names()[0] == "min_delay_s"
        assert variable_names()[2] == "border_threshold_dbm"


class TestEvaluator:
    def test_deterministic(self, tiny_evaluator, default_params):
        a = tiny_evaluator.evaluate(default_params)
        b = tiny_evaluator.evaluate(default_params)
        assert a == b

    def test_counts_simulations(self, tiny_scenarios, default_params):
        ev = NetworkSetEvaluator(list(tiny_scenarios))
        ev.evaluate(default_params)
        assert ev.simulations_run == len(tiny_scenarios)

    def test_cache_avoids_resimulation(self, tiny_scenarios, default_params):
        ev = NetworkSetEvaluator(list(tiny_scenarios), cache=EvaluationCache())
        ev.evaluate(default_params)
        ev.evaluate(default_params)
        assert ev.simulations_run == len(tiny_scenarios)
        assert ev.cache.hits == 1

    def test_evaluate_vector_clips(self, tiny_evaluator):
        m = tiny_evaluator.evaluate_vector(
            np.array([9.0, 9.0, 0.0, 9.0, 99.0])
        )
        assert m.n_nodes == tiny_evaluator.n_nodes

    @pytest.mark.parametrize("slot", range(5))
    def test_evaluate_vector_rejects_nan_naming_the_field(
        self, tiny_scenarios, slot
    ):
        evaluator = NetworkSetEvaluator(list(tiny_scenarios))
        vector = np.array([0.0, 1.0, -90.0, 1.0, 10.0])
        vector[slot] = np.nan
        name = AEDBParams.names()[slot]
        with pytest.raises(ValueError, match=f"{name} is NaN"):
            evaluator.evaluate_vector(vector)
        assert evaluator.simulations_run == 0

    def test_rejects_empty_or_mixed(self, tiny_scenarios):
        with pytest.raises(ValueError):
            NetworkSetEvaluator([])

    def test_for_density_builds_paper_set(self):
        ev = NetworkSetEvaluator.for_density(100, n_networks=2, n_nodes=10)
        assert ev.n_networks == 2 and ev.n_nodes == 10


class TestFlagReads:
    """``REPRO_*`` flags are read when an evaluator is built, never per
    simulation: one ``evaluate`` reads as many flags over 4 networks as
    over 1 (none, with the flags captured)."""

    def _reads_per_evaluate(self, n_networks, monkeypatch):
        from repro.utils.flags import Flag

        evaluator = NetworkSetEvaluator.for_density(
            100, n_networks=n_networks, n_nodes=10, master_seed=0xF1A6
        )
        evaluator.evaluate(AEDBParams())  # runtimes built
        reads = []
        read = Flag.read

        def counting(self):
            reads.append(self.name)
            return read(self)

        with monkeypatch.context() as patch:
            patch.setattr(Flag, "read", counting)
            evaluator.evaluate(AEDBParams(0.1, 2.0, -85.0, 1.0, 5.0))
        return reads

    @pytest.mark.parametrize("telemetry", [None, "1", "deep"])
    def test_reads_do_not_scale_with_networks(self, monkeypatch, telemetry):
        if telemetry is None:
            monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        else:
            monkeypatch.setenv("REPRO_TELEMETRY", telemetry)
        one = self._reads_per_evaluate(1, monkeypatch)
        four = self._reads_per_evaluate(4, monkeypatch)
        assert one == four == []


class TestEvaluateMany:
    """The batched entry point is one :meth:`evaluate` per configuration,
    input order, through the same caches."""

    BATCH = [
        AEDBParams(0.0, 0.5, border, 1.0, 10.0)
        for border in (-94.0, -85.0, -72.0)
    ]

    def test_matches_an_evaluate_loop(self, tiny_scenarios):
        expected = [
            NetworkSetEvaluator(list(tiny_scenarios)).evaluate(p)
            for p in self.BATCH
        ]
        evaluator = NetworkSetEvaluator(list(tiny_scenarios))
        assert evaluator.evaluate_many(self.BATCH) == expected
        assert evaluator.simulations_run == 3 * len(tiny_scenarios)

    def test_respects_the_cache(self, tiny_scenarios, default_params):
        cache = EvaluationCache()
        evaluator = NetworkSetEvaluator(list(tiny_scenarios), cache=cache)
        first = evaluator.evaluate_many([default_params])
        assert evaluator.evaluate_many([default_params]) == first
        assert evaluator.simulations_run == len(tiny_scenarios)
        assert cache.stats()["hits"] == 1

    def test_duplicates_under_the_cache_key_simulate_once(
        self, tiny_scenarios
    ):
        a = AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)
        b = AEDBParams(0.0, 0.5, -90.0 + 1e-12, 1.0, 10.0)
        evaluator = NetworkSetEvaluator(
            list(tiny_scenarios), cache=EvaluationCache()
        )
        out = evaluator.evaluate_many([a, b, a])
        assert evaluator.simulations_run == len(tiny_scenarios)
        assert out[0] == out[1] == out[2]

    def test_empty_batch(self, tiny_scenarios):
        evaluator = NetworkSetEvaluator(list(tiny_scenarios))
        assert evaluator.evaluate_many([]) == []
        assert evaluator.simulations_run == 0

    def test_persistent_cache_serves_another_evaluator(
        self, tiny_scenarios, tmp_path
    ):
        from repro.tuning import PersistentEvaluationCache

        path = tmp_path / "evaluations.jsonl"
        writer = PersistentEvaluationCache(path)
        first = NetworkSetEvaluator(list(tiny_scenarios), persistent=writer)
        expected = first.evaluate_many(self.BATCH)
        writer.close()
        reader = PersistentEvaluationCache(path)
        second = NetworkSetEvaluator(list(tiny_scenarios), persistent=reader)
        assert second.evaluate_many(self.BATCH) == expected
        assert second.simulations_run == 0
        reader.close()


class TestProblem:
    def test_shape(self, tiny_problem):
        assert tiny_problem.n_variables == 5
        assert tiny_problem.n_objectives == 3
        assert tiny_problem.n_constraints == 1

    def test_objective_mapping(self, tiny_problem, tiny_evaluator, default_params):
        s = tiny_problem.create_solution(0)
        s.variables = default_params.as_array()
        tiny_problem.evaluate(s)
        metrics = tiny_evaluator.evaluate(default_params)
        assert s.objectives[0] == pytest.approx(metrics.energy_dbm)
        assert s.objectives[1] == pytest.approx(-metrics.coverage)
        assert s.objectives[2] == pytest.approx(metrics.forwardings)
        expected_cv = max(metrics.broadcast_time_s - 2.0, 0.0)
        assert s.constraint_violation == pytest.approx(expected_cv)

    def test_metrics_attached(self, tiny_problem):
        s = tiny_problem.create_solution(1)
        tiny_problem.evaluate(s)
        assert "metrics" in s.attributes

    def test_display_objectives_flips_coverage(self, tiny_problem):
        internal = np.array([[10.0, -20.0, 5.0]])
        display = tiny_problem.display_objectives(internal)
        np.testing.assert_allclose(display, [[10.0, 20.0, 5.0]])

    def test_display_objectives_1d(self, tiny_problem):
        out = tiny_problem.display_objectives(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0])

    def test_params_of_clips(self, tiny_problem):
        s = tiny_problem.create_solution(0)
        s.variables = np.array([99.0, 99.0, 99.0, 99.0, 99.0])
        p = tiny_problem.params_of(s)
        assert p.border_threshold_dbm == -70.0

    def test_labels(self, tiny_problem):
        assert tiny_problem.objective_labels[1] == "-coverage[devices]"

    def test_make_tuning_problem(self):
        from repro.tuning import make_tuning_problem

        p = make_tuning_problem(100, n_networks=1, n_nodes=8, use_cache=True)
        assert p.evaluator.cache is not None
        assert p.density_per_km2 == 100


class TestCache:
    def test_key_rounding(self):
        cache = EvaluationCache(decimals=3)
        assert cache.key_for(np.array([1.00049])) == cache.key_for(
            np.array([1.0005])
        ) or cache.key_for(np.array([1.2344999])) == cache.key_for(
            np.array([1.2345001])
        )

    def test_hit_rate(self):
        cache = EvaluationCache()
        cache.get_or_compute(np.array([1.0]), lambda: "a")
        cache.get_or_compute(np.array([1.0]), lambda: "b")
        assert cache.hit_rate == pytest.approx(0.5)
        assert cache.get_or_compute(np.array([1.0]), lambda: "c") == "a"

    def test_bounded(self):
        cache = EvaluationCache(max_entries=3)
        for i in range(10):
            cache.get_or_compute(np.array([float(i)]), lambda i=i: i)
        assert len(cache) <= 3

    def test_clear(self):
        cache = EvaluationCache()
        cache.get_or_compute(np.array([1.0]), lambda: "a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_thread_safety_smoke(self):
        import threading

        cache = EvaluationCache()
        errors = []

        def worker(k):
            try:
                for i in range(200):
                    cache.get_or_compute(
                        np.array([float(i % 17)]), lambda: i
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) == 17
