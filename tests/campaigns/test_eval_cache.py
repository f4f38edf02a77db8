"""Persistent evaluation cache: exact storage, cross-campaign reuse.

DESIGN.md §9's disk-side contracts: a hit returns the *exact* stored
``BroadcastMetrics`` (floats survive the JSON round-trip bit-for-bit),
keys cover the full simulation input, torn tail lines are skipped, and
a campaign re-run whose simulations are all cached executes none.
"""

import json

import pytest

from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore
from repro.manet import AEDBParams, BroadcastMetrics, make_scenarios
from repro.manet.config import SimulationConfig
from repro.tuning import PersistentEvaluationCache


@pytest.fixture()
def scenario():
    return make_scenarios(100, n_networks=1, n_nodes=8)[0]


@pytest.fixture()
def params():
    return AEDBParams(0.1, 0.7, -88.5, 1.25, 7.0)


def odd_metrics(n_nodes=8) -> BroadcastMetrics:
    """Values with no short decimal form — the round-trip stress case."""
    return BroadcastMetrics(
        coverage=5.0,
        energy_dbm=-1.0 / 3.0 * 100.0,
        forwardings=2.0 / 7.0,
        broadcast_time_s=0.1 + 0.2,  # 0.30000000000000004
        n_nodes=n_nodes,
    )


class TestRoundTrip:
    def test_hit_returns_the_exact_stored_metrics(
        self, tmp_path, scenario, params
    ):
        path = tmp_path / "evaluations.jsonl"
        stored = odd_metrics()
        PersistentEvaluationCache(path).put_metrics(scenario, params, stored)
        # A *fresh* instance reads back from disk only.
        loaded = PersistentEvaluationCache(path).get_metrics(scenario, params)
        assert loaded == stored  # dataclass equality: bit-exact floats

    def test_miss_on_any_input_change(self, tmp_path, scenario, params):
        cache = PersistentEvaluationCache(tmp_path / "e.jsonl")
        cache.put_metrics(scenario, params, odd_metrics())
        other_params = AEDBParams(0.1, 0.7, -88.5, 1.25, 8.0)
        assert cache.get_metrics(scenario, other_params) is None
        other_scenario = make_scenarios(100, n_networks=2, n_nodes=8)[1]
        assert cache.get_metrics(other_scenario, params) is None
        other_sim = make_scenarios(
            100, n_networks=1, n_nodes=8,
            sim=SimulationConfig(horizon_s=45.0),
        )[0]
        assert cache.get_metrics(other_sim, params) is None

    def test_torn_tail_line_is_skipped(self, tmp_path, scenario, params):
        path = tmp_path / "e.jsonl"
        cache = PersistentEvaluationCache(path)
        cache.put_metrics(scenario, params, odd_metrics())
        cache.close()
        with path.open("a") as fh:
            fh.write('{"key": "abc", "met')  # crash mid-append
        reloaded = PersistentEvaluationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get_metrics(scenario, params) == odd_metrics()

    def test_duplicate_put_appends_once(self, tmp_path, scenario, params):
        path = tmp_path / "e.jsonl"
        cache = PersistentEvaluationCache(path)
        cache.put_metrics(scenario, params, odd_metrics())
        cache.put_metrics(scenario, params, odd_metrics())
        cache.close()
        assert len(path.read_text().splitlines()) == 1

    def test_stats_and_flush(self, tmp_path, scenario, params):
        path = tmp_path / "e.jsonl"
        cache = PersistentEvaluationCache(path)
        assert cache.get_metrics(scenario, params) is None
        cache.put_metrics(scenario, params, odd_metrics())
        assert cache.get_metrics(scenario, params) is not None
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["disk_bytes"] > 0
        assert cache.flush() == 1
        assert not path.exists()
        assert cache.get_metrics(scenario, params) is None

    def test_foreign_version_lines_are_ignored(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(
            json.dumps({"key": "k", "metrics": {}, "v": 999}) + "\n"
        )
        assert len(PersistentEvaluationCache(path)) == 0


def tiny_spec(**overrides):
    defaults = dict(
        name="t", densities=(100, 300), n_seeds=2, n_networks=2, n_nodes=10,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestCampaignIntegration:
    def test_sidecar_written_next_to_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        report = CampaignExecutor(tiny_spec(), store, backend="inline").run()
        assert report.simulations_executed == report.n_simulations > 0
        assert report.cache_hits == 0
        assert store.eval_cache_path.exists()

    @pytest.mark.parametrize("backend", ["inline", "pool"])
    def test_rerun_of_completed_campaign_runs_zero_simulations(
        self, tmp_path, backend, store_digests
    ):
        """The §9 acceptance property: same grid, fresh store, shared
        cache file => every cell rebuilt from disk, zero simulations,
        bit-identical bytes."""
        spec = tiny_spec()
        kwargs = dict(backend=backend, max_workers=2)
        first = CampaignExecutor(
            spec, ResultStore(tmp_path / "a"), **kwargs
        ).run()
        assert first.simulations_executed == first.n_simulations

        second = CampaignExecutor(
            spec, ResultStore(tmp_path / "b"),
            eval_cache=tmp_path / "a" / "evaluations.jsonl", **kwargs
        ).run()
        assert len(second.executed) == spec.n_cells
        assert second.simulations_executed == 0
        assert second.cache_hits == first.simulations_executed
        assert store_digests(tmp_path / "a") == store_digests(tmp_path / "b")

    def test_overlapping_campaign_reuses_shared_cache(self, tmp_path):
        """A *different* spec whose cells overlap on (scenario, params,
        seed) only simulates the non-overlapping part."""
        shared_cache = tmp_path / "shared.jsonl"
        full = tiny_spec()  # densities (100, 300)
        CampaignExecutor(
            full, ResultStore(tmp_path / "full"),
            eval_cache=shared_cache, backend="inline",
        ).run()
        part = tiny_spec(densities=(100, 200))  # 100 overlaps, 200 is new
        report = CampaignExecutor(
            part, ResultStore(tmp_path / "part"),
            eval_cache=shared_cache, backend="inline",
        ).run()
        per_density = part.n_seeds * part.n_networks
        assert report.cache_hits == per_density  # density-100 cells
        assert report.simulations_executed == per_density  # density-200

    def test_eval_cache_none_disables_persistence(self, tmp_path):
        store = ResultStore(tmp_path)
        report = CampaignExecutor(
            tiny_spec(), store, backend="inline", eval_cache=None
        ).run()
        assert report.cache_hits == 0
        assert not store.eval_cache_path.exists()

    def test_storeless_run_has_no_auto_cache(self):
        spec = tiny_spec(densities=(100,), n_seeds=1)
        report = CampaignExecutor(spec, store=None, backend="inline").run()
        assert report.cache_hits == 0
        assert report.simulations_executed == spec.n_cells * 2  # 2 networks
