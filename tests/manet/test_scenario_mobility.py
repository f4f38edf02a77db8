"""Scenario-level mobility model selection and trace memoisation."""

import numpy as np
import pytest

from repro.manet.mobility import (
    GaussMarkovMobility,
    RandomDirectionMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
)
from repro.manet.scenarios import (
    MOBILITY_MODELS,
    clear_mobility_cache,
    make_scenarios,
    mobility_cache_size,
    set_mobility_memoisation,
)
from repro.manet.simulator import simulate_broadcast


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_mobility_cache()
    yield
    set_mobility_memoisation(True)
    clear_mobility_cache()


class TestModelSelection:
    @pytest.mark.parametrize(
        "model, cls",
        [
            ("random-walk", RandomWalkMobility),
            ("random-waypoint", RandomWaypointMobility),
            ("gauss-markov", GaussMarkovMobility),
            ("random-direction", RandomDirectionMobility),
        ],
    )
    def test_dispatch(self, model, cls):
        scenario = make_scenarios(
            100, n_networks=1, n_nodes=8, mobility_model=model
        )[0]
        assert scenario.mobility_model == model
        assert isinstance(scenario.build_mobility(), cls)

    def test_all_models_listed(self):
        assert set(MOBILITY_MODELS) == {
            "random-walk", "random-waypoint", "gauss-markov",
            "random-direction",
        }

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_scenarios(100, n_networks=1, mobility_model="teleport")

    def test_seed_material_shared_across_models(self):
        """The mobility axis sweeps motion, not the network population."""
        walk = make_scenarios(100, n_networks=2, n_nodes=8)
        gm = make_scenarios(
            100, n_networks=2, n_nodes=8, mobility_model="gauss-markov"
        )
        for a, b in zip(walk, gm):
            assert a.mobility_seed == b.mobility_seed
            assert a.source == b.source

    def test_simulation_runs_under_every_model(self):
        from repro.manet.aedb import AEDBParams

        params = AEDBParams()
        for model in MOBILITY_MODELS:
            scenario = make_scenarios(
                100, n_networks=1, n_nodes=8, mobility_model=model
            )[0]
            metrics = simulate_broadcast(scenario, params)
            assert metrics.n_nodes == 8


class TestSpeedConfiguration:
    def test_configured_speeds_reach_every_model(self):
        """A mobility sweep compares motion shapes, not silently
        different speed regimes."""
        from repro.manet.config import MobilityConfig, SimulationConfig

        sim = SimulationConfig(
            mobility=MobilityConfig(speed_min_mps=5.0, speed_max_mps=10.0)
        )
        for model in ("random-waypoint", "random-direction"):
            scenario = make_scenarios(
                100, n_networks=1, n_nodes=5, sim=sim, mobility_model=model
            )[0]
            legs = scenario.build_mobility().legs
            real = np.arange(legs.start.shape[1]) < legs.count[:, None]
            speeds = np.linalg.norm(legs.vel[real], axis=1)
            speeds = speeds[speeds > 0]  # pauses excluded
            assert speeds.size
            assert np.all((5.0 <= speeds) & (speeds <= 10.0 + 1e-9)), model

        gm = make_scenarios(
            100, n_networks=1, n_nodes=5, sim=sim,
            mobility_model="gauss-markov",
        )[0].build_mobility()
        assert gm.positions_at(0.0).shape == (5, 2)  # mean speed accepted


class TestMemoisation:
    def test_trace_is_shared_per_scenario(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        assert scenario.build_mobility() is scenario.build_mobility()
        assert mobility_cache_size() == 1

    def test_distinct_scenarios_distinct_traces(self):
        a, b = make_scenarios(100, n_networks=2, n_nodes=8)
        assert a.build_mobility() is not b.build_mobility()
        assert mobility_cache_size() == 2

    def test_opt_out_builds_fresh(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        set_mobility_memoisation(False)
        first = scenario.build_mobility()
        second = scenario.build_mobility()
        assert first is not second
        assert mobility_cache_size() == 0
        # Same trace either way (purely seed-determined).
        t = scenario.sim.warmup_s
        np.testing.assert_array_equal(
            first.positions_at(t), second.positions_at(t)
        )

    def test_memo_is_bounded(self):
        from repro.manet import scenarios as scen_mod

        many = make_scenarios(
            100, n_networks=scen_mod._MEMO_MAX_ENTRIES + 10, n_nodes=2
        )
        for s in many:
            s.build_mobility()
        assert mobility_cache_size() == scen_mod._MEMO_MAX_ENTRIES
        # The newest entries survived (LRU evicts the oldest).
        assert many[-1].build_mobility() is many[-1].build_mobility()

    def test_memoised_trace_equals_fresh_trace(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        memoised = scenario.build_mobility()
        set_mobility_memoisation(False)
        fresh = scenario.build_mobility()
        for t in (0.0, 15.0, 30.0, 40.0):
            np.testing.assert_array_equal(
                memoised.positions_at(t), fresh.positions_at(t)
            )
