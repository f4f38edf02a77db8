"""Topology diagnostics and the random-waypoint mobility extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.manet.config import RadioConfig
from repro.manet.mobility import RandomWaypointMobility
from repro.manet.scenarios import make_scenarios
from repro.manet.topology import scenario_snapshot, snapshot


class TestSnapshot:
    def test_chain_connectivity(self):
        # 3 nodes, 100 m apart: within the ~151 m range -> complete graph.
        pos = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        snap = snapshot(pos, source=0)
        assert snap.n_nodes == 3
        assert snap.is_connected
        assert snap.coverage_ceiling == 2

    def test_disconnected_components(self):
        pos = np.array([[0.0, 0.0], [50.0, 0.0], [480.0, 480.0]])
        snap = snapshot(pos, source=0)
        assert snap.component_sizes == (2, 1)
        assert not snap.is_connected
        assert snap.coverage_ceiling == 1

    def test_link_threshold_respected(self):
        radio = RadioConfig()
        # Just above max range: no link.
        pos = np.array([[0.0, 0.0], [radio.max_range_m + 2.0, 0.0]])
        assert snapshot(pos, radio).n_links == 0
        pos = np.array([[0.0, 0.0], [radio.max_range_m - 2.0, 0.0]])
        assert snapshot(pos, radio).n_links == 1

    def test_mean_degree(self):
        pos = np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]])
        snap = snapshot(pos)
        assert snap.mean_degree == pytest.approx(2.0)  # complete triangle

    def test_scenario_snapshot_defaults_to_broadcast_time(self):
        scenario = make_scenarios(300, n_networks=1)[0]
        snap = scenario_snapshot(scenario)
        assert snap.time_s == scenario.sim.warmup_s
        assert snap.n_nodes == scenario.n_nodes
        assert snap.source_component >= 1

    def test_density_increases_connectivity(self):
        degrees = []
        for density in (100, 300):
            scenario = make_scenarios(density, n_networks=1)[0]
            degrees.append(scenario_snapshot(scenario).mean_degree)
        assert degrees[1] > degrees[0]


class TestRandomWaypoint:
    @given(st.floats(0.0, 40.0))
    @settings(max_examples=30)
    def test_positions_in_bounds(self, t):
        model = RandomWaypointMobility(8, 500.0, 40.0, rng=3)
        pos = model.positions_at(t)
        assert pos.shape == (8, 2)
        assert np.all(pos >= 0.0) and np.all(pos <= 500.0)

    def test_deterministic(self):
        a = RandomWaypointMobility(5, 500.0, 40.0, rng=7).positions_at(12.0)
        b = RandomWaypointMobility(5, 500.0, 40.0, rng=7).positions_at(12.0)
        np.testing.assert_array_equal(a, b)

    def test_speed_bound_respected(self):
        model = RandomWaypointMobility(
            6, 500.0, 40.0, speed_min_mps=0.5, speed_max_mps=2.0, rng=1
        )
        d = np.linalg.norm(
            model.positions_at(10.5) - model.positions_at(10.0), axis=1
        )
        assert np.all(d <= 2.0 * 0.5 + 1e-6)

    def test_straight_travel_between_waypoints(self):
        model = RandomWaypointMobility(1, 500.0, 40.0, rng=2)
        legs = model.legs
        start, end = legs.start[0, 0], legs.end[0, 0]
        p0, vel = legs.p0[0, 0], legs.vel[0, 0]
        mid = 0.5 * (start + min(end, 40.0))
        expected = p0 + vel * (mid - start)
        np.testing.assert_allclose(model.positions_at(mid)[0], expected)

    def test_rejects_bad_speeds(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(3, 500.0, 40.0, speed_min_mps=0.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(
                3, 500.0, 40.0, speed_min_mps=2.0, speed_max_mps=1.0
            )

    def test_usable_by_simulator(self):
        from repro.manet.aedb import AEDBParams
        from repro.manet.simulator import BroadcastSimulator

        scenario = make_scenarios(100, n_networks=1, n_nodes=12)[0]
        model = RandomWaypointMobility(
            12, scenario.sim.area_side_m, scenario.sim.horizon_s, rng=5
        )
        metrics = BroadcastSimulator(
            scenario, AEDBParams(), mobility=model
        ).run()
        assert metrics.n_nodes == 12
