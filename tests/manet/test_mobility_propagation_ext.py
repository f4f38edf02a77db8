"""Extension mobility models and propagation families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manet.config import RadioConfig
from repro.manet.mobility import GaussMarkovMobility, RandomDirectionMobility
from repro.manet.propagation import (
    FriisPathLoss,
    HashedShadowing,
    LogDistancePathLoss,
    TwoRayGroundPathLoss,
    build_path_loss,
)


class TestGaussMarkov:
    def make(self, alpha=0.75, seed=0, n=10):
        return GaussMarkovMobility(
            n_nodes=n, area_side_m=500.0, horizon_s=40.0, alpha=alpha, rng=seed
        )

    def test_positions_in_bounds_over_time(self):
        mob = self.make()
        for t in np.linspace(0.0, 40.0, 81):
            pos = mob.positions_at(float(t))
            assert pos.shape == (10, 2)
            assert np.all(pos >= 0.0) and np.all(pos <= 500.0)

    def test_deterministic_given_seed(self):
        a, b = self.make(seed=3), self.make(seed=3)
        np.testing.assert_array_equal(a.positions_at(17.3), b.positions_at(17.3))

    def test_pure_out_of_order_queries(self):
        mob = self.make()
        late = mob.positions_at(35.0)
        mob.positions_at(2.0)
        np.testing.assert_array_equal(mob.positions_at(35.0), late)

    def test_temporal_correlation_exceeds_random_redraw(self):
        # High alpha -> consecutive displacement vectors stay aligned.
        smooth = self.make(alpha=0.95, seed=1)
        rough = self.make(alpha=0.0, seed=1)

        def mean_cos(mob):
            cos = []
            for t in range(1, 39):
                d1 = mob.positions_at(t + 0.0) - mob.positions_at(t - 1.0)
                d2 = mob.positions_at(t + 1.0) - mob.positions_at(t + 0.0)
                num = np.einsum("ij,ij->i", d1, d2)
                den = np.linalg.norm(d1, axis=1) * np.linalg.norm(d2, axis=1)
                ok = den > 1e-12
                cos.extend((num[ok] / den[ok]).tolist())
            return float(np.mean(cos))

        assert mean_cos(smooth) > mean_cos(rough)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            self.make(alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkovMobility(0, 500.0, 40.0)
        with pytest.raises(ValueError):
            GaussMarkovMobility(5, 500.0, 40.0, tick_s=0.0)
        mob = self.make()
        with pytest.raises(ValueError):
            mob.positions_at(-1.0)

    @settings(max_examples=20, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_in_bounds(self, t, seed):
        mob = GaussMarkovMobility(5, 300.0, 40.0, rng=seed)
        pos = mob.positions_at(t)
        assert np.all(pos >= 0.0) and np.all(pos <= 300.0)


class TestRandomDirection:
    def make(self, seed=0, pause=0.0):
        return RandomDirectionMobility(
            n_nodes=8,
            area_side_m=500.0,
            horizon_s=40.0,
            pause_s=pause,
            rng=seed,
        )

    def test_positions_in_bounds(self):
        mob = self.make()
        for t in np.linspace(0.0, 40.0, 81):
            pos = mob.positions_at(float(t))
            assert np.all(pos >= 0.0) and np.all(pos <= 500.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            self.make(seed=5).positions_at(12.0),
            self.make(seed=5).positions_at(12.0),
        )

    def test_legs_end_at_walls(self):
        # Every moving leg's endpoint touches a boundary.
        legs = self.make(seed=1).legs
        for i, count in enumerate(legs.count):
            for j in range(count - 1):
                if np.allclose(legs.vel[i, j], 0.0):
                    continue
                endpoint = legs.p0[i, j] + legs.vel[i, j] * (
                    legs.end[i, j] - legs.start[i, j]
                )
                at_wall = np.any(
                    (np.abs(endpoint) < 1e-6)
                    | (np.abs(endpoint - 500.0) < 1e-6)
                )
                assert at_wall

    def test_pause_keeps_node_still(self):
        # Small arena + long horizon guarantee wall hits (hence pauses).
        mob = RandomDirectionMobility(
            n_nodes=8, area_side_m=50.0, horizon_s=200.0, pause_s=5.0, rng=2
        )
        legs = mob.legs
        real = np.arange(legs.start.shape[1]) < legs.count[:, None]
        pauses = real & np.all(legs.vel == 0.0, axis=2)
        assert pauses.any()  # pauses exist
        durations = (legs.end - legs.start)[pauses]
        np.testing.assert_allclose(durations, 5.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            RandomDirectionMobility(5, 500.0, 40.0, speed_min_mps=0.0)
        with pytest.raises(ValueError):
            RandomDirectionMobility(5, 500.0, 40.0, pause_s=-1.0)


class TestFriis:
    def test_known_value(self):
        # 2.4 GHz, 100 m: PL = 32.4478 + 20 log10(2.4) + 40 = ~80.05 dB.
        model = FriisPathLoss(frequency_ghz=2.4)
        expected = 32.4478 + 20.0 * np.log10(2.4) + 20.0 * np.log10(100.0)
        assert float(model.loss_db(100.0)) == pytest.approx(expected)

    def test_less_lossy_than_log_distance_far_out(self):
        friis = FriisPathLoss()
        logd = LogDistancePathLoss()
        for d in (50.0, 100.0, 200.0):
            assert float(friis.loss_db(d)) < float(logd.loss_db(d))

    def test_range_inverts_loss(self):
        model = FriisPathLoss()
        budget = float(model.loss_db(150.0))
        assert model.range_for_budget(budget) == pytest.approx(150.0)

    def test_near_field_clamp(self):
        model = FriisPathLoss(min_distance_m=1.0)
        assert float(model.loss_db(0.01)) == float(model.loss_db(1.0))


class TestTwoRay:
    def test_continuous_at_crossover(self):
        model = TwoRayGroundPathLoss()
        dc = model.crossover_distance_m
        below = float(model.loss_db(dc * 0.999))
        above = float(model.loss_db(dc * 1.001))
        assert abs(below - above) < 0.5

    def test_fourth_power_slope_far_field(self):
        model = TwoRayGroundPathLoss()
        dc = model.crossover_distance_m
        l1 = float(model.loss_db(2 * dc))
        l2 = float(model.loss_db(4 * dc))
        assert l2 - l1 == pytest.approx(40.0 * np.log10(2.0), abs=1e-9)

    def test_range_inverts_loss(self):
        model = TwoRayGroundPathLoss()
        for d in (10.0, 50.0, 300.0):
            budget = float(model.loss_db(d))
            assert model.range_for_budget(budget) == pytest.approx(d, rel=0.01)

    def test_taller_antennas_reach_further(self):
        low = TwoRayGroundPathLoss(tx_antenna_height_m=1.0, rx_antenna_height_m=1.0)
        high = TwoRayGroundPathLoss(tx_antenna_height_m=3.0, rx_antenna_height_m=3.0)
        d = 3.0 * high.crossover_distance_m
        assert float(high.loss_db(d)) < float(low.loss_db(d))


class TestHashedShadowing:
    def test_deterministic_and_reciprocal(self):
        model = HashedShadowing(seed=3)
        d = np.array([10.0, 55.0, 120.0])
        np.testing.assert_array_equal(model.loss_db(d), model.loss_db(d))

    def test_zero_sigma_equals_base(self):
        base = LogDistancePathLoss()
        model = HashedShadowing(base=base, sigma_db=0.0)
        d = np.linspace(1.0, 200.0, 50)
        np.testing.assert_allclose(model.loss_db(d), base.loss_db(d))

    def test_offsets_roughly_zero_mean(self):
        base = LogDistancePathLoss()
        model = HashedShadowing(base=base, sigma_db=4.0, bin_m=1.0, seed=1)
        d = np.linspace(1.0, 2000.0, 2000)
        offsets = model.loss_db(d) - base.loss_db(d)
        assert abs(float(np.mean(offsets))) < 0.5
        assert 2.0 < float(np.std(offsets)) < 6.0

    def test_different_seeds_differ(self):
        a = HashedShadowing(seed=1).loss_db(np.array([42.0]))
        b = HashedShadowing(seed=2).loss_db(np.array([42.0]))
        assert a != b


class TestBuildPathLoss:
    def test_default_is_log_distance(self):
        model = build_path_loss(RadioConfig())
        assert isinstance(model, LogDistancePathLoss)

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("friis", FriisPathLoss),
            ("two-ray", TwoRayGroundPathLoss),
            ("shadowed", HashedShadowing),
        ],
    )
    def test_selects_extension_models(self, kind, cls):
        model = build_path_loss(RadioConfig(propagation=kind))
        assert isinstance(model, cls)

    def test_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            RadioConfig(propagation="psychic")

    def test_simulation_runs_under_each_model(self):
        from repro.manet.aedb import AEDBParams
        from repro.manet.config import SimulationConfig
        from repro.manet.scenarios import make_scenarios
        from repro.manet.simulator import simulate_broadcast

        params = AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)
        results = {}
        for kind in ("log-distance", "friis", "two-ray", "shadowed"):
            sim = SimulationConfig(radio=RadioConfig(propagation=kind))
            scenario = make_scenarios(
                100, n_networks=1, n_nodes=12, sim=sim, master_seed=0x5EED
            )[0]
            m = simulate_broadcast(scenario, params)
            assert 0 <= m.coverage <= 11
            results[kind] = m
        # Friis reaches further than log-distance: coverage at least equal.
        assert results["friis"].coverage >= results["log-distance"].coverage
