"""Mobility models: bounds, determinism, epoch structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.manet.config import MobilityConfig
from repro.manet.mobility import RandomWalkMobility, StaticMobility


def make_walk(seed=0, n=10, horizon=40.0, **cfg_kwargs):
    cfg = MobilityConfig(**cfg_kwargs) if cfg_kwargs else MobilityConfig()
    return RandomWalkMobility(
        n_nodes=n, area_side_m=500.0, horizon_s=horizon, config=cfg, rng=seed
    )


class TestRandomWalk:
    @given(st.floats(0.0, 40.0))
    @settings(max_examples=40)
    def test_positions_in_bounds(self, t):
        walk = make_walk(seed=3)
        pos = walk.positions_at(t)
        assert pos.shape == (10, 2)
        assert np.all(pos >= 0.0) and np.all(pos <= 500.0)

    def test_deterministic_per_seed(self):
        a = make_walk(seed=42).positions_at(17.3)
        b = make_walk(seed=42).positions_at(17.3)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = make_walk(seed=1).positions_at(10.0)
        b = make_walk(seed=2).positions_at(10.0)
        assert not np.allclose(a, b)

    def test_speed_respected(self):
        walk = make_walk(seed=5, speed_min_mps=0.0, speed_max_mps=2.0)
        t0, t1 = 3.0, 3.5  # same epoch
        d = np.linalg.norm(walk.positions_at(t1) - walk.positions_at(t0), axis=1)
        # Reflection can only shorten apparent displacement.
        assert np.all(d <= 2.0 * (t1 - t0) + 1e-9)

    def test_zero_speed_is_static(self):
        walk = make_walk(seed=7, speed_min_mps=0.0, speed_max_mps=0.0)
        np.testing.assert_allclose(
            walk.positions_at(0.0), walk.positions_at(35.0)
        )

    def test_motion_is_linear_within_epoch(self):
        walk = make_walk(seed=11)
        # Pick interior times within one epoch away from walls.
        p0 = walk.positions_at(2.0)
        p1 = walk.positions_at(3.0)
        p2 = walk.positions_at(4.0)
        interior = np.all((p0 > 20) & (p0 < 480), axis=1)
        interior &= np.all((p2 > 20) & (p2 < 480), axis=1)
        if interior.any():
            np.testing.assert_allclose(
                (p1 - p0)[interior], (p2 - p1)[interior], atol=1e-9
            )

    def test_velocity_changes_between_epochs(self):
        walk = make_walk(seed=13)
        v_epoch0 = walk.velocities_at(5.0)
        v_epoch1 = walk.velocities_at(25.0)
        assert not np.allclose(v_epoch0, v_epoch1)

    def test_query_past_horizon_uses_last_epoch(self):
        walk = make_walk(seed=17, horizon=40.0)
        pos = walk.positions_at(45.0)  # clamped to last epoch's velocity
        assert np.all(pos >= 0.0) and np.all(pos <= 500.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            make_walk().positions_at(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": 0},
            {"area_side_m": -5.0},
            {"horizon_s": -1.0},
        ],
    )
    def test_rejects_bad_construction(self, kwargs):
        base = dict(n_nodes=5, area_side_m=500.0, horizon_s=40.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RandomWalkMobility(**base)


class TestStaticMobility:
    def test_positions_constant(self):
        pos = np.array([[1.0, 2.0], [3.0, 4.0]])
        static = StaticMobility(pos, area_side_m=500.0)
        np.testing.assert_array_equal(static.positions_at(0.0), pos)
        np.testing.assert_array_equal(static.positions_at(99.0), pos)

    def test_input_copied(self):
        pos = np.array([[1.0, 2.0]])
        static = StaticMobility(pos, area_side_m=500.0)
        pos[0, 0] = 123.0
        assert static.positions_at(0.0)[0, 0] == 1.0

    def test_returned_array_is_read_only(self):
        """Regression: positions_at used to hand out the internal
        mutable array — one caller write silently corrupted every later
        query (and any runtime built on the trace).  Writes must raise
        and the trace must stay intact."""
        static = StaticMobility(np.array([[1.0, 2.0]]), area_side_m=500.0)
        out = static.positions_at(0.0)
        with pytest.raises(ValueError):
            out[0, 0] = 999.0
        assert static.positions_at(5.0)[0, 0] == 1.0

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            StaticMobility(np.array([[600.0, 0.0]]), area_side_m=500.0)

    def test_position_of(self):
        pos = np.array([[1.0, 2.0], [3.0, 4.0]])
        static = StaticMobility(pos, area_side_m=500.0)
        np.testing.assert_array_equal(static.position_of(1, 0.0), [3.0, 4.0])
