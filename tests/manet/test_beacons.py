"""Neighbour tables driven by beacon rounds."""

import numpy as np
import pytest

from repro.manet.beacons import NeighborTables, freshness_mask
from repro.manet.config import SimulationConfig
from repro.manet.mobility import StaticMobility
from repro.utils.units import DBM_MINUS_INF


def make_tables(positions, sim=None):
    sim = sim or SimulationConfig()
    mobility = StaticMobility(np.asarray(positions, dtype=float), sim.area_side_m)
    return NeighborTables(len(positions), sim, mobility), sim


class TestBeaconRound:
    def test_in_range_neighbors_learned(self):
        tables, _ = make_tables([[0, 0], [50, 0], [400, 0]])
        tables.beacon_round(0.0)
        assert set(tables.neighbors_of(0, 0.0)) == {1}
        assert set(tables.neighbors_of(1, 0.0)) == {0}
        assert set(tables.neighbors_of(2, 0.0)) == set()

    def test_no_self_entries(self):
        tables, _ = make_tables([[0, 0], [50, 0]])
        tables.beacon_round(0.0)
        assert not tables.live_mask(0, 0.0)[0]

    def test_rx_power_symmetric_for_static_nodes(self):
        tables, _ = make_tables([[0, 0], [80, 0]])
        tables.beacon_round(0.0)
        assert tables.beacon_rx_from(0, 1) == pytest.approx(
            tables.beacon_rx_from(1, 0)
        )

    def test_unheard_stays_sentinel(self):
        tables, _ = make_tables([[0, 0], [400, 0]])
        tables.beacon_round(0.0)
        assert tables.rx_power[0, 1] == DBM_MINUS_INF


class TestExpiry:
    def test_entry_expires(self):
        tables, sim = make_tables([[0, 0], [50, 0]])
        tables.beacon_round(0.0)
        assert tables.degree(0, sim.neighbor_expiry_s - 0.1) == 1
        assert tables.degree(0, sim.neighbor_expiry_s + 0.1) == 0

    def test_refresh_extends_lifetime(self):
        tables, sim = make_tables([[0, 0], [50, 0]])
        tables.beacon_round(0.0)
        tables.beacon_round(1.0)
        assert tables.degree(0, 1.0 + sim.neighbor_expiry_s - 0.1) == 1


class TestFreshnessPredicate:
    """Regression: the freshness predicate used to be duplicated between
    live_mask and mean_degree (and could drift in expiry/boundary
    semantics); all consumers now route through :func:`freshness_mask`,
    boundary inclusive."""

    def test_boundary_time_is_still_fresh(self):
        # An entry seen exactly ``expiry`` ago is live (<=, not <).
        assert bool(freshness_mask(1.0, 3.0, 2.0))
        assert not bool(freshness_mask(1.0, np.nextafter(3.0, 4.0), 2.0))

    def test_live_mask_and_mean_degree_agree_at_boundary(self):
        sim = SimulationConfig()
        tables, _ = make_tables([[0, 0], [50, 0]], sim=sim)
        tables.beacon_round(0.0)
        boundary = 0.0 + sim.neighbor_expiry_s
        assert tables.live_mask(0, boundary)[1]
        assert tables.degree(0, boundary) == 1
        assert tables.mean_degree(boundary) == pytest.approx(1.0)
        past = np.nextafter(boundary, boundary + 1.0)
        assert not tables.live_mask(0, past)[1]
        assert tables.degree(0, past) == 0
        assert tables.mean_degree(past) == 0.0


class TestLinkLoss:
    def test_loss_matches_model(self):
        tables, sim = make_tables([[0, 0], [100, 0]])
        tables.beacon_round(0.0)
        expected = 46.6777 + 30.0 * np.log10(100.0)
        assert tables.link_loss_db(0, 1) == pytest.approx(expected)

    def test_reciprocity_enables_power_estimation(self):
        tables, sim = make_tables([[0, 0], [100, 0]])
        tables.beacon_round(0.0)
        # Power needed so the neighbour hears us exactly at detection.
        needed = sim.radio.detection_threshold_dbm + tables.link_loss_db(0, 1)
        assert needed < sim.radio.default_tx_power_dbm


class TestSchedule:
    def test_run_schedule_counts_rounds(self):
        tables, _ = make_tables([[0, 0], [50, 0]])
        count = tables.run_schedule(0.0, 5.0)
        assert count == 6  # t = 0..5 inclusive at 1 Hz
        assert tables.rounds_run == 6

    def test_mean_degree(self):
        tables, _ = make_tables([[0, 0], [50, 0], [100, 0]])
        tables.beacon_round(0.0)
        # Chain topology: degrees 1, 2, 1 (ends hear middle; 0-2 at 100 m
        # are in range too with the 143 m radius) -> complete graph.
        assert tables.mean_degree(0.0) == pytest.approx(2.0)

    def test_rejects_bad_node_count(self):
        sim = SimulationConfig()
        mobility = StaticMobility(np.zeros((1, 2)), sim.area_side_m)
        with pytest.raises(ValueError):
            NeighborTables(0, sim, mobility)
