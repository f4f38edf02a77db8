"""AEDB protocol state machine (paper Fig. 1) and parameter vector."""

import numpy as np
import pytest

from repro.manet.aedb import AEDBParams, AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.broadcast import NodePhase, ProtocolContext
from repro.manet.config import RadioConfig, SimulationConfig
from repro.manet.events import EventQueue
from repro.manet.mobility import StaticMobility


class TestParams:
    def test_roundtrip(self):
        p = AEDBParams(0.1, 2.0, -85.0, 1.5, 20.0)
        q = AEDBParams.from_array(p.as_array())
        assert p == q

    def test_canonical_order(self):
        names = AEDBParams.names()
        assert names == (
            "min_delay_s",
            "max_delay_s",
            "border_threshold_dbm",
            "margin_threshold_db",
            "neighbors_threshold",
        )

    def test_bounds_match_table3(self):
        np.testing.assert_allclose(
            AEDBParams.lower_bounds(), [0.0, 0.0, -95.0, 0.0, 0.0]
        )
        np.testing.assert_allclose(
            AEDBParams.upper_bounds(), [1.0, 5.0, -70.0, 3.0, 50.0]
        )

    def test_clipped(self):
        p = AEDBParams(5.0, -1.0, -200.0, 10.0, 80.0).clipped()
        assert p.min_delay_s == 1.0
        assert p.max_delay_s == 0.0
        assert p.border_threshold_dbm == -95.0
        assert p.margin_threshold_db == 3.0
        assert p.neighbors_threshold == 50.0

    def test_delay_interval_orders_bounds(self):
        p = AEDBParams(min_delay_s=0.9, max_delay_s=0.2)
        assert p.delay_interval == (0.2, 0.9)

    def test_fields_are_declared_in_vector_order(self):
        # from_array and the tuning problem build AEDBParams positionally.
        from dataclasses import fields

        assert tuple(f.name for f in fields(AEDBParams)) == AEDBParams.names()

    def test_from_array_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            AEDBParams.from_array([1.0, 2.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("name", AEDBParams.names())
    def test_non_finite_field_rejected_naming_it(self, name, value):
        shown = "NaN" if np.isnan(value) else str(value)
        with pytest.raises(ValueError, match=f"{name} is {shown}$"):
            AEDBParams(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("name", AEDBParams.names())
    def test_from_array_rejects_non_finite_field_naming_it(self, name, value):
        shown = "NaN" if np.isnan(value) else str(value)
        vector = AEDBParams().as_array()
        vector[AEDBParams.names().index(name)] = value
        with pytest.raises(ValueError, match=f"{name} is {shown}$"):
            AEDBParams.from_array(vector)


def make_protocol(positions, params, seed=0):
    """Protocol over static nodes with warmed neighbour tables."""
    sim = SimulationConfig()
    radio = RadioConfig()
    mobility = StaticMobility(np.asarray(positions, dtype=float), sim.area_side_m)
    n = len(positions)
    queue = EventQueue()
    tables = NeighborTables(n, sim, mobility)
    tables.beacon_round(0.0)
    transmissions = []

    def transmit(sender, power, t):
        transmissions.append((sender, power, t))

    protocol = AEDBProtocol(
        ProtocolContext(
            n_nodes=n,
            queue=queue,
            tables=tables,
            radio=radio,
            transmit=transmit,
            rng=seed,
            mac_jitter_s=0.0,
        ),
        params,
    )
    return protocol, queue, transmissions, tables, radio


BASE = AEDBParams(
    min_delay_s=0.1,
    max_delay_s=0.1,  # deterministic delay
    border_threshold_dbm=-80.0,
    margin_threshold_db=1.0,
    neighbors_threshold=10.0,
)


class TestReceptionPath:
    def test_source_transmits_at_default_power(self):
        protocol, queue, tx, _, radio = make_protocol(
            [[0, 0], [50, 0]], BASE
        )
        protocol.start_broadcast(0, 0.0)
        assert tx == [(0, radio.default_tx_power_dbm, 0.0)]
        assert protocol.phase[0] is NodePhase.FORWARDED

    def test_close_node_drops_on_border(self):
        protocol, queue, tx, _, _ = make_protocol([[0, 0], [10, 0]], BASE)
        # At 10 m, rx ~= 16 - 76.7 = -60.7 dBm > -80 -> outside fwd area.
        protocol.on_receive(1, 0, -60.7, 0.0)
        assert protocol.phase[1] is NodePhase.DROPPED

    def test_far_node_arms_timer_and_forwards(self):
        protocol, queue, tx, _, _ = make_protocol([[0, 0], [120, 0]], BASE)
        # At 120 m, rx ~= -93 dBm < -80 -> candidate.
        protocol.on_receive(1, 0, -93.0, 0.0)
        assert protocol.phase[1] is NodePhase.WAITING
        queue.run_until(1.0)
        assert protocol.phase[1] is NodePhase.FORWARDED
        assert len(tx) == 1 and tx[0][0] == 1
        assert tx[0][2] == pytest.approx(0.1)  # the deterministic delay

    def test_duplicate_from_close_transmitter_cancels(self):
        protocol, queue, tx, _, _ = make_protocol(
            [[0, 0], [120, 0], [130, 0]], BASE
        )
        protocol.on_receive(1, 0, -93.0, 0.0)  # arms timer
        protocol.on_receive(1, 2, -60.0, 0.05)  # close copy while waiting
        queue.run_until(1.0)
        assert protocol.phase[1] is NodePhase.DROPPED
        assert tx == []

    def test_duplicate_from_far_transmitter_does_not_cancel(self):
        protocol, queue, tx, _, _ = make_protocol(
            [[0, 0], [120, 0], [130, 0]], BASE
        )
        protocol.on_receive(1, 0, -93.0, 0.0)
        protocol.on_receive(1, 2, -94.0, 0.05)  # weaker copy
        queue.run_until(1.0)
        assert protocol.phase[1] is NodePhase.FORWARDED

    def test_duplicates_after_decision_ignored(self):
        protocol, queue, tx, _, _ = make_protocol([[0, 0], [10, 0]], BASE)
        protocol.on_receive(1, 0, -60.0, 0.0)
        protocol.on_receive(1, 0, -60.0, 0.1)
        assert protocol.phase[1] is NodePhase.DROPPED

    def test_first_rx_time_recorded_once(self):
        protocol, queue, _, _, _ = make_protocol([[0, 0], [120, 0]], BASE)
        protocol.on_receive(1, 0, -93.0, 0.3)
        protocol.on_receive(1, 0, -92.0, 0.4)
        assert protocol.first_rx_time[1] == pytest.approx(0.3)


class TestPowerSelection:
    def test_sparse_reaches_furthest_excluding_heard(self):
        # Node 1 has neighbours 0 (the sender, 120 m) and 2 (100 m).
        positions = [[0, 0], [120, 0], [220, 0]]
        protocol, queue, tx, tables, radio = make_protocol(positions, BASE)
        protocol.on_receive(1, 0, -93.0, 0.0)
        queue.run_until(1.0)
        assert len(tx) == 1
        power = tx[0][1]
        # Expected: reach node 2 at 100 m with margin 1 dB.
        expected = (
            radio.detection_threshold_dbm
            + tables.link_loss_db(1, 2)
            + BASE.margin_threshold_db
        )
        assert power == pytest.approx(expected)

    def test_dense_shrinks_to_closest_potential_forwarder(self):
        # Node 1 at origin; far neighbours beyond the forwarding border
        # (> ~97 m for -80 dBm) and neighbors_threshold=0 forces the
        # dense branch: power targets the *closest* potential forwarder.
        positions = [[0, 0], [120, 0], [230, 0], [10, 120]]
        params = AEDBParams(
            min_delay_s=0.1,
            max_delay_s=0.1,
            border_threshold_dbm=-80.0,
            margin_threshold_db=0.0,
            neighbors_threshold=0.0,
        )
        protocol, queue, tx, tables, radio = make_protocol(positions, params)
        protocol.on_receive(1, 0, -93.0, 0.0)
        queue.run_until(1.0)
        assert len(tx) == 1
        # Potential forwarders of node 1: nodes whose beacons arrive below
        # -80 dBm at node 1 -> node 2 (110 m) and node 3 (~175 m); the
        # closest is node 2.
        expected = radio.detection_threshold_dbm + tables.link_loss_db(1, 2)
        assert tx[0][1] == pytest.approx(expected)

    def test_no_neighbors_falls_back_to_default_power(self):
        positions = [[0, 0], [120, 0]]
        protocol, queue, tx, tables, radio = make_protocol(positions, BASE)
        # Wipe node 1's table: no live neighbours besides the heard sender.
        tables.last_seen[:] = -np.inf
        protocol.on_receive(1, 0, -93.0, 0.0)
        queue.run_until(1.0)
        assert tx[0][1] == pytest.approx(radio.default_tx_power_dbm)

    def test_power_never_exceeds_default(self):
        positions = [[0, 0], [120, 0], [258, 0]]
        params = AEDBParams(
            min_delay_s=0.1,
            max_delay_s=0.1,
            border_threshold_dbm=-80.0,
            margin_threshold_db=3.0,
            neighbors_threshold=50.0,
        )
        protocol, queue, tx, _, radio = make_protocol(positions, params)
        protocol.on_receive(1, 0, -93.0, 0.0)
        queue.run_until(1.0)
        assert tx[0][1] <= radio.default_tx_power_dbm + 1e-9


class TestIntrospection:
    def test_covered_and_forwarders(self):
        protocol, queue, _, _, _ = make_protocol(
            [[0, 0], [120, 0], [10, 0]], BASE
        )
        protocol.start_broadcast(0, 0.0)
        protocol.on_receive(1, 0, -93.0, 0.0)
        protocol.on_receive(2, 0, -60.0, 0.0)
        queue.run_until(1.0)
        assert set(protocol.covered_nodes()) == {0, 1, 2}
        assert set(protocol.forwarder_nodes()) == {0, 1}

    def test_bad_source_rejected(self):
        protocol, _, _, _, _ = make_protocol([[0, 0], [50, 0]], BASE)
        with pytest.raises(ValueError):
            protocol.start_broadcast(7, 0.0)
