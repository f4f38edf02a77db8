"""End-to-end broadcast simulations."""

import numpy as np
import pytest

from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics, aggregate_metrics
from repro.manet.scenarios import make_scenarios
from repro.manet.simulator import BroadcastSimulator, simulate_broadcast


@pytest.fixture(scope="module")
def scenario():
    return make_scenarios(100, n_networks=1, n_nodes=15, master_seed=7)[0]


@pytest.fixture(scope="module")
def params():
    return AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)


class TestDeterminism:
    def test_same_inputs_same_metrics(self, scenario, params):
        a = simulate_broadcast(scenario, params)
        b = simulate_broadcast(scenario, params)
        assert a == b

    def test_different_params_usually_differ(self, scenario):
        a = simulate_broadcast(scenario, AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0))
        b = simulate_broadcast(scenario, AEDBParams(0.0, 0.5, -72.0, 1.0, 10.0))
        assert a != b

    def test_single_use(self, scenario, params):
        sim = BroadcastSimulator(scenario, params)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()


class TestMetricInvariants:
    def test_ranges(self, scenario, params):
        m = simulate_broadcast(scenario, params)
        assert 0 <= m.coverage <= scenario.n_nodes - 1
        assert 0 <= m.forwardings <= scenario.n_nodes - 1
        assert m.broadcast_time_s >= 0.0
        assert m.n_nodes == scenario.n_nodes

    def test_energy_bounded_by_transmissions(self, scenario, params):
        m = simulate_broadcast(scenario, params)
        max_power = scenario.sim.radio.default_tx_power_dbm
        assert m.energy_dbm <= (m.forwardings + 1) * max_power + 1e-9

    def test_broadcast_time_within_window(self, scenario, params):
        m = simulate_broadcast(scenario, params)
        assert m.broadcast_time_s <= scenario.sim.broadcast_window_s + 1e-9

    def test_coverage_counts_exclude_source(self, scenario, params):
        sim = BroadcastSimulator(scenario, params)
        m = sim.run()
        covered = sim.protocol.covered_nodes()
        assert m.coverage == len(covered) - 1  # source always covered


class TestParameterEffects:
    def test_long_delays_slow_broadcast(self, scenario):
        fast = simulate_broadcast(
            scenario, AEDBParams(0.0, 0.1, -90.0, 1.0, 10.0)
        )
        slow = simulate_broadcast(
            scenario, AEDBParams(1.0, 5.0, -90.0, 1.0, 10.0)
        )
        if fast.coverage > 1 and slow.coverage > 1:
            assert slow.broadcast_time_s > fast.broadcast_time_s

    def test_narrow_forwarding_area_reduces_forwardings(self, scenario):
        # border -95 dBm keeps only the ring [-96, -95] as candidates.
        narrow = simulate_broadcast(
            scenario, AEDBParams(0.0, 0.5, -95.0, 1.0, 10.0)
        )
        wide = simulate_broadcast(
            scenario, AEDBParams(0.0, 0.5, -85.0, 1.0, 10.0)
        )
        assert narrow.forwardings <= wide.forwardings


class TestAggregation:
    def test_aggregate_means(self):
        a = BroadcastMetrics(10, 100.0, 5, 1.0, n_nodes=15)
        b = BroadcastMetrics(14, 200.0, 7, 2.0, n_nodes=15)
        mean = aggregate_metrics([a, b])
        assert mean.coverage == 12
        assert mean.energy_dbm == 150.0
        assert mean.forwardings == 6
        assert mean.broadcast_time_s == 1.5
        assert mean.n_nodes == 15

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    @pytest.mark.parametrize("odd_one", [0, 1, 4])
    def test_aggregate_rejects_mixed_sizes(self, odd_one):
        samples = [BroadcastMetrics(1, 1.0, 1, 1.0, n_nodes=10)] * 5
        samples[odd_one] = BroadcastMetrics(1, 1.0, 1, 1.0, n_nodes=20)
        with pytest.raises(ValueError, match=r"mixed n_nodes.*\[10, 20\]"):
            aggregate_metrics(samples)

    @pytest.mark.parametrize(
        "scale", ["unit", "huge", "negative", "mixed", "signed-zero"]
    )
    def test_aggregate_is_bitwise_the_per_field_mean(self, scale):
        """The plain-float mean equals ``np.mean`` of each field's list,
        bit for bit, across numpy's 8-wide pairwise-sum unroll and its
        halving above 128 values."""
        rng = np.random.default_rng(
            ["unit", "huge", "negative", "mixed", "signed-zero"].index(scale)
        )
        for n in [*range(1, 34), 63, 64, 127, 128, 129, 136, 255, 257, 300]:
            if scale == "signed-zero":
                table = rng.choice([-0.0, 0.0, -1.5, 2.25], size=(n, 4))
                table[: n // 2] = -0.0
            elif scale == "unit":
                table = rng.random((n, 4))
            elif scale == "huge":
                table = rng.normal(size=(n, 4)) * 1e300
            elif scale == "negative":
                table = -rng.uniform(0.0, 1e17, size=(n, 4))
            else:
                table = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-12, 12, (n, 4))
            samples = [BroadcastMetrics(*row.tolist(), n_nodes=9) for row in table]
            expected = [
                float(np.mean([getattr(m, name) for m in samples])).hex()
                for name in ("coverage", "energy_dbm", "forwardings",
                             "broadcast_time_s")
            ]
            mean = aggregate_metrics(samples)
            assert [v.hex() for v in mean.as_tuple()] == expected, n
            assert mean.n_nodes == 9

    def test_coverage_ratio(self):
        m = BroadcastMetrics(7, 0.0, 0, 0.0, n_nodes=15)
        assert m.coverage_ratio == pytest.approx(0.5)
        assert BroadcastMetrics(0, 0, 0, 0, n_nodes=1).coverage_ratio == 0.0


class TestScenarios:
    def test_nodes_for_density(self):
        from repro.manet.scenarios import nodes_for_density

        assert nodes_for_density(100) == 25
        assert nodes_for_density(200) == 50
        assert nodes_for_density(300) == 75

    def test_scenarios_reproducible(self):
        a = make_scenarios(200, n_networks=3)
        b = make_scenarios(200, n_networks=3)
        assert a == b

    def test_networks_differ_within_set(self):
        scens = make_scenarios(200, n_networks=3)
        seeds = {s.mobility_seed for s in scens}
        assert len(seeds) == 3

    def test_node_count_override(self):
        scens = make_scenarios(300, n_networks=1, n_nodes=10)
        assert scens[0].n_nodes == 10
        assert scens[0].density_per_km2 == 300

    def test_rejects_bad_args(self):
        from repro.manet.scenarios import nodes_for_density

        with pytest.raises(ValueError):
            make_scenarios(100, n_networks=0)
        with pytest.raises(ValueError):
            nodes_for_density(-5)
