"""Baseline broadcast protocols (storm schemes) on the one simulator."""

import numpy as np
import pytest

from repro.experiments.config import get_scale
from repro.manet.aedb import AEDBParams, AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.config import RadioConfig, SimulationConfig
from repro.manet.events import EventQueue
from repro.manet.mobility import StaticMobility
from repro.manet.protocols import (
    BroadcastProtocol,
    CounterBasedProtocol,
    DistanceBasedProtocol,
    FloodingProtocol,
    NodePhase,
    ProbabilisticProtocol,
    ProtocolContext,
    compare_protocols,
    simulate_protocol,
    standard_protocol_suite,
)
from repro.manet.protocols.compare import render_comparison
from repro.manet.runtime import ScenarioRuntime
from repro.manet.scenarios import NetworkScenario, make_scenarios
from repro.manet.simulator import BroadcastSimulator, simulate_broadcast


# --------------------------------------------------------------------- #
# helpers                                                               #
# --------------------------------------------------------------------- #
def make_ctx(positions, seed=0, mac_jitter_s=0.0):
    """Unit-level context: recorded transmissions, warm beacon tables."""
    sim = SimulationConfig()
    mobility = StaticMobility(np.asarray(positions, dtype=float), sim.area_side_m)
    n = len(positions)
    queue = EventQueue()
    tables = NeighborTables(n, sim, mobility)
    tables.beacon_round(0.0)
    transmissions = []

    def transmit(sender, power, t):
        transmissions.append((sender, power, t))

    ctx = ProtocolContext(
        n_nodes=n,
        queue=queue,
        tables=tables,
        radio=RadioConfig(),
        transmit=transmit,
        rng=np.random.default_rng(seed),
        mac_jitter_s=mac_jitter_s,
    )
    return ctx, queue, transmissions


#: A 5-node chain: 100 m spacing < ~151 m decode range < 200 m, so each
#: node only hears its direct neighbours.
LINE = [(50.0, 250.0), (150.0, 250.0), (250.0, 250.0), (350.0, 250.0), (450.0, 250.0)]


def line_scenario(n_nodes=5, source=0):
    return NetworkScenario(
        density_per_km2=100.0,
        network_index=0,
        n_nodes=n_nodes,
        mobility_seed=1,
        source=source,
    )


def run_on_line(factory, source=0):
    scenario = line_scenario(source=source)
    sim = BroadcastSimulator(
        scenario,
        factory,
        mobility=StaticMobility(np.asarray(LINE), scenario.sim.area_side_m),
    )
    metrics = sim.run()
    return metrics, sim.protocol


# --------------------------------------------------------------------- #
# base machinery                                                        #
# --------------------------------------------------------------------- #
class TestBase:
    def test_source_out_of_range(self):
        ctx, _, _ = make_ctx(LINE)
        proto = FloodingProtocol(ctx)
        with pytest.raises(ValueError):
            proto.start_broadcast(99, 0.0)

    def test_source_marked_forwarded(self):
        ctx, _, tx = make_ctx(LINE)
        proto = FloodingProtocol(ctx)
        proto.start_broadcast(2, 1.0)
        assert proto.phase[2] is NodePhase.FORWARDED
        assert proto.first_rx_time[2] == 1.0
        assert tx == [(2, ctx.radio.default_tx_power_dbm, 1.0)]

    def test_duplicates_after_decision_ignored(self):
        ctx, queue, tx = make_ctx(LINE)
        proto = ProbabilisticProtocol(ctx, forward_probability=0.0)
        proto.on_receive(1, 0, -80.0, 0.0)
        assert proto.phase[1] is NodePhase.DROPPED
        proto.on_receive(1, 2, -80.0, 0.1)
        queue.run_all()
        assert proto.phase[1] is NodePhase.DROPPED
        assert tx == []

    def test_decision_log_records_choices(self):
        ctx, queue, _ = make_ctx(LINE)
        proto = FloodingProtocol(ctx)
        proto.start_broadcast(0, 0.0)
        proto.on_receive(1, 0, -80.0, 0.0)
        queue.run_all()
        kinds = [what.split(":")[0] for _, _, what in proto.decisions]
        assert kinds == ["source", "arm", "forward"]

    def test_hooks_are_abstract(self):
        ctx, _, _ = make_ctx(LINE)
        proto = BroadcastProtocol(ctx)
        with pytest.raises(NotImplementedError):
            proto.on_receive(1, 0, -80.0, 0.0)

    def test_rejects_empty_network(self):
        ctx, _, _ = make_ctx(LINE)
        ctx.n_nodes = 0
        with pytest.raises(ValueError):
            FloodingProtocol(ctx)

    def test_draw_delay_handles_reversed_and_negative(self):
        ctx, _, _ = make_ctx(LINE)
        proto = FloodingProtocol(ctx)
        for _ in range(20):
            d = proto._draw_delay((0.5, 0.1))
            assert 0.1 <= d <= 0.5
        assert proto._draw_delay((-2.0, -1.0)) == 0.0

    def test_covered_and_forwarders(self):
        ctx, queue, _ = make_ctx(LINE)
        proto = FloodingProtocol(ctx)
        proto.start_broadcast(0, 0.0)
        proto.on_receive(1, 0, -80.0, 0.0)
        queue.run_all()
        assert list(proto.covered_nodes()) == [0, 1]
        assert list(proto.forwarder_nodes()) == [0, 1]


# --------------------------------------------------------------------- #
# flooding                                                              #
# --------------------------------------------------------------------- #
class TestFlooding:
    def test_chain_full_coverage_everyone_forwards(self):
        m, proto = run_on_line(lambda ctx: FloodingProtocol(ctx))
        assert m.coverage == 4
        assert m.forwardings == 4  # every non-source node retransmits once
        assert all(p is NodePhase.FORWARDED for p in proto.phase)

    def test_each_node_transmits_at_most_once(self):
        m, proto = run_on_line(lambda ctx: FloodingProtocol(ctx))
        # forwardings == number of non-source forwarders: no repeats.
        assert m.forwardings == len(proto.forwarder_nodes()) - 1

    def test_full_power_always(self):
        scenario = line_scenario()
        sim = BroadcastSimulator(
            scenario,
            lambda ctx: FloodingProtocol(ctx),
            mobility=StaticMobility(np.asarray(LINE), scenario.sim.area_side_m),
        )
        sim.run()
        powers = {f.tx_power_dbm for f in sim.medium.history}
        assert powers == {scenario.sim.radio.default_tx_power_dbm}

    def test_blind_flooding_collides_in_dense_network(self):
        # The storm: simultaneous retransmissions collide; jitter rescues.
        scens = make_scenarios(300, n_networks=2, master_seed=0xF00D)
        blind = [
            simulate_protocol(s, lambda ctx: FloodingProtocol(ctx)) for s in scens
        ]
        jit = [
            simulate_protocol(
                s, lambda ctx: FloodingProtocol(ctx, delay_interval_s=(0.0, 0.2))
            )
            for s in scens
        ]
        assert np.mean([m.coverage for m in jit]) > np.mean(
            [m.coverage for m in blind]
        )


# --------------------------------------------------------------------- #
# probabilistic                                                         #
# --------------------------------------------------------------------- #
class TestProbabilistic:
    def test_p_zero_nobody_forwards(self):
        m, _ = run_on_line(
            lambda ctx: ProbabilisticProtocol(ctx, forward_probability=0.0)
        )
        assert m.forwardings == 0
        assert m.coverage == 1  # only the source's direct neighbour

    def test_p_one_equals_jittered_flooding(self):
        m, _ = run_on_line(
            lambda ctx: ProbabilisticProtocol(ctx, forward_probability=1.0)
        )
        assert m.coverage == 4
        assert m.forwardings == 4

    def test_invalid_probability(self):
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError):
            ProbabilisticProtocol(ctx, forward_probability=1.5)
        with pytest.raises(ValueError):
            ProbabilisticProtocol(ctx, forward_probability=-0.1)

    def test_intermediate_p_thins_forwarders(self):
        scens = make_scenarios(300, n_networks=2, master_seed=0xCAFE)
        dense = [
            simulate_protocol(
                s,
                lambda ctx: ProbabilisticProtocol(
                    ctx, forward_probability=1.0, delay_interval_s=(0.0, 0.2)
                ),
            )
            for s in scens
        ]
        thin = [
            simulate_protocol(
                s,
                lambda ctx: ProbabilisticProtocol(
                    ctx, forward_probability=0.3, delay_interval_s=(0.0, 0.2)
                ),
            )
            for s in scens
        ]
        assert np.mean([m.forwardings for m in thin]) < np.mean(
            [m.forwardings for m in dense]
        )


# --------------------------------------------------------------------- #
# counter-based                                                         #
# --------------------------------------------------------------------- #
class TestCounterBased:
    def test_threshold_one_suppresses_everyone(self):
        # The first copy already reaches the counter: nobody forwards.
        m, _ = run_on_line(lambda ctx: CounterBasedProtocol(ctx, counter_threshold=1))
        assert m.forwardings == 0

    def test_huge_threshold_equals_flooding(self):
        m, _ = run_on_line(
            lambda ctx: CounterBasedProtocol(ctx, counter_threshold=1000)
        )
        assert m.coverage == 4
        assert m.forwardings == 4

    def test_invalid_threshold(self):
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError):
            CounterBasedProtocol(ctx, counter_threshold=0)

    def test_copies_heard_counts_after_decision(self):
        ctx, queue, tx = make_ctx(LINE)
        proto = CounterBasedProtocol(ctx, counter_threshold=1)
        proto.on_receive(1, 0, -80.0, 0.0)
        queue.run_all()
        assert proto.phase[1] is NodePhase.DROPPED
        proto.on_receive(1, 2, -80.0, 0.1)
        assert proto.phase[1] is NodePhase.DROPPED
        assert proto.copies_heard[1] == 2
        assert tx == []

    def test_counter_suppression_in_dense_cluster(self):
        # All nodes mutually in range: after the source frame everyone has
        # 1 copy; the first forwarder's frame raises everyone else to 2.
        cluster = [(240.0, 250.0), (250.0, 250.0), (260.0, 250.0), (250.0, 240.0)]
        scenario = NetworkScenario(
            density_per_km2=100.0,
            network_index=0,
            n_nodes=4,
            mobility_seed=1,
            source=0,
        )
        sim = BroadcastSimulator(
            scenario,
            lambda ctx: CounterBasedProtocol(
                ctx, counter_threshold=2, delay_interval_s=(0.01, 0.2)
            ),
            mobility=StaticMobility(np.asarray(cluster), scenario.sim.area_side_m),
        )
        m = sim.run()
        assert m.coverage == 3
        assert m.forwardings <= 1  # at most the fastest timer wins


# --------------------------------------------------------------------- #
# distance-based                                                        #
# --------------------------------------------------------------------- #
class TestDistanceBased:
    def test_wide_border_equals_flooding_on_chain(self):
        # -70 dBm border: neighbours at 100 m (rx ~ -90.7) are all outside
        # the suppression zone, so every receiver forwards.
        m, _ = run_on_line(
            lambda ctx: DistanceBasedProtocol(ctx, border_threshold_dbm=-70.0)
        )
        assert m.coverage == 4
        assert m.forwardings == 4

    def test_narrow_border_suppresses_chain(self):
        # -95 dBm border: a 100 m neighbour (rx ~ -90.7) is too close.
        m, _ = run_on_line(
            lambda ctx: DistanceBasedProtocol(ctx, border_threshold_dbm=-95.0)
        )
        assert m.forwardings == 0
        assert m.coverage == 1

    def test_duplicate_tightens_decision(self):
        ctx, queue, tx = make_ctx(LINE)
        proto = DistanceBasedProtocol(
            ctx, border_threshold_dbm=-85.0, delay_interval_s=(0.5, 0.5)
        )
        proto.on_receive(2, 0, -90.0, 0.0)  # far: candidate
        assert proto.phase[2] is NodePhase.WAITING
        proto.on_receive(2, 1, -80.0, 0.1)  # close duplicate
        queue.run_all()
        assert proto.phase[2] is NodePhase.DROPPED
        assert tx == []

    def test_border_monotonicity_on_random_networks(self):
        scens = make_scenarios(200, n_networks=2, master_seed=0xD15C)
        few = [
            simulate_protocol(
                s, lambda ctx: DistanceBasedProtocol(ctx, border_threshold_dbm=-94.0)
            )
            for s in scens
        ]
        many = [
            simulate_protocol(
                s, lambda ctx: DistanceBasedProtocol(ctx, border_threshold_dbm=-72.0)
            )
            for s in scens
        ]
        assert np.mean([m.forwardings for m in few]) <= np.mean(
            [m.forwardings for m in many]
        )


    def test_is_aedb_clamped_to_full_power(self, tiny_scenarios):
        # A margin far above the radio's range clamps AEDB's adaptive
        # power to full power: the two machines then agree exactly.
        runs = []
        for factory in (
            lambda ctx: DistanceBasedProtocol(ctx, -88.0, (0.05, 0.3)),
            lambda ctx: AEDBProtocol(ctx, AEDBParams(0.05, 0.3, -88.0, 1e3, 10.0)),
        ):
            sim = BroadcastSimulator(tiny_scenarios[0], factory)
            runs.append((sim.run(), sim.protocol.decisions))
        assert runs[0] == runs[1]
        assert any("border" in what for _, _, what in runs[0][1])


# --------------------------------------------------------------------- #
# non-finite scheme parameters                                          #
# --------------------------------------------------------------------- #
class TestNonFiniteParameters:
    """Every comparison with NaN is false and ``int(inf)`` overflows, so
    each scheme rejects a non-finite knob at construction, by name."""

    def test_nan_border_threshold(self):
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError, match="border_threshold_dbm is NaN"):
            DistanceBasedProtocol(ctx, border_threshold_dbm=float("nan"))

    @pytest.mark.parametrize(
        "window, shown", [((float("nan"), 0.1), "NaN"), ((0.0, float("inf")), "inf")]
    )
    @pytest.mark.parametrize(
        "scheme",
        [
            FloodingProtocol,
            ProbabilisticProtocol,
            CounterBasedProtocol,
            DistanceBasedProtocol,
        ],
    )
    def test_non_finite_delay_edge(self, scheme, window, shown):
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError, match=f"delay_interval_s is {shown}"):
            scheme(ctx, delay_interval_s=window)

    def test_infinite_counter_threshold(self):
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError, match="counter_threshold is inf"):
            CounterBasedProtocol(ctx, counter_threshold=float("inf"))

    @pytest.mark.parametrize("threshold", [2.5, 1.5, 3.0001])
    def test_fractional_counter_threshold(self, threshold):
        """``int()`` would run 2.5 as threshold 2: a different scheme."""
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError, match="counter_threshold must be a whole"):
            CounterBasedProtocol(ctx, counter_threshold=threshold)

    def test_integral_float_counter_threshold_accepted(self):
        ctx, _, _ = make_ctx(LINE)
        assert CounterBasedProtocol(ctx, counter_threshold=3.0).counter_threshold == 3

    @pytest.mark.parametrize(
        "threshold", [np.int64(2), np.float64(2.0)], ids=["int64", "float64"]
    )
    def test_numpy_whole_counter_threshold_stored_as_int(self, threshold):
        """A grid value arriving as a NumPy scalar runs as a plain int."""
        ctx, _, _ = make_ctx(LINE)
        protocol = CounterBasedProtocol(ctx, counter_threshold=threshold)
        assert type(protocol.counter_threshold) is int
        assert protocol.counter_threshold == 2

    @pytest.mark.parametrize(
        "threshold", [np.float64(2.5), 0.5], ids=["float64-2.5", "0.5"]
    )
    def test_fractional_counter_threshold_names_the_field(self, threshold):
        """Rejected whatever its type, and below 1 too, before the range
        check could report a misleading bound."""
        ctx, _, _ = make_ctx(LINE)
        with pytest.raises(ValueError, match="counter_threshold must be a whole"):
            CounterBasedProtocol(ctx, counter_threshold=threshold)


# --------------------------------------------------------------------- #
# factory-built protocols on BroadcastSimulator                         #
# --------------------------------------------------------------------- #
class TestRunner:
    def test_factory_built_aedb_matches_params_path(self, tiny_scenarios):
        # A factory-built AEDB runs the pure window on a fresh Generator;
        # AEDBParams take the tuning path (replay stream, kernel when
        # built).  The bytes agree.
        params = AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)
        for scenario in tiny_scenarios:
            factory = simulate_protocol(
                scenario, lambda ctx: AEDBProtocol(ctx, params)
            )
            tuned = simulate_broadcast(
                scenario, params, runtime=ScenarioRuntime(scenario)
            )
            assert factory == tuned

    def test_factory_runs_the_pure_path(self, tiny_scenarios):
        scenario = tiny_scenarios[0]
        sim = BroadcastSimulator(
            scenario,
            lambda ctx: FloodingProtocol(ctx),
            runtime=ScenarioRuntime(scenario),
        )
        assert not sim.compiled_active
        assert "not AEDB" in sim.compiled_reason
        assert isinstance(sim._protocol_rng, np.random.Generator)

    def test_deterministic(self, tiny_scenarios):
        factory = lambda ctx: CounterBasedProtocol(ctx, counter_threshold=3)
        a = simulate_protocol(tiny_scenarios[0], factory)
        b = simulate_protocol(tiny_scenarios[0], factory)
        assert a == b

    def test_single_use(self, tiny_scenarios):
        sim = BroadcastSimulator(tiny_scenarios[0], lambda ctx: FloodingProtocol(ctx))
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_factory_validation(self, tiny_scenarios):
        with pytest.raises(TypeError):
            BroadcastSimulator(tiny_scenarios[0], lambda ctx: object())

    def test_mobility_size_mismatch(self, tiny_scenarios):
        wrong = StaticMobility(np.zeros((3, 2)), 500.0)
        with pytest.raises(ValueError):
            BroadcastSimulator(
                tiny_scenarios[0], lambda ctx: FloodingProtocol(ctx), mobility=wrong
            )

    def test_metric_invariants(self, tiny_scenarios):
        for factory in (
            lambda ctx: FloodingProtocol(ctx, delay_interval_s=(0.0, 0.1)),
            lambda ctx: ProbabilisticProtocol(ctx, forward_probability=0.5),
            lambda ctx: CounterBasedProtocol(ctx, counter_threshold=2),
            lambda ctx: DistanceBasedProtocol(ctx),
        ):
            m = simulate_protocol(tiny_scenarios[0], factory)
            n = tiny_scenarios[0].n_nodes
            assert 0 <= m.coverage <= n - 1
            assert 0 <= m.forwardings <= n - 1
            assert m.broadcast_time_s >= 0.0
            max_power = tiny_scenarios[0].sim.radio.default_tx_power_dbm
            assert m.energy_dbm <= (m.forwardings + 1) * max_power + 1e-9


# --------------------------------------------------------------------- #
# comparison harness                                                    #
# --------------------------------------------------------------------- #
class TestStormClaims:
    """The Sect. I claims AEDB's design rests on, per paper density, at
    the quick preset's scale (3 networks, its master seed)."""

    @pytest.mark.parametrize("density", [100, 200, 300])
    def test_storm_comparison(self, density):
        scale = get_scale("quick")
        comparison = compare_protocols(
            standard_protocol_suite(),
            make_scenarios(
                density, n_networks=scale.n_networks,
                master_seed=scale.master_seed,
            ),
        )
        flooding = comparison.outcomes["flooding"]
        jittered = comparison.outcomes["flood+jit"]
        aedb = comparison.outcomes["AEDB"]
        distance = comparison.outcomes["distance"]

        # The storm: blind flooding loses coverage to its own collisions.
        assert flooding.reachability < jittered.reachability
        assert flooding.saved_rebroadcasts == pytest.approx(0.0, abs=1e-12)
        # Suppression buys large savings at near-full reach.
        assert distance.saved_rebroadcasts > 0.3
        assert aedb.saved_rebroadcasts > 0.3
        # Power adaptation: AEDB spends less energy per forwarding than
        # the fixed-power distance scheme.
        aedb_fwd = max(aedb.mean.forwardings, 1.0)
        dist_fwd = max(distance.mean.forwardings, 1.0)
        assert (
            aedb.mean.energy_dbm / aedb_fwd
            <= distance.mean.energy_dbm / dist_fwd + 1e-9
        )


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self, tiny_scenarios):
        return compare_protocols(standard_protocol_suite(), list(tiny_scenarios))

    def test_all_protocols_present(self, comparison):
        assert set(comparison.outcomes) == {
            "flooding",
            "flood+jit",
            "gossip",
            "counter",
            "distance",
            "AEDB",
        }

    def test_per_network_counts(self, comparison, tiny_scenarios):
        for outcome in comparison.outcomes.values():
            assert len(outcome.per_network) == len(tiny_scenarios)

    def test_flooding_has_zero_srb(self, comparison):
        # Every receiver retransmits: no rebroadcasts saved (receivers ==
        # forwarders, including the source on both sides).
        assert comparison.outcomes["flood+jit"].saved_rebroadcasts == pytest.approx(
            0.0, abs=1e-12
        )

    def test_suppression_schemes_save_rebroadcasts(self, comparison):
        base = comparison.outcomes["flood+jit"].saved_rebroadcasts
        for name in ("counter", "distance", "AEDB"):
            assert comparison.outcomes[name].saved_rebroadcasts >= base

    def test_srb_within_unit_interval(self, comparison):
        for outcome in comparison.outcomes.values():
            assert 0.0 <= outcome.saved_rebroadcasts <= 1.0
            assert 0.0 <= outcome.reachability <= 1.0

    def test_ranking_directions(self, comparison):
        by_reach = comparison.ranking("reachability")
        reaches = [comparison.outcomes[n].reachability for n in by_reach]
        assert reaches == sorted(reaches, reverse=True)
        by_energy = comparison.ranking("energy_dbm")
        energies = [comparison.outcomes[n].mean.energy_dbm for n in by_energy]
        assert energies == sorted(energies)

    def test_render_contains_all_rows(self, comparison):
        text = render_comparison(comparison)
        for name in comparison.outcomes:
            assert name in text

    def test_empty_inputs_rejected(self, tiny_scenarios):
        with pytest.raises(ValueError):
            compare_protocols({}, list(tiny_scenarios))
        with pytest.raises(ValueError):
            compare_protocols(standard_protocol_suite(), [])
