"""ScenarioRuntime: bit-identical substrate caching.

The whole value of the runtime cache rests on one invariant (DESIGN.md
§8): consuming a precomputed runtime must leave every
``BroadcastMetrics`` *bit-identical* to the recompute path, for any
``(scenario, params, seed)``.  These tests sweep the invariant across
densities, mobility models and propagation models, and check that a
shared runtime is never contaminated by the evaluations that use it.
"""

import hashlib

import numpy as np
import pytest

from repro.manet import (
    AEDBParams,
    ScenarioRuntime,
    clear_runtime_cache,
    get_runtime,
    make_scenarios,
    runtime_cache_size,
    set_runtime_memoisation,
)
from repro.manet.beacons import NeighborTables
from repro.manet.config import RadioConfig, SimulationConfig
from repro.manet.runtime import beacon_grid
from repro.manet.scenarios import MOBILITY_MODELS
from repro.manet.simulator import BroadcastSimulator

PARAM_SETS = [
    AEDBParams(),
    AEDBParams(
        min_delay_s=0.1,
        max_delay_s=0.4,
        border_threshold_dbm=-78.0,
        margin_threshold_db=0.3,
        neighbors_threshold=3.0,
    ),
    AEDBParams(
        min_delay_s=0.9,
        max_delay_s=4.5,
        border_threshold_dbm=-95.0,
        margin_threshold_db=3.0,
        neighbors_threshold=45.0,
    ),
]


def run_both(scenario, params, runtime):
    """(metrics without runtime, metrics with runtime)."""
    plain = BroadcastSimulator(scenario, params).run()
    cached = BroadcastSimulator(scenario, params, runtime=runtime).run()
    return plain, cached


class TestBitIdenticalMetrics:
    @pytest.mark.parametrize("density", [100, 200, 300])
    def test_across_densities(self, density):
        scenario = make_scenarios(density, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        for params in PARAM_SETS:
            plain, cached = run_both(scenario, params, runtime)
            assert plain == cached

    @pytest.mark.parametrize("mobility_model", MOBILITY_MODELS)
    def test_across_mobility_models(self, mobility_model):
        scenario = make_scenarios(
            200, n_networks=1, mobility_model=mobility_model
        )[0]
        runtime = ScenarioRuntime(scenario)
        for params in PARAM_SETS:
            plain, cached = run_both(scenario, params, runtime)
            assert plain == cached

    @pytest.mark.parametrize(
        "propagation", ["log-distance", "friis", "two-ray", "shadowed"]
    )
    def test_across_propagation_models(self, propagation):
        sim = SimulationConfig(radio=RadioConfig(propagation=propagation))
        scenario = make_scenarios(200, n_networks=1, sim=sim)[0]
        runtime = ScenarioRuntime(scenario)
        for params in PARAM_SETS:
            plain, cached = run_both(scenario, params, runtime)
            assert plain == cached

    def test_off_grid_warmup_and_subsecond_interval(self):
        # Warm-up not a multiple of the interval: warm rounds sit on the
        # absolute grid, window rounds restart at warmup_s — the runtime
        # must reproduce exactly that composite schedule.
        sim = SimulationConfig(warmup_s=30.5, beacon_interval_s=0.5)
        scenario = make_scenarios(100, n_networks=1, sim=sim)[0]
        runtime = ScenarioRuntime(scenario)
        plain, cached = run_both(scenario, AEDBParams(), runtime)
        assert plain == cached

    def test_protocol_runner_with_runtime(self):
        from repro.manet.protocols import FloodingProtocol, simulate_protocol

        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        plain = simulate_protocol(scenario, FloodingProtocol)
        cached = simulate_protocol(scenario, FloodingProtocol, runtime=runtime)
        assert plain == cached


class TestVectorisedWarmPath:
    """The runtime-backed warm path: frames resolved off the runtime's
    memoised positions and tables restored from its snapshots must match
    the recompute path bit for bit — metrics AND decision logs — under
    collisions and after the tables leave the canonical timeline."""

    def test_colliding_frames_are_bit_identical(self):
        """Near-zero delays force overlapping frames, exercising the
        stacked interference computation of ``RadioMedium._resolve``."""
        scenario = make_scenarios(300, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        params = AEDBParams(0.0, 0.05, -70.0, 0.0, 0.0)
        ref = BroadcastSimulator(scenario, params, record_decisions=True)
        expected = ref.run()
        sim = BroadcastSimulator(
            scenario, params, runtime=runtime, record_decisions=True
        )
        assert sim.run() == expected
        assert sim.protocol.decisions == ref.protocol.decisions

    def test_off_grid_round_disables_the_index(self):
        """After the timeline diverges, the tables stop restoring
        snapshots and must match a runtime-less table exactly."""
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        mobility = scenario.build_mobility()
        with_rt = NeighborTables(
            scenario.n_nodes, scenario.sim, mobility, runtime=runtime
        )
        without_rt = NeighborTables(scenario.n_nodes, scenario.sim, mobility)
        t0 = runtime.beacon_times[0]
        for t in (t0, t0 + 0.4):  # canonical restore, then off-grid
            with_rt.beacon_round(t)
            without_rt.beacon_round(t)
        for q in (t0 + 0.5, t0 + 1.7, t0 + 9.0):
            for i in range(0, scenario.n_nodes, 7):
                np.testing.assert_array_equal(
                    with_rt.live_mask(i, q), without_rt.live_mask(i, q)
                )
            assert with_rt.mean_degree(q) == without_rt.mean_degree(q)

    def test_queries_before_the_tick_fall_back_to_the_scan(self):
        """A query looking *before* the current snapshot's tick must
        see the same freshness as a runtime-less table."""
        scenario = make_scenarios(100, n_networks=1, n_nodes=10)[0]
        runtime = ScenarioRuntime(scenario)
        tables = NeighborTables(10, scenario.sim, runtime.mobility, runtime=runtime)
        scanned = NeighborTables(10, scenario.sim, runtime.mobility)
        # Replay several ticks so old last_seen values exist.
        for t in runtime.beacon_times[:5]:
            tables.beacon_round(t)
            scanned.beacon_round(t)
        t_query = runtime.beacon_times[0]  # before the current tick
        for i in range(10):
            np.testing.assert_array_equal(
                tables.live_mask(i, t_query), scanned.live_mask(i, t_query)
            )


class TestRuntimeSharing:
    def test_reuse_does_not_contaminate(self):
        """Two evaluations through one runtime don't see each other."""
        scenario = make_scenarios(200, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        reference = [
            BroadcastSimulator(scenario, p).run() for p in PARAM_SETS
        ]
        # Interleave evaluations of all parameter sets through the shared
        # runtime, twice; every result must match the isolated reference.
        for _ in range(2):
            for params, expected in zip(PARAM_SETS, reference):
                got = BroadcastSimulator(
                    scenario, params, runtime=runtime
                ).run()
                assert got == expected

    def test_snapshots_are_read_only(self):
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        t = runtime.beacon_times[0]
        rx, seen = runtime.table_snapshot(t)
        with pytest.raises(ValueError):
            rx[0, 0] = 0.0
        with pytest.raises(ValueError):
            seen[0, 0] = 0.0
        positions = runtime.positions_at(t)
        with pytest.raises(ValueError):
            positions[0, 0] = 0.0

    def test_off_grid_round_copies_before_writing(self):
        """A beacon round off the precomputed grid must not corrupt the
        shared snapshots (copy-on-write off the read-only arrays)."""
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        t = runtime.beacon_times[-1]
        snap_rx = runtime.table_snapshot(t)[0].copy()

        tables = NeighborTables(
            scenario.n_nodes, scenario.sim, runtime.mobility, runtime=runtime
        )
        tables.beacon_round(t)  # restore (read-only reference)
        tables.beacon_round(t + 0.25)  # off-grid: incremental update
        assert tables.rx_power.flags.writeable
        np.testing.assert_array_equal(runtime.table_snapshot(t)[0], snap_rx)

    def test_off_grid_round_leaves_canonical_timeline(self):
        """Once an off-grid round ran, later grid rounds must NOT
        restore snapshots (that would discard the off-grid state) — the
        state sequence must match the runtime-less path exactly."""
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        mobility = scenario.build_mobility()
        t0, t1 = runtime.beacon_times[0], runtime.beacon_times[1]

        with_rt = NeighborTables(
            scenario.n_nodes, scenario.sim, mobility, runtime=runtime
        )
        without_rt = NeighborTables(scenario.n_nodes, scenario.sim, mobility)
        for t in (t0, t0 + 0.4, t1):
            with_rt.beacon_round(t)
            without_rt.beacon_round(t)
        np.testing.assert_array_equal(with_rt.rx_power, without_rt.rx_power)
        np.testing.assert_array_equal(with_rt.last_seen, without_rt.last_seen)

    def test_skipped_grid_tick_diverges_from_snapshots(self):
        """Restores are valid only for an in-order replay from the
        start: jumping straight to a later grid tick must behave like
        the runtime-less path (one round on pristine tables), not
        restore the cumulative snapshot."""
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        mobility = scenario.build_mobility()
        t_late = runtime.beacon_times[3]

        with_rt = NeighborTables(
            scenario.n_nodes, scenario.sim, mobility, runtime=runtime
        )
        without_rt = NeighborTables(scenario.n_nodes, scenario.sim, mobility)
        with_rt.beacon_round(t_late)
        without_rt.beacon_round(t_late)
        np.testing.assert_array_equal(with_rt.rx_power, without_rt.rx_power)
        np.testing.assert_array_equal(with_rt.last_seen, without_rt.last_seen)

    def test_tables_reject_foreign_mobility(self):
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        other_trace = scenario._materialise_mobility()
        with pytest.raises(ValueError, match="mobility conflicts"):
            NeighborTables(
                scenario.n_nodes, scenario.sim, other_trace, runtime=runtime
            )

    def test_medium_rejects_mismatched_radio_or_mobility(self):
        from repro.manet.config import RadioConfig
        from repro.manet.events import EventQueue
        from repro.manet.medium import RadioMedium

        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        queue = EventQueue()
        with pytest.raises(ValueError, match="radio config conflicts"):
            RadioMedium(
                queue, runtime.mobility, RadioConfig(path_loss_exponent=2.0),
                lambda *a: None, runtime=runtime,
            )
        other_trace = scenario._materialise_mobility()
        with pytest.raises(ValueError, match="mobility conflicts"):
            RadioMedium(
                queue, other_trace, scenario.sim.radio,
                lambda *a: None, runtime=runtime,
            )

    @pytest.mark.parametrize(
        "mobility_model, sim",
        [(model, None) for model in MOBILITY_MODELS]
        + [("gauss-markov",
            SimulationConfig(warmup_s=30.5, beacon_interval_s=0.7))],
        ids=[*MOBILITY_MODELS, "off-grid-warmup"],
    )
    def test_snapshot_matches_incremental_tables(self, mobility_model, sim):
        """Each stored snapshot equals the live incremental state."""
        scenario = make_scenarios(
            100, n_networks=1, sim=sim, mobility_model=mobility_model
        )[0]
        runtime = ScenarioRuntime(scenario)
        mobility = scenario.build_mobility()
        tables = NeighborTables(scenario.n_nodes, scenario.sim, mobility)
        for t in runtime.beacon_times:
            tables.beacon_round(t)
            rx, seen = runtime.table_snapshot(t)
            np.testing.assert_array_equal(tables.rx_power, rx)
            np.testing.assert_array_equal(tables.last_seen, seen)

    def test_rejects_foreign_scenario(self):
        a, b = make_scenarios(100, n_networks=2)
        runtime = ScenarioRuntime(a)
        with pytest.raises(ValueError, match="different scenario"):
            BroadcastSimulator(b, AEDBParams(), runtime=runtime)

    def test_explicit_protocol_seed_bypasses_stream_replay(self):
        """An explicit protocol_seed must behave identically with and
        without a runtime (the replayed stream only covers the default
        seed)."""
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        for seed in (0, 1234):
            plain = BroadcastSimulator(
                scenario, AEDBParams(), protocol_seed=seed
            ).run()
            cached = BroadcastSimulator(
                scenario, AEDBParams(), protocol_seed=seed, runtime=runtime
            ).run()
            assert plain == cached


class TestSnapshotPins:
    """The table timeline's bytes, recorded before the build was reworked.

    One sha256 per ``(propagation, density, mobility model)`` over every
    snapshot of the canonical grid (tick as ``float.hex``, then the
    ``rx_power`` and ``last_seen`` bytes).  Any change to distances,
    path loss or the masked update moves a digest.
    """

    DIGESTS = {
    "log-distance-100-random-walk": "f9d049a38d9e539e3a0f7f516603aebdced5e944b1f8e2eda7560350693214ba",
    "log-distance-100-random-waypoint": "4b09684aee78c0af3a84eb79c48beabecea80fd6c7f1c67e1adb8426361c3007",
    "log-distance-100-gauss-markov": "45d3d5ff188397c608b45fd7e5404a2b340f955d31439f532bf4f77f63318cc5",
    "log-distance-100-random-direction": "9bb6b18d463d133c1ed2f4ec226fd65042f2f2f91b371e92d5dbdacaa9df3af6",
    "log-distance-200-random-walk": "540f8608ee5cfbe3bdfc8dd3cc55e84273e9b0003e5cd5d33646b4b02f54d163",
    "log-distance-200-random-waypoint": "214fea51fc8eb801a90778edf88dd5fa76f94105616c7ddf824359bad792fb05",
    "log-distance-200-gauss-markov": "5bded2ea8f7dfc4ca0a4e93861fec449b933d2d5121079cef40971daeb95223a",
    "log-distance-200-random-direction": "2d3400bd2f215a6aeec255ae93a37e612f92519813797c2d0627b038916c2995",
    "log-distance-300-random-walk": "ba257d9839e2331809195e72605b3f3d92166ace5ec8d793ee3ffa7cab7da30d",
    "log-distance-300-random-waypoint": "e9b999f0c2e3a09828a00bd07cae7d2b291b6e26463a58eff28f1ea7fe800569",
    "log-distance-300-gauss-markov": "069759bda7f5f38a72d0a0bb9e891acfbce19b162745dd1888c8d463055824b2",
    "log-distance-300-random-direction": "cafacfd9875fe58520df294bd12af73d1d0504600d18b54fa5dba748ef73a1c2",
    "two-ray-100-random-walk": "fd10124e82938264e6571f0731e1ba478d855052dd55a5e3fe951b86f770e280",
    "two-ray-100-random-waypoint": "38379e7f8acf23914f8de6490d00902a1d2b16b905a1bdb7e138f95fdb7fbb54",
    "two-ray-100-gauss-markov": "9edc9c4d526502da3f3e948ed3cdaf0177114fe41e753187b3f03822341a4199",
    "two-ray-100-random-direction": "c26ffd182421c381da3bba24148fa7438c6ffbedcdb12bd3c3c196655e3890a1",
    "two-ray-200-random-walk": "cd62f2616354861a577d6dad8d5d6079d7ae688d7badec18b30d3c1c95c38bd4",
    "two-ray-200-random-waypoint": "9c847aa3db6b773159aea19940432dfc4cccfb375a34dbdc8a75ed6da745e291",
    "two-ray-200-gauss-markov": "b5277d4566f03ece8af00c1ae8a89a25f36ed36c60c1efbedf7a9ee3ac058653",
    "two-ray-200-random-direction": "a5d6a2bfecd0fb6dc5d4784ad475396dbd7aa789296034558c73587373aef05a",
    "two-ray-300-random-walk": "041ed38551d98a63a3b6bfac3c2ff69c03d32fb88f3287115f35227f707b99a5",
    "two-ray-300-random-waypoint": "cc0f9e85738d5df5d9391eed348e8a8408a15c4c7f32c7f5c79cb75cc4747dcd",
    "two-ray-300-gauss-markov": "173333a026b3db05d86980c0cdeadc7aeb36f8eb28acb787e2155d4d241dca88",
    "two-ray-300-random-direction": "c248a3f7fd70eb49abc715b5b2a586d856561f4d20f0781706231468bbdd9d9c",
    }

    @pytest.mark.parametrize("propagation", ["log-distance", "two-ray"])
    @pytest.mark.parametrize("density", [100, 200, 300])
    @pytest.mark.parametrize("mobility_model", MOBILITY_MODELS)
    def test_snapshot_bytes_are_pinned(
        self, propagation, density, mobility_model
    ):
        sim = SimulationConfig(radio=RadioConfig(propagation=propagation))
        scenario = make_scenarios(
            density, n_networks=1, sim=sim, mobility_model=mobility_model
        )[0]
        runtime = ScenarioRuntime(scenario)
        digest = hashlib.sha256()
        for t in runtime.beacon_times:
            rx, seen = runtime.table_snapshot(t)
            digest.update(float(t).hex().encode())
            digest.update(rx.tobytes())
            digest.update(seen.tobytes())
        key = f"{propagation}-{density}-{mobility_model}"
        assert digest.hexdigest() == self.DIGESTS[key]


class TestUniformStream:
    def test_replay_matches_generator_exactly(self):
        from repro.manet.runtime import UniformStream

        rng = np.random.default_rng(77)
        stream = UniformStream(np.random.default_rng(77).random(64).tolist())
        bounds = [(0.0, 1.0), (0.25, 0.25), (0.1, 4.5), (0.0, 5e-4)]
        for k in range(64):
            lo, hi = bounds[k % len(bounds)]
            assert stream.uniform(lo, hi) == rng.uniform(lo, hi)

    def test_each_stream_has_its_own_cursor(self):
        scenario = make_scenarios(100, n_networks=1)[0]
        runtime = ScenarioRuntime(scenario)
        a = runtime.protocol_uniform_stream()
        b = runtime.protocol_uniform_stream()
        first = a.uniform(0.0, 1.0)
        assert b.uniform(0.0, 1.0) == first

    def test_exhaustion_raises(self):
        from repro.manet.runtime import UniformStream

        stream = UniformStream([0.5])
        stream.uniform()
        with pytest.raises(IndexError):
            stream.uniform()


class TestGetRuntime:
    """The per-process memo is the one place runtimes come from (the
    inline backend, the evaluators, and each campaign pool worker)."""

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_memo_runtime_matches_recompute_and_private(self, params):
        """memoised == private runtime == no runtime at all."""
        scenario = make_scenarios(200, n_networks=1)[0]
        plain, via_memo = run_both(scenario, params, get_runtime(scenario))
        via_private = BroadcastSimulator(
            scenario, params, runtime=ScenarioRuntime(scenario)
        ).run()
        assert plain == via_memo == via_private

    def test_memo_snapshots_equal_a_private_build_and_are_read_only(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=10)[0]
        private = ScenarioRuntime(scenario)
        memo = get_runtime(scenario)
        assert memo is not private
        for t in private.beacon_times:
            rx_p, seen_p = private.table_snapshot(t)
            rx_m, seen_m = memo.table_snapshot(t)
            np.testing.assert_array_equal(rx_p, rx_m)
            np.testing.assert_array_equal(seen_p, seen_m)
            with pytest.raises(ValueError):
                rx_m[0, 0] = 0.0
            with pytest.raises(ValueError):
                seen_m[0, 0] = 0.0
        a = memo.protocol_uniform_stream()
        b = private.protocol_uniform_stream()
        for _ in range(2 * scenario.n_nodes):
            assert a.uniform(0.1, 4.5) == b.uniform(0.1, 4.5)

    def test_memo_returns_one_runtime_per_scenario(self):
        clear_runtime_cache()
        a, b = make_scenarios(100, n_networks=2, n_nodes=8)
        assert get_runtime(a) is get_runtime(a)
        assert get_runtime(a) is not get_runtime(b)
        assert runtime_cache_size() == 2

    def test_repeat_lookup_hits_by_identity(self, monkeypatch):
        """A scenario object's repeat lookup neither hashes nor compares
        it; an equal copy pays one value lookup, then hits by identity,
        and the simulator's own scenario check passes by identity too."""
        from dataclasses import replace

        from repro.manet.scenarios import NetworkScenario

        clear_runtime_cache()
        scenario = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        runtime = get_runtime(scenario)
        calls = {"hash": 0, "eq": 0}
        hash_, eq = NetworkScenario.__hash__, NetworkScenario.__eq__

        def counting_hash(self):
            calls["hash"] += 1
            return hash_(self)

        def counting_eq(self, other):
            calls["eq"] += 1
            return eq(self, other)

        monkeypatch.setattr(NetworkScenario, "__hash__", counting_hash)
        monkeypatch.setattr(NetworkScenario, "__eq__", counting_eq)
        for _ in range(3):
            assert get_runtime(scenario) is runtime
        assert calls == {"hash": 0, "eq": 0}

        copy = replace(scenario)
        assert copy is not scenario and copy == scenario
        calls.update(hash=0, eq=0)
        assert get_runtime(copy) is runtime
        assert calls["hash"] > 0
        calls.update(hash=0, eq=0)
        assert get_runtime(copy) is runtime
        BroadcastSimulator(copy, PARAM_SETS[0], runtime=runtime).run()
        assert calls == {"hash": 0, "eq": 0}
        # The first object still hits by value: same runtime.
        assert get_runtime(scenario) is runtime
        assert runtime_cache_size() == 1

    def test_value_hit_keeps_lru_order(self):
        """A hit through an equal copy counts as a use: the entry moves
        to the recent end, so the other one is evicted first."""
        from dataclasses import replace

        from repro.manet import runtime as runtime_mod

        clear_runtime_cache()
        a, b, c = make_scenarios(100, n_networks=3, n_nodes=4)
        old_max = runtime_mod._MEMO_MAX_ENTRIES
        runtime_mod._MEMO_MAX_ENTRIES = 2
        try:
            first = get_runtime(a)
            get_runtime(b)
            assert get_runtime(replace(a)) is first
            get_runtime(c)  # evicts b, the least recently used
            assert runtime_cache_size() == 2
            assert get_runtime(a) is first
            assert runtime_cache_size() == 2
        finally:
            runtime_mod._MEMO_MAX_ENTRIES = old_max
            clear_runtime_cache()


class TestEvaluatorIntegration:
    def test_serial_evaluator_uses_shared_runtimes(self):
        from repro.tuning import NetworkSetEvaluator

        clear_runtime_cache()
        evaluator = NetworkSetEvaluator.for_density(100, n_networks=3)
        first = evaluator.evaluate(PARAM_SETS[0])
        assert runtime_cache_size() == 3
        # Warm evaluations reuse the runtimes and stay deterministic.
        again = evaluator.evaluate(PARAM_SETS[0])
        assert first == again

    @staticmethod
    def _count_builds_and_rounds(monkeypatch):
        """Count ``ScenarioRuntime`` builds and computed beacon rounds.

        A computed round is one that builds a distance matrix; a round
        restored from a snapshot does not.
        """
        from repro.manet import beacons

        builds: list[int] = []
        rounds: list[int] = []
        real_init = ScenarioRuntime.__init__
        real_distances = beacons.pairwise_distances

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            real_init(self, *args, **kwargs)

        def counting_distances(positions):
            rounds.append(1)
            return real_distances(positions)

        monkeypatch.setattr(ScenarioRuntime, "__init__", counting_init)
        monkeypatch.setattr(beacons, "pairwise_distances", counting_distances)
        return builds, rounds

    def test_warm_evaluate_builds_no_runtime_and_computes_no_round(
        self, monkeypatch
    ):
        """What the runtime cache is for, without a clock: once an
        evaluator's runtimes exist, another configuration builds none
        and computes no beacon round."""
        from repro.tuning import NetworkSetEvaluator

        builds, rounds = self._count_builds_and_rounds(monkeypatch)
        clear_runtime_cache()
        try:
            evaluator = NetworkSetEvaluator.for_density(100, n_networks=3)
            cold = evaluator.evaluate(PARAM_SETS[0])
            assert len(builds) == 3
            assert len(rounds) == sum(
                get_runtime(s).n_beacon_rounds for s in evaluator.scenarios
            )
            builds.clear()
            rounds.clear()
            for params in PARAM_SETS[1:]:
                evaluator.evaluate(params)
            assert evaluator.evaluate(PARAM_SETS[0]) == cold
            assert builds == [] and rounds == []
        finally:
            clear_runtime_cache()

    def test_direct_simulator_run_builds_no_runtime(self, monkeypatch):
        """A one-shot ``runtime=None`` run pays for no precompute it
        cannot amortise: it builds no runtime, caches none, and computes
        each beacon round of its schedule once."""
        builds, rounds = self._count_builds_and_rounds(monkeypatch)
        clear_runtime_cache()
        scenario = make_scenarios(300, n_networks=1)[0]
        metrics = BroadcastSimulator(scenario, AEDBParams()).run()
        assert metrics.n_nodes == scenario.n_nodes
        assert builds == [] and runtime_cache_size() == 0
        warm, window = beacon_grid(scenario.sim)
        assert len(rounds) == len(warm) + len(window)

    def test_disabled_memoisation_falls_back(self):
        clear_runtime_cache()
        set_runtime_memoisation(False)
        try:
            scenario = make_scenarios(100, n_networks=1)[0]
            assert get_runtime(scenario) is None
            assert runtime_cache_size() == 0
        finally:
            set_runtime_memoisation(True)

    def test_lru_eviction_bounds_memory(self):
        from repro.manet import runtime as runtime_mod

        clear_runtime_cache()
        scenarios = make_scenarios(100, n_networks=5, n_nodes=4)
        old_max = runtime_mod._MEMO_MAX_ENTRIES
        runtime_mod._MEMO_MAX_ENTRIES = 2
        try:
            for s in scenarios:
                assert get_runtime(s) is not None
            assert runtime_cache_size() == 2
            # Most recent scenario is cached; asking again hits.
            hit = get_runtime(scenarios[-1])
            assert hit is get_runtime(scenarios[-1])
        finally:
            runtime_mod._MEMO_MAX_ENTRIES = old_max
            clear_runtime_cache()


class TestBeaconGrid:
    def test_default_grid_matches_paper_timeline(self):
        warm, window = beacon_grid(SimulationConfig())
        assert warm == (27.0, 28.0, 29.0)
        assert window == tuple(float(t) for t in range(30, 41))

    def test_integer_indexing_does_not_drift(self):
        # 0.1 is not exactly representable; accumulation (t += interval)
        # drifts off the nominal grid while integer indexing cannot.
        sim = SimulationConfig(
            warmup_s=30.0, horizon_s=40.0, beacon_interval_s=0.1
        )
        warm, window = beacon_grid(sim)
        for k, t in enumerate(window):
            assert t == sim.warmup_s + k * 0.1

    def test_run_schedule_stays_on_grid(self):
        from repro.manet.mobility import StaticMobility

        sim = SimulationConfig(beacon_interval_s=0.1)
        mobility = StaticMobility(np.array([[1.0, 1.0], [2.0, 2.0]]), 500.0)
        tables = NeighborTables(2, sim, mobility)
        count = tables.run_schedule(0.0, 5.0)
        # 0.0, 0.1, ..., 5.0 inclusive: naive accumulation loses the
        # final tick (50 * 0.1 accumulates to > 5.0).
        assert count == 51
