"""Pre-fork runtime table: preparation, ownership, inheritance, bit-identity.

The contracts of :mod:`repro.manet.shared`: the parent builds each
distinct scenario's runtime once, processes forked afterwards inherit it
without rebuilding, every lookup the table cannot serve degrades to the
per-process runtime path, and metrics are bit-identical whichever path
served the substrate.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.manet import (
    AEDBParams,
    get_runtime,
    make_scenarios,
    set_runtime_memoisation,
)
from repro.manet.runtime import _MEMO_MAX_ENTRIES, ScenarioRuntime
from repro.manet.shared import SharedRuntimeArena, attach_runtime
from repro.manet.simulator import BroadcastSimulator


def count_builds(monkeypatch) -> list:
    """Record every ScenarioRuntime construction in this process."""
    built = []
    original = ScenarioRuntime.__init__

    def counting(self, scenario, *args, **kwargs):
        built.append(scenario)
        original(self, scenario, *args, **kwargs)

    monkeypatch.setattr(ScenarioRuntime, "__init__", counting)
    return built


def builds_while_attaching(scenarios) -> int:
    """Pool-worker body: attach every scenario, count the runtimes built."""
    with pytest.MonkeyPatch.context() as mp:
        built = count_builds(mp)
        assert all(attach_runtime(s) is not None for s in scenarios)
    return len(built)


class TestArenaLifecycle:
    def test_duplicate_scenarios_pack_once(self, monkeypatch):
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        built = count_builds(monkeypatch)
        with SharedRuntimeArena.create([s, s, s]) as arena:
            assert arena.n_scenarios == 1
            assert built == [s]
            assert arena.nbytes() == attach_runtime(s).nbytes() > 0

    def test_empty_scenario_list_returns_none(self):
        assert SharedRuntimeArena.create([]) is None

    def test_runtime_memoisation_off_wins_over_shared(self):
        """Runtime memoisation off promises the recompute path; a
        prepared runtime must not silently un-ablate it."""
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        with SharedRuntimeArena.create([s]):
            set_runtime_memoisation(False)
            try:
                assert attach_runtime(s) is None
                assert SharedRuntimeArena.create([s]) is None
            finally:
                set_runtime_memoisation(True)

    def test_close_releases_only_its_own_entries(self):
        a, b = make_scenarios(100, n_networks=2, n_nodes=8)
        with SharedRuntimeArena.create([a]) as first:
            prepared = attach_runtime(a)
            second = SharedRuntimeArena.create([a, b])
            assert second.n_scenarios == 1  # a stays first's
            assert attach_runtime(b) is not get_runtime(b)
            second.close()
            second.close()  # idempotent
            assert attach_runtime(a) is prepared
            assert attach_runtime(b) is get_runtime(b)
            assert first.n_scenarios == 1


class TestFallback:
    def test_close_makes_attach_fall_back(self):
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        arena = SharedRuntimeArena.create([s])
        prepared = attach_runtime(s)
        assert prepared is not get_runtime(s)
        arena.close()
        assert attach_runtime(s) is get_runtime(s)

    def test_attach_unprepared_scenario_falls_back(self):
        small, = make_scenarios(100, n_networks=1, n_nodes=8)
        big, = make_scenarios(100, n_networks=1, n_nodes=12)
        with SharedRuntimeArena.create([small]):
            assert attach_runtime(big) is get_runtime(big)


class TestBitIdentity:
    PARAM_SETS = [
        AEDBParams(),
        AEDBParams(
            min_delay_s=0.1,
            max_delay_s=0.4,
            border_threshold_dbm=-78.0,
            margin_threshold_db=0.3,
            neighbors_threshold=3.0,
        ),
    ]

    def test_attached_runtime_matches_recompute_and_private(self):
        """prepared == per-process runtime == no runtime at all."""
        scenario = make_scenarios(200, n_networks=1)[0]
        private = ScenarioRuntime(scenario)
        with SharedRuntimeArena.create([scenario]):
            shared = attach_runtime(scenario)
            for params in self.PARAM_SETS:
                plain = BroadcastSimulator(scenario, params).run()
                via_private = BroadcastSimulator(
                    scenario, params, runtime=private
                ).run()
                via_shared = BroadcastSimulator(
                    scenario, params, runtime=shared
                ).run()
                assert plain == via_private == via_shared

    def test_shared_snapshots_byte_equal_and_read_only(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=10)[0]
        private = ScenarioRuntime(scenario)
        with SharedRuntimeArena.create([scenario]):
            shared = attach_runtime(scenario)
            for t in private.beacon_times:
                rx_p, seen_p = private.table_snapshot(t)
                rx_s, seen_s = shared.table_snapshot(t)
                np.testing.assert_array_equal(rx_p, rx_s)
                np.testing.assert_array_equal(seen_p, seen_s)
                with pytest.raises(ValueError):
                    rx_s[0, 0] = 0.0
            a = shared.protocol_uniform_stream()
            b = private.protocol_uniform_stream()
            for _ in range(2 * scenario.n_nodes):
                assert a.uniform(0.1, 4.5) == b.uniform(0.1, 4.5)

    def test_attach_is_memoised_per_process(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        with SharedRuntimeArena.create([scenario]):
            assert attach_runtime(scenario) is attach_runtime(scenario)


class TestForkInheritance:
    def test_forked_worker_builds_no_prepared_runtime(self):
        """More scenarios than the per-process memo holds: a worker forked
        after ``create`` must find every one of them already built."""
        scenarios = make_scenarios(
            100, n_networks=_MEMO_MAX_ENTRIES + 4, n_nodes=4
        )
        with SharedRuntimeArena.create(scenarios) as arena:
            assert arena.n_scenarios == len(scenarios)
            with ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                assert pool.submit(builds_while_attaching, scenarios).result() == 0
