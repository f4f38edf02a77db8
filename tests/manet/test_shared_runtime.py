"""Shared-memory runtimes: lifecycle, crash-safety, bit-identity.

DESIGN.md §9's contracts: the arena owns (and always reclaims) its
segments, workers only ever attach, every failure mode degrades to the
per-process runtime path, and metrics are bit-identical whichever path
served the substrate.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.manet import (
    AEDBParams,
    SharedRuntimeArena,
    SharedRuntimeHandle,
    attach_runtime,
    make_scenarios,
    set_shared_runtimes,
    shared_runtimes_enabled,
)
from repro.manet.runtime import ScenarioRuntime
from repro.manet.shared import SEGMENT_PREFIX, detach_all_runtimes
from repro.manet.simulator import BroadcastSimulator

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no POSIX shared memory on this host"
)


def our_segments() -> list[str]:
    return [f for f in os.listdir(SHM_DIR) if SEGMENT_PREFIX in f]


@pytest.fixture(autouse=True)
def _detach():
    """Each test starts and ends with a clean per-process attach memo."""
    detach_all_runtimes()
    yield
    detach_all_runtimes()


class TestArenaLifecycle:
    def test_create_close_unlinks_every_segment(self):
        scenarios = make_scenarios(100, n_networks=3, n_nodes=8)
        before = set(our_segments())
        arena = SharedRuntimeArena.create(scenarios)
        assert arena is not None
        assert arena.n_scenarios == 3
        created = set(our_segments()) - before
        assert len(created) == 3
        arena.close()
        assert set(our_segments()) - before == set()
        arena.close()  # idempotent

    def test_finalizer_reclaims_unclosed_arena(self):
        before = set(our_segments())
        arena = SharedRuntimeArena.create(
            make_scenarios(100, n_networks=1, n_nodes=8)
        )
        assert set(our_segments()) - before
        del arena  # collection runs the finalizer
        assert set(our_segments()) - before == set()

    def test_duplicate_scenarios_pack_once(self):
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        with SharedRuntimeArena.create([s, s, s]) as arena:
            assert arena.n_scenarios == 1

    def test_disabled_returns_none(self):
        scenarios = make_scenarios(100, n_networks=1, n_nodes=8)
        set_shared_runtimes(False)
        try:
            assert not shared_runtimes_enabled()
            assert SharedRuntimeArena.create(scenarios) is None
        finally:
            set_shared_runtimes(True)

    def test_empty_scenario_list_returns_none(self):
        assert SharedRuntimeArena.create([]) is None

    def test_runtime_memoisation_off_wins_over_shared(self):
        """Runtime memoisation off promises the recompute path; a shared
        segment must not silently un-ablate it."""
        from repro.manet import set_runtime_memoisation

        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        with SharedRuntimeArena.create([s]) as arena:
            handle = arena.handle_for(s)
            set_runtime_memoisation(False)
            try:
                assert attach_runtime(s, handle) is None
                assert SharedRuntimeArena.create([s]) is None
            finally:
                set_runtime_memoisation(True)

    def test_handle_reports_segment_size(self):
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        with SharedRuntimeArena.create([s]) as arena:
            handle = arena.handle_for(s)
            runtime = ScenarioRuntime(s)
            # Snapshot stacks + protocol doubles.
            expected = 8 * (2 * runtime.n_beacon_rounds * 8 * 8 + 2 * 8)
            assert handle.segment_nbytes() == expected
            assert arena.nbytes() == expected


class TestCrashSafety:
    def test_worker_crash_mid_attach_leaves_no_segments(self):
        """A worker that hard-exits right after attaching must leak
        nothing: the owner's close() is the only unlink that matters."""
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        before = set(our_segments())
        arena = SharedRuntimeArena.create([s])
        handle = arena.handle_for(s)

        def crash(scenario, h):
            attach_runtime(scenario, h)
            os._exit(17)  # skip every interpreter/finalizer cleanup

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=crash, args=(s, handle))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 17
        # The dead worker changed nothing: the segment is still owned...
        assert set(our_segments()) - before
        rt = attach_runtime(s, handle)
        assert rt is not None and rt.shared
        detach_all_runtimes()
        # ...and the owner still reclaims everything.
        arena.close()
        assert set(our_segments()) - before == set()

    def test_attach_after_unlink_falls_back(self):
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        arena = SharedRuntimeArena.create([s])
        handle = arena.handle_for(s)
        arena.close()
        rt = attach_runtime(s, handle)
        assert rt is None or not rt.shared  # per-process fallback path

    def test_attach_bogus_handle_falls_back(self):
        s = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        bogus = SharedRuntimeHandle(
            name=f"{SEGMENT_PREFIX}-nonexistent", n_ticks=14, n_nodes=8
        )
        rt = attach_runtime(s, bogus)
        assert rt is None or not rt.shared

    def test_attach_wrong_scenario_shape_falls_back(self):
        small, = make_scenarios(100, n_networks=1, n_nodes=8)
        big, = make_scenarios(100, n_networks=1, n_nodes=12)
        with SharedRuntimeArena.create([small]) as arena:
            handle = arena.handle_for(small)
            rt = attach_runtime(big, handle)
            assert rt is None or not rt.shared


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
        """shared-memory == per-process runtime == no runtime at all."""
        scenario = make_scenarios(200, n_networks=1)[0]
        private = ScenarioRuntime(scenario)
        with SharedRuntimeArena.create([scenario]) as arena:
            shared = attach_runtime(scenario, arena.handle_for(scenario))
            assert shared.shared
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
        with SharedRuntimeArena.create([scenario]) as arena:
            shared = attach_runtime(scenario, arena.handle_for(scenario))
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
        with SharedRuntimeArena.create([scenario]) as arena:
            handle = arena.handle_for(scenario)
            assert attach_runtime(scenario, handle) is attach_runtime(
                scenario, handle
            )

    def test_shared_runtime_reports_no_private_bytes(self):
        scenario = make_scenarios(100, n_networks=1, n_nodes=8)[0]
        private = ScenarioRuntime(scenario)
        with SharedRuntimeArena.create([scenario]) as arena:
            shared = attach_runtime(scenario, arena.handle_for(scenario))
            assert private.private_nbytes() > 0
            assert shared.private_nbytes() == 0  # timeline is shared pages
            # The addressed timeline is exactly the segment's stacks
            # (the segment additionally holds the 2n RNG doubles).
            assert shared.nbytes() == arena.nbytes() - 2 * 8 * 8


class TestPoolIntegration:
    def test_parallel_evaluator_with_arena_matches_serial(
        self, tiny_scenarios
    ):
        from repro.tuning import (
            NetworkSetEvaluator,
            ParallelNetworkSetEvaluator,
        )

        params = AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)
        serial = NetworkSetEvaluator(list(tiny_scenarios))
        expected = serial.evaluate(params)
        with ParallelNetworkSetEvaluator(
            list(tiny_scenarios), max_workers=2
        ) as parallel:
            assert parallel._ensure_arena() is not None
            assert parallel.evaluate(params) == expected
        # close() released the arena's segments.
        assert parallel._arena is None

    def test_parallel_evaluator_shared_off_matches_too(self, tiny_scenarios):
        from repro.tuning import (
            NetworkSetEvaluator,
            ParallelNetworkSetEvaluator,
        )

        params = AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)
        expected = NetworkSetEvaluator(list(tiny_scenarios)).evaluate(params)
        with ParallelNetworkSetEvaluator(
            list(tiny_scenarios), max_workers=2, shared_runtimes=False
        ) as parallel:
            assert parallel._ensure_arena() is None
            assert parallel.evaluate(params) == expected
