"""Live-object end state of compiled simulators (DESIGN.md §14).

A compiled run builds no neighbour tables, medium, protocol or queue:
the kernel returns its outputs and the metrics are read from them.
The live objects are built on first access and then given the kernel's
end state by one writeback.  These tests pin that the writeback lands
every introspectable byte where the pure reference leaves it, whether
the objects are first read after ``run()`` or before it; that
evaluators build none of them; that the compiled-core mode is read
once per evaluator; that the runtime-only inputs (trace, precondition
verdict, parameter templates) are built once per runtime while the
simulator-only checks stay per simulator; that a non-log-distance radio
falls back with its reason; and that deep telemetry counts without
forcing the writeback.
"""

from __future__ import annotations

from collections import Counter

import pytest
from test_property_compiled_core import (
    CORNER_PARAMS,
    MOBILITY,
    RedefinedWaypoint,
    custom_mobility,
    metric_bytes,
    scenario_for,
)

from repro.manet import AEDBParams, make_scenarios
from repro.manet import simulator as simulator_mod
from repro.manet.aedb import AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.config import RadioConfig, SimulationConfig
from repro.manet.medium import RadioMedium
from repro.manet.mobility import RandomWalkMobility
from repro.manet.runtime import ScenarioRuntime, clear_runtime_cache, get_runtime
from repro.manet.simulator import BroadcastSimulator
from repro.telemetry import MemoryRecorder, using
from repro.tuning import NetworkSetEvaluator
from repro.utils import flags

pytestmark = pytest.mark.compiled


def frame_rows(frames):
    return [
        (f.sender, f.tx_power_dbm.hex(), f.start_s.hex(), f.end_s.hex(), f.seq)
        for f in frames
    ]


def live_objects(sim):
    return sim.queue, sim.tables, sim.medium, sim.protocol


def end_state(sim, objects) -> dict:
    """Every introspectable piece of a finished simulator."""
    queue, tables, medium, protocol = objects
    return {
        "rng_cursor": sim._protocol_rng._i,
        "decisions": protocol.decisions,
        "queue": (queue.fired, queue.now.hex(), queue.pending),
        "history": frame_rows(medium.history),
        "active": frame_rows(medium._active),
        "recent": frame_rows(medium._recent),
        "medium_counts": (
            medium.transmission_count,
            medium.resolved_count,
            medium.energy_dbm_total().hex(),
        ),
        "rounds_run": tables.rounds_run,
        "rx_power": tables.rx_power.tobytes(),
        "last_seen": tables.last_seen.tobytes(),
        "phase": list(protocol.phase),
        "first_rx_time": protocol.first_rx_time.tobytes(),
        "strongest_copy_dbm": protocol.strongest_copy_dbm.tobytes(),
        "heard_from": protocol._heard_from.tobytes(),
    }


def simulator(scenario, params, runtime, compiled):
    return BroadcastSimulator(
        scenario, params, runtime=runtime, record_decisions=True,
        compiled=compiled,
    )


class TestEndStateMatchesPure:
    @pytest.mark.parametrize("mobility", MOBILITY)
    @pytest.mark.parametrize("params", CORNER_PARAMS, ids=range(4))
    @pytest.mark.parametrize(
        "read", ["after-run", "before-run", "after-another-run"]
    )
    def test_live_objects(self, mobility, params, read):
        scenario = scenario_for(7, 32, mobility)
        runtime = ScenarioRuntime(scenario)
        reference = simulator(scenario, params, runtime, "off")
        reference_metrics = reference.run()

        candidate = simulator(scenario, params, runtime, "auto")
        assert candidate.compiled_active, candidate.compiled_reason
        assert candidate._live is None, "compiled path built live objects"
        held = None
        if read == "before-run":
            # References taken now must see the end state after run().
            held = live_objects(candidate)
            assert held[1].rounds_run == 0
        metrics = candidate.run()
        if read == "after-another-run":
            # The kernel's outputs must outlive the next run on the
            # same runtime: the writeback may be read much later.
            other = CORNER_PARAMS[(CORNER_PARAMS.index(params) + 1) % 4]
            simulator(scenario, other, runtime, "auto").run()
        if read != "before-run":
            assert candidate._live is None, "run() forced the writeback"
            held = live_objects(candidate)

        assert metric_bytes(metrics) == metric_bytes(reference_metrics)
        expected = end_state(reference, live_objects(reference))
        assert expected["history"], "no frame was transmitted"
        assert end_state(candidate, held) == expected


def count_constructions(monkeypatch) -> Counter:
    """Count every NeighborTables / RadioMedium / AEDBProtocol built."""
    counts: Counter = Counter()
    for cls in (NeighborTables, RadioMedium, AEDBProtocol):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def count_kernel_runs(monkeypatch) -> Counter:
    counts: Counter = Counter()
    execute = simulator_mod.execute_compiled_run

    def counting(sim):
        counts["kernel"] += 1
        return execute(sim)

    monkeypatch.setattr(simulator_mod, "execute_compiled_run", counting)
    return counts


def evaluation_set():
    return make_scenarios(100, n_networks=2, n_nodes=12, master_seed=0x1D)


class TestEvaluatorBuildsNothing:
    @pytest.mark.parametrize("mode", ["auto", "off"])
    def test_constructions(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_COMPILED", mode)
        evaluator = NetworkSetEvaluator(evaluation_set())
        evaluator.evaluate(AEDBParams())  # warms the shared runtimes
        counts = count_constructions(monkeypatch)
        evaluator.evaluate(AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0))
        assert evaluator.simulations_run == 4
        if mode == "auto":
            assert counts == Counter()
        else:  # the control: the pure path builds one of each per run
            assert counts == Counter(
                NeighborTables=2, RadioMedium=2, AEDBProtocol=2
            )


class TestEvaluatorModeCapture:
    """REPRO_COMPILED is read once, when the evaluator is built."""

    def test_built_under_off_stays_pure(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "off")
        evaluator = NetworkSetEvaluator(evaluation_set())
        monkeypatch.setenv("REPRO_COMPILED", "on")
        runs = count_kernel_runs(monkeypatch)
        pure = evaluator.evaluate(AEDBParams())
        assert runs["kernel"] == 0
        compiled = NetworkSetEvaluator(evaluation_set()).evaluate(AEDBParams())
        assert runs["kernel"] == 2
        assert metric_bytes(pure) == metric_bytes(compiled)

    def test_built_under_auto_stays_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "auto")
        evaluator = NetworkSetEvaluator(evaluation_set())
        monkeypatch.setenv("REPRO_COMPILED", "off")
        runs = count_kernel_runs(monkeypatch)
        evaluator.evaluate(AEDBParams())
        assert runs["kernel"] == 2

    def test_evaluate_reads_no_compiled_flag(self, monkeypatch):
        evaluator = NetworkSetEvaluator(evaluation_set())
        reads: Counter = Counter()
        read = flags.Flag.read

        def counting(self):
            reads[self.name] += 1
            return read(self)

        monkeypatch.setattr(flags.Flag, "read", counting)
        evaluator.evaluate(AEDBParams())
        assert reads["REPRO_COMPILED"] == 0


class TestPreconditions:
    @pytest.mark.parametrize("propagation", ["two-ray", "friis"])
    def test_non_log_distance_falls_back_and_matches(self, propagation):
        sim = SimulationConfig(radio=RadioConfig(propagation=propagation))
        scenario = make_scenarios(
            100, n_networks=1, sim=sim, master_seed=3, n_nodes=16
        )[0]
        runtime = ScenarioRuntime(scenario)
        candidate = simulator(scenario, AEDBParams(), runtime, "auto")
        assert not candidate.compiled_active
        assert candidate.compiled_reason == (
            "path-loss model is not plain log-distance"
        )
        reference = simulator(scenario, AEDBParams(), runtime, "off")
        assert metric_bytes(candidate.run()) == metric_bytes(reference.run())
        assert candidate.protocol.decisions == reference.protocol.decisions


class TestPerRuntimeMemo:
    """Runtime-only marshalling inputs are built once per runtime."""

    def test_warm_evaluate_reads_each_trace_once(self, monkeypatch):
        # The trace is read on the kernel path only: pin the selection
        # (the module's ``compiled`` mark skips it without the kernel).
        monkeypatch.setenv("REPRO_COMPILED", "auto")
        clear_runtime_cache()  # the first evaluate below builds the runtimes
        traces: Counter = Counter()
        kernel_trace = RandomWalkMobility.kernel_trace

        def counting_trace(self):
            traces[id(self)] += 1
            return kernel_trace(self)

        monkeypatch.setattr(RandomWalkMobility, "kernel_trace", counting_trace)
        evaluator = NetworkSetEvaluator(evaluation_set())
        evaluator.evaluate(AEDBParams())
        mobilities = {
            id(get_runtime(s).mobility) for s in evaluator.scenarios
        }
        assert traces == Counter(dict.fromkeys(mobilities, 1))

        from repro.manet import _evcore  # collected without the extension too

        runs = count_kernel_runs(monkeypatch)
        windows: Counter = Counter()
        run_window = _evcore.run_window

        def counting_window(*args):
            windows["kernel"] += 1
            return run_window(*args)

        monkeypatch.setattr(_evcore, "run_window", counting_window)
        for params in CORNER_PARAMS:
            evaluator.evaluate(params)
        simulations = len(CORNER_PARAMS) * evaluator.n_networks
        # The ledger's contract: one execute and one kernel call per
        # simulation, and no trace read on a warm runtime.
        assert runs["kernel"] == windows["kernel"] == simulations
        assert traces == Counter(dict.fromkeys(mobilities, 1))

    def test_protocol_seed_falls_back_on_a_memoised_runtime(self):
        scenario = scenario_for(5, 16, "random-walk")
        runtime = ScenarioRuntime(scenario)
        assert simulator(scenario, AEDBParams(), runtime, "auto").compiled_active
        sims = [
            BroadcastSimulator(
                scenario, AEDBParams(), runtime=runtime, protocol_seed=99,
                compiled=mode,
            )
            for mode in ("auto", "off")
        ]
        candidate, reference = sims
        assert not candidate.compiled_active
        assert candidate.compiled_reason == (
            "protocol rng is not the runtime's replay stream"
        )
        assert metric_bytes(candidate.run()) == metric_bytes(reference.run())
        # The simulator-only clause did not poison the runtime's verdict.
        assert simulator(scenario, AEDBParams(), runtime, "auto").compiled_active

    def test_redefined_motion_falls_back_on_every_simulator(self):
        scenario = scenario_for(5, 16, "random-waypoint")
        plain = ScenarioRuntime(scenario)
        assert simulator(scenario, AEDBParams(), plain, "auto").compiled_active
        runtime = ScenarioRuntime(
            scenario, custom_mobility("redefined-waypoint", scenario)
        )
        reason = f"unsupported mobility model {RedefinedWaypoint.__name__}"
        for _ in range(2):  # the second one reads the memoised verdict
            candidate = simulator(scenario, AEDBParams(), runtime, "auto")
            assert not candidate.compiled_active
            assert candidate.compiled_reason == reason
        reference = simulator(scenario, AEDBParams(), runtime, "off")
        assert metric_bytes(candidate.run()) == metric_bytes(reference.run())
        assert simulator(scenario, AEDBParams(), plain, "auto").compiled_active


DEEP_COUNTERS = (
    "sim.events_fired",
    "sim.frames_transmitted",
    "sim.frames_resolved",
    "sim.runs",
)


class TestDeepTelemetry:
    @pytest.mark.parametrize("mobility", MOBILITY)
    def test_counters_match_without_writeback(self, monkeypatch, mobility):
        monkeypatch.setenv("REPRO_TELEMETRY", "deep")
        scenario = scenario_for(11, 24, mobility)
        runtime = ScenarioRuntime(scenario)
        totals = {}
        for mode in ("off", "auto"):
            recorder = MemoryRecorder()
            sim = simulator(scenario, CORNER_PARAMS[1], runtime, mode)
            with using(recorder):
                sim.run()
            totals[mode] = {
                name: recorder.counter_total(name) for name in DEEP_COUNTERS
            }
        assert sim.compiled_active and sim._live is None
        assert totals["auto"] == totals["off"]
        assert totals["auto"]["sim.frames_transmitted"] > 0
        # The counts are the live objects' counts, once someone reads them.
        assert totals["auto"]["sim.events_fired"] == sim.queue.fired
