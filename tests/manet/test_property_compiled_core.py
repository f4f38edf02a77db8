"""Differential bit-identity properties for the compiled event core.

Hypothesis (derandomized, mirroring test_property_protocol_path.py)
over the DESIGN.md §14 contract: for *random* scenarios, parameter
vectors, densities, and mobility models, a simulator running through
the compiled kernel must be observationally indistinguishable from the
pure-Python reference —

* byte-identical :class:`BroadcastMetrics`;
* identical protocol decision logs (exact formatted strings);
* identical RNG draw counts (the kernel replays the same uniform
  stream in the same order);
* identical event/transmission/resolution counters.

Every built-in mobility model runs through the kernel: the random
walk's epochs, the waypoint and direction models' leg table, and the
gauss-markov tick grid.  A user-defined model must *fall back* with a
recorded reason and still match the reference bit for bit, and the
kernel must reject a malformed trace, or anything but numpy's filled
loop capsules, before reading it.  The
compiled-mode decision is captured at construction, so flipping
``REPRO_COMPILED`` mid-run is a no-op.
"""

from __future__ import annotations

import datetime
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.manet import AEDBParams, make_scenarios
from repro.manet.mobility import MobilityModel, RandomWaypointMobility
from repro.manet.runtime import ScenarioRuntime
from repro.manet.simulator import BroadcastSimulator

pytestmark = pytest.mark.compiled

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Parameter vectors drawn from the Table III box.
params_strategy = st.builds(
    AEDBParams,
    min_delay_s=st.floats(0.0, 1.0),
    max_delay_s=st.floats(0.0, 5.0),
    border_threshold_dbm=st.floats(-95.0, -70.0),
    margin_threshold_db=st.floats(0.0, 3.0),
    neighbors_threshold=st.floats(0.0, 50.0),
)

#: Deliberately pathological vectors: zero-width delay window (every
#: armed timer lands on the same instant -> maximal frame overlap and
#: collision arbitration), plus the Table III corners.
CORNER_PARAMS = (
    AEDBParams(),
    AEDBParams(0.0, 0.0, -70.0, 0.0, 0.0),
    AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
    AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
)

MOBILITY = ("random-walk", "random-waypoint", "gauss-markov", "random-direction")


class HandRolledMobility(MobilityModel):
    """A user-defined model: it moves like a built-in trace but does not
    describe itself to the kernel."""

    def __init__(self, inner: MobilityModel):
        self._inner = inner
        self.n_nodes = inner.n_nodes
        self.area_side_m = inner.area_side_m

    def positions_at(self, time_s: float) -> np.ndarray:
        return self._inner.positions_at(time_s)


class RedefinedWaypoint(RandomWaypointMobility):
    """A subclass that re-defines the motion and inherits the built-in
    trace description, which no longer matches it."""

    def positions_at(self, time_s: float) -> np.ndarray:
        return super().positions_at(time_s)


def custom_mobility(kind: str, scenario) -> MobilityModel:
    if kind == "hand-rolled":
        return HandRolledMobility(scenario.build_mobility())
    sim = scenario.sim
    return RedefinedWaypoint(
        scenario.n_nodes, sim.area_side_m, sim.horizon_s,
        rng=scenario.mobility_seed,
    )


def scenario_for(seed: int, n_nodes: int, mobility: str, density: int = 100):
    return make_scenarios(
        density,
        n_networks=1,
        master_seed=seed,
        n_nodes=n_nodes,
        mobility_model=mobility,
    )[0]


def metric_bytes(metrics) -> bytes:
    """The metrics as raw IEEE-754 bytes — equality here is bit-identity
    (a plain float == would conflate 0.0 with -0.0)."""
    return np.array(
        [
            metrics.coverage,
            metrics.energy_dbm,
            metrics.forwardings,
            metrics.broadcast_time_s,
            float(metrics.n_nodes),
        ],
        dtype=np.float64,
    ).tobytes()


def run_pair(scenario, params, mobility=None):
    """One compiled-off / compiled-auto pair on fresh runtimes; returns
    both simulators after running (metrics stashed on each)."""
    pair = []
    for mode in ("off", "auto"):
        sim = BroadcastSimulator(
            scenario,
            params,
            runtime=ScenarioRuntime(scenario, mobility),
            record_decisions=True,
            compiled=mode,
        )
        sim.metrics = sim.run()
        pair.append(sim)
    return pair


def assert_identical(reference, candidate):
    assert metric_bytes(candidate.metrics) == metric_bytes(reference.metrics)
    assert candidate.protocol.decisions == reference.protocol.decisions
    # Same stream, same number of draws -> same cursor position.
    assert candidate._protocol_rng._i == reference._protocol_rng._i
    assert candidate.queue.fired == reference.queue.fired
    assert candidate.medium.transmission_count == reference.medium.transmission_count
    assert candidate.medium.resolved_count == reference.medium.resolved_count


class TestCompiledEqualsPure:
    @pytest.mark.parametrize("mobility", MOBILITY)
    @given(
        params=params_strategy,
        seed=st.integers(0, 2**16),
        n_nodes=st.integers(4, 24),
        density=st.sampled_from((100, 300, 500)),
    )
    @SETTINGS
    def test_every_model_engages_kernel_and_matches(
        self, mobility, params, seed, n_nodes, density
    ):
        scenario = scenario_for(seed, n_nodes, mobility, density)
        reference, candidate = run_pair(scenario, params)
        assert not reference.compiled_active
        assert reference.compiled_reason == "disabled (REPRO_COMPILED=off)"
        assert candidate.compiled_active, candidate.compiled_reason
        assert candidate.compiled_reason is None
        assert_identical(reference, candidate)

    @given(
        params=params_strategy,
        seed=st.integers(0, 2**16),
        n_nodes=st.integers(4, 16),
        kind=st.sampled_from(("hand-rolled", "redefined-waypoint")),
    )
    @SETTINGS
    def test_unsupported_mobility_falls_back_and_matches(
        self, params, seed, n_nodes, kind
    ):
        scenario = scenario_for(seed, n_nodes, "random-waypoint")
        mobility = custom_mobility(kind, scenario)
        reference, candidate = run_pair(scenario, params, mobility)
        assert not candidate.compiled_active
        assert candidate.compiled_reason == (
            f"unsupported mobility model {type(mobility).__name__}"
        )
        # The fallback still runs on the compiled *queue* (auto mode):
        # pure protocol logic over the C heap must match heapq exactly.
        assert_identical(reference, candidate)

    @pytest.mark.parametrize("mobility", MOBILITY)
    @pytest.mark.parametrize("params", CORNER_PARAMS, ids=range(4))
    def test_corner_vectors_on_a_dense_network(self, params, mobility):
        """32 nodes and the zero-delay corner force collision chains."""
        scenario = scenario_for(7, 32, mobility)
        reference, candidate = run_pair(scenario, params)
        assert candidate.compiled_active, candidate.compiled_reason
        assert_identical(reference, candidate)
        assert [f.seq for f in candidate.medium.history] == [
            f.seq for f in reference.medium.history
        ]
        assert [
            (f.sender, f.tx_power_dbm, f.start_s, f.end_s)
            for f in candidate.medium.history
        ] == [
            (f.sender, f.tx_power_dbm, f.start_s, f.end_s)
            for f in reference.medium.history
        ]


class TestModeCapture:
    """REPRO_COMPILED is read once, at simulator construction."""

    def _sim(self, compiled=None):
        scenario = scenario_for(3, 8, "random-walk")
        return scenario, BroadcastSimulator(
            scenario,
            AEDBParams(),
            runtime=ScenarioRuntime(scenario),
            record_decisions=True,
            compiled=compiled,
        )

    def test_env_flip_to_off_after_construction_is_inert(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "on")
        scenario, sim = self._sim()
        assert sim.compiled_active
        monkeypatch.setenv("REPRO_COMPILED", "off")
        compiled_metrics = sim.run()  # still the kernel
        assert sim.compiled_active
        reference = BroadcastSimulator(
            scenario, AEDBParams(), runtime=ScenarioRuntime(scenario),
            record_decisions=True,
        )
        assert metric_bytes(reference.run()) == metric_bytes(compiled_metrics)

    def test_env_flip_to_on_after_construction_is_inert(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "off")
        _, sim = self._sim()
        assert not sim.compiled_active
        monkeypatch.setenv("REPRO_COMPILED", "on")
        sim.run()  # still the pure path, not an error
        assert not sim.compiled_active
        assert sim.compiled_reason == "disabled (REPRO_COMPILED=off)"

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "off")
        _, sim = self._sim(compiled="auto")
        assert sim.compiled_active

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="REPRO_COMPILED"):
            self._sim(compiled="fast")


class TestFallbackLadder:
    def test_on_without_runtime_falls_back_with_reason(self):
        """``on`` asserts the toolchain, not the run shape: a
        runtime-less simulator degrades silently, reason recorded."""
        scenario = scenario_for(3, 8, "random-walk")
        sim = BroadcastSimulator(
            scenario, AEDBParams(), record_decisions=True, compiled="on"
        )
        assert not sim.compiled_active
        assert "Runtime" in sim.compiled_reason
        reference = BroadcastSimulator(
            scenario, AEDBParams(), record_decisions=True, compiled="off"
        )
        assert metric_bytes(sim.run()) == metric_bytes(reference.run())

    def test_on_without_extension_raises_at_construction(self, monkeypatch):
        import repro.manet.compiled as compiled_mod

        monkeypatch.setattr(
            compiled_mod, "_STATE", (None, "forced unavailable (test)")
        )
        with pytest.raises(RuntimeError, match="forced unavailable"):
            self_check = scenario_for(3, 6, "random-walk")
            BroadcastSimulator(self_check, AEDBParams(), compiled="on")

    def test_auto_without_extension_runs_pure(self, monkeypatch):
        import repro.manet.compiled as compiled_mod

        monkeypatch.setattr(
            compiled_mod, "_STATE", (None, "forced unavailable (test)")
        )
        scenario = scenario_for(3, 6, "random-walk")
        sim = BroadcastSimulator(
            scenario, AEDBParams(), runtime=ScenarioRuntime(scenario),
            compiled="auto",
        )
        assert not sim.compiled_active
        assert sim.compiled_reason == "forced unavailable (test)"
        sim.run()


def _with_leg_count(trace, value):
    count = trace.arrays[4].copy()
    count[-1] = value
    return trace._replace(arrays=trace.arrays[:4] + (count,))


class TestMalformedTrace:
    """``run_window`` validates a trace's shape before reading it."""

    @pytest.mark.parametrize(
        "mobility, corrupt, message",
        [
            ("random-waypoint", lambda t: _with_leg_count(t, 0), "leg count 0"),
            (
                "random-direction",
                lambda t: _with_leg_count(t, t.width + 1),
                "leg count",
            ),
            ("gauss-markov", lambda t: t._replace(width=1), "tick count 1"),
            ("gauss-markov", lambda t: t._replace(step_s=0.0), "step"),
        ],
        ids=["no-legs", "legs-over-width", "one-tick", "zero-step"],
    )
    def test_rejected_with_value_error(
        self, monkeypatch, mobility, corrupt, message
    ):
        scenario = scenario_for(5, 8, mobility)
        runtime = ScenarioRuntime(scenario)
        # The trace is read once per runtime, when its first simulator
        # is built, so it is corrupted before that.
        bad = corrupt(runtime.mobility.kernel_trace())
        monkeypatch.setattr(runtime.mobility, "kernel_trace", lambda: bad)
        sim = BroadcastSimulator(
            scenario, AEDBParams(), runtime=runtime, compiled="auto",
        )
        assert sim.compiled_active, sim.compiled_reason
        with pytest.raises(ValueError, match=message):
            sim.run()


def _unfilled_call_info():
    """A call-info capsule ``ufunc._get_strided_loop`` never filled."""
    _, call_info = np.log10._resolve_dtypes_and_context(
        (np.dtype(np.float64), None)
    )
    return call_info


#: (make the bad argument, error type, message after the argument name).
BAD_LOOPS = [
    (
        lambda: np.log10,
        TypeError,
        "must be a numpy_1.24_ufunc_call_info capsule, not numpy.ufunc",
    ),
    (
        lambda: datetime.datetime_CAPI,
        ValueError,
        "must be a numpy_1.24_ufunc_call_info capsule, "
        "not one named datetime.datetime_CAPI",
    ),
    (_unfilled_call_info, ValueError, "holds no strided loop"),
]
BAD_LOOP_IDS = ["ufunc-object", "foreign-capsule", "unfilled-capsule"]


class TestBadLoopCapsules:
    """``run_window`` and ``probe_ops`` take numpy's loops only as filled
    call-info capsules and name the argument that is not one."""

    @pytest.mark.parametrize("slot, name", [(0, "log10_loop"), (1, "power_loop")])
    @pytest.mark.parametrize("make, error, message", BAD_LOOPS, ids=BAD_LOOP_IDS)
    def test_run_window_rejects(self, monkeypatch, slot, name, make, error, message):
        import repro.manet.compiled as compiled_mod

        scenario = scenario_for(5, 8, "random-walk")
        sim = BroadcastSimulator(
            scenario, AEDBParams(), runtime=ScenarioRuntime(scenario),
            compiled="auto",
        )
        assert sim.compiled_active, sim.compiled_reason
        loops = list(compiled_mod._LOOPS)
        loops[slot] = make()
        monkeypatch.setattr(compiled_mod, "_LOOPS", tuple(loops))
        with pytest.raises(error, match=re.escape(f"{name} {message}")):
            sim.run()

    @pytest.mark.parametrize("op", [3, 4])
    @pytest.mark.parametrize("make, error, message", BAD_LOOPS, ids=BAD_LOOP_IDS)
    def test_probe_ops_rejects(self, op, make, error, message):
        from repro.manet import _evcore

        x = np.ones(4)
        with pytest.raises(error, match=re.escape(f"loop {message}")):
            _evcore.probe_ops(op, x, x, np.empty(4), make())

    @pytest.mark.parametrize("op", [3, 4])
    def test_probe_ops_needs_a_loop(self, op):
        from repro.manet import _evcore

        x = np.ones(4)
        with pytest.raises(TypeError, match="loop must be .* not NoneType"):
            _evcore.probe_ops(op, x, x, np.empty(4))
