"""End-to-end broadcast simulation (the ns3 run of the paper's Sect. V).

One :class:`BroadcastSimulator` runs one broadcast protocol — an AEDB
configuration, or any scheme a protocol factory builds (the baselines
of :mod:`repro.manet.protocols`) — on one
:class:`~repro.manet.scenarios.NetworkScenario`:

1. the mobility trace evolves from t = 0;
2. HELLO beacons fire every second, warming the neighbour tables;
3. at ``warmup_s`` (30 s) the scenario's source node injects the broadcast;
4. the protocol state machines react to deliveries through the shared
   medium;
5. at ``horizon_s`` (40 s) the run stops and the four metrics are read out.

Determinism: all randomness (mobility, protocol delays, MAC jitter) is
derived from the scenario seed, so ``run()`` is a pure function of
``(scenario, params)`` — the property the optimiser's fitness relies on.

Passing a :class:`~repro.manet.runtime.ScenarioRuntime` swaps the
parameter-independent substrate (beacon-table timeline, position
snapshots, path-loss model) for its precomputed form: evaluation #2..#N
of different parameters on the same network pays zero beacon cost, and
the metrics are bit-identical to the recompute path (DESIGN.md §8).

With a runtime, AEDB and the compiled event core (DESIGN.md §14), a
run is one kernel call whose outputs the metrics are read from: no event
queue, neighbour tables, medium or protocol object is built.  Those
live objects (``queue``, ``tables``, ``medium``, ``protocol``) are built
on first access and given exactly the pure path's end state, so
decision logs and post-run inspection read the same bytes either way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.manet.aedb import AEDBParams, AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.broadcast import BroadcastProtocol, ProtocolContext, ProtocolFactory
from repro.manet.compiled import (
    KernelRun,
    apply_writeback,
    compiled_core_available,
    compiled_core_reason,
    execute_compiled_run,
    precondition_blocker,
    resolve_compiled_mode,
)
from repro.manet.config import SimulationConfig
from repro.manet.events import EventQueue
from repro.manet.medium import Frame, RadioMedium
from repro.manet.metrics import BroadcastMetrics
from repro.manet.mobility import MobilityModel
from repro.manet.runtime import (
    ScenarioRuntime,
    resolve_mobility,
    run_beacon_schedule,
)
from repro.manet.scenarios import NetworkScenario
from repro.telemetry import MODE_DEEP, recorder_for, telemetry_mode

# ``resolve_compiled_mode`` is re-exported for the layers that capture
# the compiled-core mode once and pass it as ``compiled=`` (evaluators,
# the campaign executor), so they depend on this seam alone.
__all__ = ["BroadcastSimulator", "resolve_compiled_mode", "simulate_broadcast"]


class _LiveObjects(NamedTuple):
    """The simulation objects of one run (built together, never apart)."""

    queue: EventQueue
    tables: NeighborTables
    medium: RadioMedium
    protocol: BroadcastProtocol


class BroadcastSimulator:
    """Single-message dissemination experiment."""

    def __init__(
        self,
        scenario: NetworkScenario,
        params: AEDBParams | ProtocolFactory,
        protocol_seed: int | None = None,
        mobility: MobilityModel | None = None,
        runtime: ScenarioRuntime | None = None,
        record_decisions: bool = False,
        compiled: bool | str | None = None,
        *,
        _telemetry: str | None = None,
    ):
        """``params`` is an :class:`AEDBParams` or a protocol factory
        ``ProtocolContext -> protocol``.  A factory-built protocol always
        runs the pure path on a fresh ``default_rng`` (the runtime's
        replay stream is sized for AEDB's draws) and decides its own
        decision logging.  ``record_decisions`` opts AEDB into its
        per-event decision log (off by default: evaluation loops never
        read it and the per-event formatting is measurable).
        ``compiled`` overrides ``REPRO_COMPILED`` (``auto``/``on``/``off``
        or a bool) for the compiled event core of DESIGN.md §14.
        ``REPRO_TELEMETRY`` is
        read here too, unless the owner that captured it once (an
        evaluator or a campaign job) hands its mode over as
        ``_telemetry``.  Both decisions are captured at construction, so
        toggling either env var before :meth:`run` has no effect."""
        self.scenario = scenario
        self.params = params
        self._factory = None if isinstance(params, AEDBParams) else params
        self._sim: SimulationConfig = scenario.sim
        self.runtime = runtime
        self._mobility = resolve_mobility(scenario, mobility, runtime)
        # Protocol randomness is keyed off the scenario so evaluation is a
        # pure function of (scenario, params).  For the default seed the
        # runtime replays the precomputed raw uniform stream (bit-identical
        # draws, no per-run generator construction).
        if runtime is not None and protocol_seed is None and self._factory is None:
            self._protocol_rng = runtime.protocol_uniform_stream()
        else:
            seed = (
                protocol_seed
                if protocol_seed is not None
                else (scenario.mobility_seed ^ 0x5EDB) & 0xFFFFFFFF
            )
            self._protocol_rng = np.random.default_rng(seed)
        self._record_decisions = bool(record_decisions)

        self._compiled_mode = resolve_compiled_mode(compiled)
        if self._compiled_mode == "on" and not compiled_core_available():
            raise RuntimeError(
                "compiled=on but the compiled event core is unavailable: "
                f"{compiled_core_reason()}"
            )
        self._ran = False
        # Captured once: the off path pays one boolean test per run,
        # never a per-event recorder call (DESIGN.md §12).
        self._telemetry = telemetry_mode() if _telemetry is None else _telemetry
        self._deep = self._telemetry == MODE_DEEP
        # Compiled-core dispatch (DESIGN.md §14), decided once per
        # simulator: the fallback ladder is extension availability →
        # arithmetic self-check → run-shape preconditions.  ``on`` only
        # asserts the toolchain (checked above); unsupported shapes fall
        # back silently with the reason recorded.
        #: True when :meth:`run` will execute through the compiled kernel.
        self.compiled_active = False
        #: Why the compiled core is not in use (None when it is).
        self.compiled_reason: str | None = None
        if self._factory is not None:
            self.compiled_reason = "protocol is not AEDB (built by a factory)"
        elif self._compiled_mode == "off":
            self.compiled_reason = "disabled (REPRO_COMPILED=off)"
        elif not compiled_core_available():
            self.compiled_reason = compiled_core_reason()
        else:
            self.compiled_reason = precondition_blocker(self)
            self.compiled_active = self.compiled_reason is None
        # Live objects: the pure path runs on them, so it builds them
        # now; the compiled path builds them on first access and then
        # gives them the kernel's end state (:meth:`_live_objects`).
        self._live: _LiveObjects | None = None
        #: The kernel's outputs once a compiled run is done.
        self._kernel_run: KernelRun | None = None
        self._writeback_pending = False
        if not self.compiled_active:
            self._live = self._build_live()

    # -- live objects ---------------------------------------------------- #
    def _build_live(self) -> _LiveObjects:
        queue = EventQueue()
        tables = NeighborTables(
            self.scenario.n_nodes, self._sim, self._mobility,
            runtime=self.runtime,
        )
        medium = RadioMedium(
            queue, self._mobility, self._sim.radio, self._deliver,
            runtime=self.runtime,
        )
        ctx = ProtocolContext(
            self.scenario.n_nodes, queue, tables, self._sim.radio,
            self._transmit, self._protocol_rng, self._sim.mac_jitter_s,
        )
        if self._factory is None:
            protocol = AEDBProtocol(ctx, self.params, self._record_decisions)
        else:
            protocol = self._factory(ctx)
            for attr in ("start_broadcast", "on_receive", "first_rx_time"):
                if not hasattr(protocol, attr):
                    raise TypeError(
                        f"factory produced {type(protocol).__name__} "
                        f"without required attribute {attr!r}"
                    )
        return _LiveObjects(queue, tables, medium, protocol)

    def _live_objects(self) -> _LiveObjects:
        """The live objects, built on first access and brought to the
        end state of a finished compiled run before anyone reads them."""
        if self._live is None:
            self._live = self._build_live()
        if self._writeback_pending:
            self._writeback_pending = False
            apply_writeback(self, self._kernel_run)
        return self._live

    @property
    def queue(self) -> EventQueue:
        """The run's event queue."""
        return self._live_objects().queue

    @property
    def tables(self) -> NeighborTables:
        """The run's neighbour tables."""
        return self._live_objects().tables

    @property
    def medium(self) -> RadioMedium:
        """The run's radio medium."""
        return self._live_objects().medium

    @property
    def protocol(self) -> BroadcastProtocol:
        """The run's protocol state machines."""
        return self._live_objects().protocol

    # -- wiring ---------------------------------------------------------- #
    # Callbacks fire only on built live objects, so they skip the
    # properties' writeback check.
    def _deliver(self, receiver: int, frame: Frame, rx_dbm: float, t: float) -> None:
        self._live.protocol.on_receive(receiver, frame.sender, rx_dbm, t)

    def _transmit(self, sender: int, power_dbm: float, t: float) -> None:
        # Protocol asks for a transmission "now" (or now + jitter); the
        # medium schedules the frame-end resolution on the queue.
        queue, _, medium, _ = self._live
        now = queue.now
        if t <= now:
            medium.transmit(sender, power_dbm, now)
        else:
            queue.post(
                t, lambda fire_t, s=sender, p=power_dbm: medium.transmit(s, p, fire_t)
            )

    # -- execution ------------------------------------------------------- #
    def run(self) -> BroadcastMetrics:
        """Execute the experiment once and return its metrics."""
        if self._ran:
            raise RuntimeError("BroadcastSimulator instances are single-use")
        self._ran = True
        sim = self._sim
        rec = recorder_for(self._telemetry)

        with rec.span("sim.run", n_nodes=self.scenario.n_nodes):
            if self.compiled_active:
                # Compiled core (DESIGN.md §14): the whole broadcast
                # window — window beacons, frames, timers, deliveries —
                # runs as one kernel call that opens on the runtime's
                # last warm-up snapshot, so no warm round runs here.
                # Live objects learn the end state only if read.
                with rec.span("sim.broadcast_window"):
                    self._kernel_run = execute_compiled_run(self)
                self._writeback_pending = True
                if self._live is not None:  # read before the run
                    self._live_objects()
            else:
                # Warm-up and in-window beacons on the canonical
                # integer-indexed grid (shared with ScenarioRuntime, so
                # precomputed snapshots and the live schedule agree
                # exactly).  The grid starts just early enough to fully
                # warm the tables: entries older than
                # ``neighbor_expiry_s`` at broadcast time can never
                # influence a query (identical semantics, ~3x fewer
                # pairwise-loss matrices).
                live = self._live
                with rec.span("sim.beacon_schedule"):
                    run_beacon_schedule(sim, self.runtime, live.tables, live.queue)

                live.protocol.start_broadcast(self.scenario.source, sim.warmup_s)
                with rec.span("sim.broadcast_window"):
                    live.queue.run_until(sim.horizon_s)
            metrics = self._collect_metrics()
        if self._deep:
            # Fine-grained readout (REPRO_TELEMETRY=deep): totals kept as
            # plain ints on the warm path, shipped as counters once per
            # run — zero recorder traffic inside the event loop.  A
            # compiled run reports the kernel's counts, so deep mode
            # never forces the writeback.
            run = self._kernel_run
            if run is None:
                live = self._live
                fired = live.queue.fired
                transmitted = live.medium.transmission_count
                resolved = live.medium.resolved_count
            else:
                fired = run.events_fired
                transmitted = run.frames_transmitted
                resolved = run.frames_resolved
            rec.count("sim.events_fired", fired)
            rec.count("sim.frames_transmitted", transmitted)
            rec.count("sim.frames_resolved", resolved)
            rec.count("sim.runs")
        return metrics

    def _collect_metrics(self) -> BroadcastMetrics:
        scenario = self.scenario
        run = self._kernel_run
        if run is None:
            medium = self._live.medium
            first_rx = self._live.protocol.first_rx_time
            transmissions = medium.transmission_count
            energy = medium.energy_dbm_total()
        else:
            first_rx = run.first_rx
            transmissions = run.frames_transmitted
            energy = run.energy
        # The receivers: every non-NaN entry (NaN is the only value
        # unequal to itself) but the source.  Nobody hears the message
        # before the source sends it, at its own first_rx (warmup_s),
        # so the NaN-ignoring max over every node is the last
        # first-reception.
        received = first_rx == first_rx
        received[scenario.source] = False
        coverage = np.count_nonzero(received)
        if coverage:
            broadcast_time = float(np.fmax.reduce(first_rx)) - self._sim.warmup_s
        else:
            broadcast_time = 0.0
        return BroadcastMetrics(
            float(coverage),
            float(energy),
            float(max(transmissions - 1, 0)),
            broadcast_time,
            scenario.n_nodes,
        )


def simulate_broadcast(
    scenario: NetworkScenario,
    params: AEDBParams | ProtocolFactory,
    protocol_seed: int | None = None,
    runtime: ScenarioRuntime | None = None,
) -> BroadcastMetrics:
    """Convenience wrapper: build, run, and return the metrics."""
    return BroadcastSimulator(
        scenario, params, protocol_seed=protocol_seed, runtime=runtime
    ).run()
