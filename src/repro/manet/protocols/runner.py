"""Generic single-broadcast experiment for any protocol.

:class:`ProtocolSimulator` is the scheme-agnostic counterpart of
:class:`repro.manet.simulator.BroadcastSimulator`: the same substrate
(mobility trace, 1 Hz beaconing, shared radio medium with SINR capture,
same timeline and metrics), but the protocol is produced by a factory
``factory(ctx) -> protocol``.  Anything exposing ``start_broadcast``,
``on_receive`` and ``first_rx_time`` runs — the baselines of this
subpackage and, through :func:`aedb_protocol`, AEDB itself, which is what
makes like-for-like storm comparisons possible.

Determinism matches the AEDB simulator: all randomness derives from the
scenario seed, so a run is a pure function of ``(scenario, factory)``.
A shared :class:`~repro.manet.runtime.ScenarioRuntime` swaps the
parameter-independent substrate for its precomputed form exactly as in
the AEDB simulator — baselines compared on the same scenario reuse one
beacon grid.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.manet.aedb import AEDBParams, AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.config import SimulationConfig
from repro.manet.events import EventQueue
from repro.manet.medium import Frame, RadioMedium
from repro.manet.metrics import BroadcastMetrics
from repro.manet.mobility import MobilityModel
from repro.manet.protocols.base import ProtocolContext
from repro.manet.runtime import (
    ScenarioRuntime,
    resolve_mobility,
    run_beacon_schedule,
)
from repro.manet.scenarios import NetworkScenario

__all__ = ["ProtocolFactory", "ProtocolSimulator", "simulate_protocol", "aedb_protocol"]

#: Builds a protocol instance from the simulator-provided context.
ProtocolFactory = Callable[[ProtocolContext], object]


class ProtocolSimulator:
    """One dissemination experiment for an arbitrary broadcast protocol."""

    def __init__(
        self,
        scenario: NetworkScenario,
        factory: ProtocolFactory,
        protocol_seed: int | None = None,
        mobility: MobilityModel | None = None,
        runtime: ScenarioRuntime | None = None,
    ):
        self.scenario = scenario
        self._sim: SimulationConfig = scenario.sim
        self.runtime = runtime
        self._mobility = resolve_mobility(scenario, mobility, runtime)
        seed = (
            protocol_seed
            if protocol_seed is not None
            else (scenario.mobility_seed ^ 0x5EDB) & 0xFFFFFFFF
        )
        self.queue = EventQueue()
        self.tables = NeighborTables(
            scenario.n_nodes, self._sim, self._mobility, runtime=runtime
        )
        self.medium = RadioMedium(
            self.queue, self._mobility, self._sim.radio, self._deliver,
            runtime=runtime,
        )
        ctx = ProtocolContext(
            n_nodes=scenario.n_nodes,
            queue=self.queue,
            tables=self.tables,
            radio=self._sim.radio,
            transmit=self._transmit,
            rng=np.random.default_rng(seed),
            mac_jitter_s=self._sim.mac_jitter_s,
        )
        self.protocol = factory(ctx)
        for attr in ("start_broadcast", "on_receive", "first_rx_time"):
            if not hasattr(self.protocol, attr):
                raise TypeError(
                    f"factory produced {type(self.protocol).__name__} "
                    f"without required attribute {attr!r}"
                )
        self._ran = False

    # -- wiring ---------------------------------------------------------- #
    def _deliver(self, receiver: int, frame: Frame, rx_dbm: float, t: float) -> None:
        self.protocol.on_receive(receiver, frame.sender, rx_dbm, t)

    def _transmit(self, sender: int, power_dbm: float, t: float) -> None:
        now = self.queue.now
        if t <= now:
            self.medium.transmit(sender, power_dbm, now)
        else:
            self.queue.post(
                t, lambda fire_t, s=sender, p=power_dbm: self.medium.transmit(s, p, fire_t)
            )

    # -- execution ------------------------------------------------------- #
    def run(self) -> BroadcastMetrics:
        """Execute the experiment once and return its metrics."""
        if self._ran:
            raise RuntimeError("ProtocolSimulator instances are single-use")
        self._ran = True
        sim = self._sim

        run_beacon_schedule(sim, self.runtime, self.tables, self.queue)

        self.protocol.start_broadcast(self.scenario.source, sim.warmup_s)
        self.queue.run_until(sim.horizon_s)
        return self._collect_metrics()

    def _collect_metrics(self) -> BroadcastMetrics:
        sim = self._sim
        src = self.scenario.source
        first_rx = np.asarray(self.protocol.first_rx_time, dtype=float)
        received_non_source = ~np.isnan(first_rx)
        received_non_source[src] = False
        coverage = int(np.count_nonzero(received_non_source))

        forwardings = max(self.medium.transmission_count - 1, 0)
        energy = self.medium.energy_dbm_total()

        if coverage > 0:
            bt = float(np.max(first_rx[received_non_source]))
            broadcast_time = bt - sim.warmup_s
        else:
            broadcast_time = 0.0

        return BroadcastMetrics(
            coverage=float(coverage),
            energy_dbm=float(energy),
            forwardings=float(forwardings),
            broadcast_time_s=float(broadcast_time),
            n_nodes=self.scenario.n_nodes,
        )


def simulate_protocol(
    scenario: NetworkScenario,
    factory: ProtocolFactory,
    protocol_seed: int | None = None,
    runtime: ScenarioRuntime | None = None,
) -> BroadcastMetrics:
    """Convenience wrapper: build, run, and return the metrics."""
    return ProtocolSimulator(
        scenario, factory, protocol_seed=protocol_seed, runtime=runtime
    ).run()


def aedb_protocol(params: AEDBParams) -> ProtocolFactory:
    """Factory adapter: run AEDB under the generic runner.

    The produced :class:`~repro.manet.aedb.AEDBProtocol` is byte-for-byte
    the one :class:`~repro.manet.simulator.BroadcastSimulator` uses, so
    comparisons against the baselines share every modelling assumption.
    """

    def build(ctx: ProtocolContext) -> AEDBProtocol:
        return AEDBProtocol(
            params=params,
            n_nodes=ctx.n_nodes,
            queue=ctx.queue,
            tables=ctx.tables,
            radio=ctx.radio,
            transmit=ctx.transmit,
            rng=ctx.rng,
            mac_jitter_s=ctx.mac_jitter_s,
        )

    return build
