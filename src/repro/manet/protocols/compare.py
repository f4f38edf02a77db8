"""Like-for-like comparison of broadcast protocols.

Runs every protocol of a suite on the *same* evaluation networks (the
paper's fixed-scenario methodology, Sect. V) and reports the four AEDB
metrics plus the broadcast-storm diagnostics of Ni et al. [12]:

* **reachability** — covered fraction of the non-source population;
* **saved rebroadcasts (SRB)** — ``1 - forwarders / receivers``: how much
  of the storm the suppression scheme removed (flooding scores ~0).

The comparison returns plain dataclasses; :func:`render_comparison`
formats the table the protocol-showdown example and bench print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.manet.broadcast import ProtocolContext, ProtocolFactory
from repro.manet.metrics import BroadcastMetrics, aggregate_metrics
from repro.manet.protocols.counter import CounterBasedProtocol
from repro.manet.protocols.distance import DistanceBasedProtocol
from repro.manet.protocols.flooding import FloodingProtocol
from repro.manet.protocols.probabilistic import ProbabilisticProtocol
from repro.manet.runtime import get_runtime
from repro.manet.scenarios import NetworkScenario
from repro.manet.simulator import simulate_broadcast

__all__ = [
    "ProtocolOutcome",
    "ProtocolComparison",
    "simulate_protocol",
    "standard_protocol_suite",
    "compare_protocols",
    "render_comparison",
]

#: One run of any suite entry: :class:`AEDBParams` or a protocol factory
#: go to the one :class:`~repro.manet.simulator.BroadcastSimulator`.
simulate_protocol = simulate_broadcast


@dataclass
class ProtocolOutcome:
    """Aggregated result of one protocol over the evaluation networks."""

    #: Suite label of the protocol.
    name: str
    #: Per-network metrics, in scenario order.
    per_network: list[BroadcastMetrics] = field(default_factory=list)

    @property
    def mean(self) -> BroadcastMetrics:
        """Average metrics over the evaluation networks."""
        return aggregate_metrics(self.per_network)

    @property
    def reachability(self) -> float:
        """Mean covered fraction of the non-source population."""
        return float(np.mean([m.coverage_ratio for m in self.per_network]))

    @property
    def saved_rebroadcasts(self) -> float:
        """Mean SRB: 1 - (retransmitting nodes / receiving nodes).

        Receivers include the source (it holds the message), matching the
        classic definition; an uncovered network scores 0 savings.
        """
        # + 1.0 on both sides: the source's seed frame and its copy.
        return float(np.mean([
            1.0 - (m.forwardings + 1.0) / (m.coverage + 1.0)
            for m in self.per_network
        ]))


@dataclass
class ProtocolComparison:
    """All protocol outcomes for one evaluation-network set."""

    #: Density label of the underlying scenarios (devices/km²).
    density_per_km2: float
    #: Number of evaluation networks each protocol ran on.
    n_networks: int
    #: Outcomes keyed by protocol label, in insertion (suite) order.
    outcomes: dict[str, ProtocolOutcome] = field(default_factory=dict)

    def ranking(self, key: str = "reachability") -> list[str]:
        """Protocol labels sorted best-first by an outcome property.

        ``reachability``/``saved_rebroadcasts`` rank descending; the raw
        metric keys (``energy_dbm``, ``forwardings``,
        ``broadcast_time_s``) rank ascending (lower is better).
        """
        descending = key in ("reachability", "saved_rebroadcasts")

        def value(name: str) -> float:
            out = self.outcomes[name]
            if hasattr(out, key):
                return float(getattr(out, key))
            return float(getattr(out.mean, key))

        return sorted(self.outcomes, key=value, reverse=descending)


def standard_protocol_suite(
    aedb_params: AEDBParams | None = None,
    gossip_p: float = 0.6,
    counter_threshold: int = 3,
    border_threshold_dbm: float = -90.0,
    delay_interval_s: tuple[float, float] = (0.0, 0.1),
) -> dict[str, AEDBParams | ProtocolFactory]:
    """The canonical suite: storm baselines + AEDB.

    Scheme knobs default to mid-range literature values; the AEDB entry
    is ``aedb_params`` itself (default: :class:`AEDBParams` defaults, i.e.
    an untuned configuration — exactly what the optimiser improves on),
    so AEDB runs through the tuning path, compiled kernel included.
    """
    params = aedb_params or AEDBParams()

    def flooding(ctx: ProtocolContext) -> FloodingProtocol:
        return FloodingProtocol(ctx)

    def jittered(ctx: ProtocolContext) -> FloodingProtocol:
        return FloodingProtocol(ctx, delay_interval_s=delay_interval_s)

    def gossip(ctx: ProtocolContext) -> ProbabilisticProtocol:
        return ProbabilisticProtocol(
            ctx, forward_probability=gossip_p, delay_interval_s=delay_interval_s
        )

    def counter(ctx: ProtocolContext) -> CounterBasedProtocol:
        return CounterBasedProtocol(
            ctx,
            counter_threshold=counter_threshold,
            delay_interval_s=delay_interval_s,
        )

    def distance(ctx: ProtocolContext) -> DistanceBasedProtocol:
        return DistanceBasedProtocol(
            ctx,
            border_threshold_dbm=border_threshold_dbm,
            delay_interval_s=delay_interval_s,
        )

    return {
        "flooding": flooding,
        "flood+jit": jittered,
        "gossip": gossip,
        "counter": counter,
        "distance": distance,
        "AEDB": params,
    }


def compare_protocols(
    suite: dict[str, AEDBParams | ProtocolFactory],
    scenarios: list[NetworkScenario],
) -> ProtocolComparison:
    """Run every protocol of ``suite`` on every scenario."""
    if not suite:
        raise ValueError("protocol suite is empty")
    if not scenarios:
        raise ValueError("scenario list is empty")
    comparison = ProtocolComparison(
        density_per_km2=scenarios[0].density_per_km2,
        n_networks=len(scenarios),
    )
    for name, protocol in suite.items():
        outcome = ProtocolOutcome(name=name)
        for scenario in scenarios:
            # Every protocol of the suite shares one precomputed runtime
            # per scenario (beacons are protocol-independent).
            outcome.per_network.append(
                simulate_protocol(scenario, protocol, runtime=get_runtime(scenario))
            )
        comparison.outcomes[name] = outcome
    return comparison


def render_comparison(comparison: ProtocolComparison) -> str:
    """Text table of the comparison (example/bench output)."""
    lines = [
        f"Broadcast-protocol comparison — {comparison.density_per_km2:.0f} "
        f"dev/km^2, {comparison.n_networks} networks",
        f"  {'protocol':>12s} {'reach':>7s} {'SRB':>7s} {'energy':>9s} "
        f"{'fwd':>7s} {'time':>8s}",
    ]
    for name, out in comparison.outcomes.items():
        m = out.mean
        lines.append(
            f"  {name:>12s} {out.reachability:>7.2%} "
            f"{out.saved_rebroadcasts:>7.2%} {m.energy_dbm:>9.1f} "
            f"{m.forwardings:>7.1f} {m.broadcast_time_s:>7.3f}s"
        )
    return "\n".join(lines)
