"""Pinned metrics of the pure-Python broadcast window.

The compiled kernel covers random-walk and static traces only, so
random-waypoint and gauss-markov networks always run the per-event
reference path (``RadioMedium._resolve`` -> ``AEDBProtocol.on_receive``).
These pins fix that path bit for bit: ``BroadcastMetrics`` of 75-node
(300 dev/km²) networks under three parameter vectors, as exact
``float.hex`` strings, with the runtime substrate attached and without.

One vector (near-zero delays, widest forwarding area) makes forwarders
fire inside each other's airtime, so the set exercises the collision
branch of ``_resolve`` — the golden fixture's 8-node networks rarely
collide.  ``test_set_contains_collisions`` guards that coverage.
"""

from __future__ import annotations

import pytest

from repro.manet import AEDBParams, make_scenarios
from repro.manet.runtime import ScenarioRuntime
from repro.manet.simulator import BroadcastSimulator

PARAMS = (
    AEDBParams(),
    AEDBParams(0.0, 0.05, -70.0, 3.0, 50.0),
    AEDBParams(0.4, 2.5, -85.0, 0.5, 5.0),
)

#: (mobility, network index, PARAMS index) ->
#: (coverage, energy_dbm, forwardings, broadcast_time_s) as float.hex.
PINS = {
    ("random-waypoint", 0, 0): (
        "0x1.2800000000000p+6", "0x1.d257fe53848c2p+7",
        "0x1.e000000000000p+3", "0x1.a1797c60b5f00p+0",
    ),
    ("random-waypoint", 0, 1): (
        "0x1.2400000000000p+6", "0x1.f09eb851eb84bp+9",
        "0x1.e800000000000p+5", "0x1.adb082fa16900p-4",
    ),
    ("random-waypoint", 0, 2): (
        "0x1.2000000000000p+6", "0x1.560d025a67a8dp+8",
        "0x1.7000000000000p+5", "0x1.f13ad04d31da8p+2",
    ),
    ("random-waypoint", 1, 0): (
        "0x1.2400000000000p+6", "0x1.befc5d243a0d2p+7",
        "0x1.e000000000000p+3", "0x1.566b442f5d120p+1",
    ),
    ("random-waypoint", 1, 1): (
        "0x1.1800000000000p+6", "0x1.cc87a324984d3p+9",
        "0x1.c800000000000p+5", "0x1.bc8ad2ba0ce00p-5",
    ),
    ("random-waypoint", 1, 2): (
        "0x1.e800000000000p+5", "0x1.f9a29e4bc4ea5p+7",
        "0x1.1800000000000p+5", "0x1.06cdc0118edf8p+3",
    ),
    ("gauss-markov", 0, 0): (
        "0x1.2800000000000p+6", "0x1.fa9a75ea3f639p+7",
        "0x1.1000000000000p+4", "0x1.4c2189a13dd30p+0",
    ),
    ("gauss-markov", 0, 1): (
        "0x1.2000000000000p+6", "0x1.b88ccccccccc7p+9",
        "0x1.b000000000000p+5", "0x1.6a2dcca49cb00p-4",
    ),
    ("gauss-markov", 0, 2): (
        "0x1.3000000000000p+5", "0x1.0c4007592412cp+7",
        "0x1.0000000000000p+4", "0x1.9dc10c91fa1f0p+1",
    ),
    ("gauss-markov", 1, 0): (
        "0x1.2800000000000p+6", "0x1.dba7e382b03cap+7",
        "0x1.0000000000000p+4", "0x1.838eca9620430p+0",
    ),
    ("gauss-markov", 1, 1): (
        "0x1.2800000000000p+6", "0x1.0051eb851eb82p+10",
        "0x1.f800000000000p+5", "0x1.3f9c0a4d43900p-4",
    ),
    ("gauss-markov", 1, 2): (
        "0x1.0800000000000p+6", "0x1.c6e6f019c962ap+7",
        "0x1.f000000000000p+4", "0x1.3ccb4273978a8p+3",
    ),
}


def _scenario(mobility: str, index: int):
    return make_scenarios(300, n_networks=2, mobility_model=mobility)[index]


def _run(mobility: str, index: int, p_index: int, with_runtime: bool):
    scenario = _scenario(mobility, index)
    runtime = ScenarioRuntime(scenario) if with_runtime else None
    sim = BroadcastSimulator(
        scenario, PARAMS[p_index], runtime=runtime, compiled="off"
    )
    return sim, sim.run()


@pytest.mark.parametrize("with_runtime", [False, True], ids=["recompute", "runtime"])
@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
def test_metrics_pinned(key, with_runtime):
    _, m = _run(*key, with_runtime)
    got = tuple(
        float(v).hex()
        for v in (m.coverage, m.energy_dbm, m.forwardings, m.broadcast_time_s)
    )
    assert got == PINS[key]


def test_set_contains_collisions():
    """At least one resolved frame overlapped another frame's airtime."""
    collided = 0
    for key in PINS:
        sim, _ = _run(*key, with_runtime=False)
        horizon = sim.scenario.sim.horizon_s
        history = sim.medium.history
        collided += sum(
            1
            for f in history
            if f.end_s <= horizon
            and any(g is not f and g.overlaps(f) for g in history)
        )
    assert collided > 0
