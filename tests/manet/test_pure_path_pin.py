"""Pinned metrics of the broadcast window, pure and compiled.

``BroadcastMetrics`` of 75-node (300 dev/km²) random-waypoint and
gauss-markov networks under three parameter vectors, as exact
``float.hex`` strings, with the runtime substrate attached and without.
With ``compiled="off"`` they fix the per-event reference path
(``RadioMedium._resolve`` -> ``AEDBProtocol.on_receive``) bit for bit;
with ``compiled="auto"`` the runtime runs go through the kernel's leg
table and tick grid and must land on the same bits (runs without a
runtime stay pure either way).  ``positions_at`` of the waypoint and
direction models is pinned too, at t = 0, mid-leg, exactly on a leg end
and past the last leg.

One vector (near-zero delays, widest forwarding area) makes forwarders
fire inside each other's airtime, so the set exercises the collision
branch of ``_resolve`` — the golden fixture's 8-node networks rarely
collide.  ``test_set_contains_collisions`` guards that coverage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.manet import AEDBParams, make_scenarios
from repro.manet.mobility import RandomDirectionMobility, RandomWaypointMobility
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


#: Small multi-leg itineraries (4 nodes, 60 m arena, 80 s horizon; the
#: direction model pauses 2 s at each wall).
TRACES = {
    "random-waypoint": lambda: RandomWaypointMobility(
        4, 60.0, 80.0, speed_min_mps=1.0, speed_max_mps=3.0, rng=5
    ),
    "random-direction": lambda: RandomDirectionMobility(
        4, 60.0, 80.0, speed_min_mps=1.0, speed_max_mps=3.0, pause_s=2.0,
        rng=5,
    ),
}

#: (model, query time) -> positions_at(t).ravel() as float.hex.  The
#: times are t = 0, the midpoint and the end of node 0's second leg (a
#: pause for the direction model), and 10 s past the last leg's end.
POSITION_PINS = {
    ("random-waypoint", "0x0.0p+0"): (
        "0x1.8266c25f81faap+5", "0x1.83cfc3a56adfap+5",
        "0x1.d94d564b1ae8ap+4", "0x1.44cf9669df9dbp+5",
        "0x1.863ed5817c1a5p+3", "0x1.37f1e7823adc5p+4",
        "0x1.95909af934a8bp+5", "0x1.612a5ed23325ep+4",
    ),
    ("random-waypoint", "0x1.2a5bf66359003p+5"): (
        "0x1.af5f92b0e673cp+4", "0x1.4d40760880ae4p+4",
        "0x1.5e24a81ba1c12p+5", "0x1.2854efaf6b9dap+3",
        "0x1.c2bcab5cdcc92p+4", "0x1.7177570aa4a7bp+4",
        "0x1.be7b2097887fdp+4", "0x1.3ed004d187d32p+5",
    ),
    ("random-waypoint", "0x1.52026dfc2ede2p+5"): (
        "0x1.7008bc73cace8p+4", "0x1.88225ffda4564p+4",
        "0x1.a59436d96e7afp+5", "0x1.4fc48bd77c82bp+2",
        "0x1.f8399c1e7fd5ep+3", "0x1.3a3a8196e2a9cp+4",
        "0x1.5ea20fc318a99p+4", "0x1.3a3afc483369ep+5",
    ),
    ("random-waypoint", "0x1.b0d82196e47aep+6"): (
        "0x1.aee29fde354e6p+5", "0x1.953b1c227ee3ep+5",
        "0x1.26d590a423600p-4", "0x1.e33aba69a4584p+4",
        "0x1.be8df5dc2af60p-1", "0x1.bff28d8836a04p+5",
        "0x1.7f4a8c79be444p+5", "0x1.748766e74ee3ep+3",
    ),
    ("random-direction", "0x0.0p+0"): (
        "0x1.8266c25f81faap+5", "0x1.83cfc3a56adfap+5",
        "0x1.a18cb5df0ef29p+4", "0x1.d39bffda7e5aap+5",
        "0x1.0aafa69dec5e2p+5", "0x1.0497f242a35f0p+4",
        "0x1.e33aba69a4585p+4", "0x1.a3334b7441bf7p+4",
    ),
    ("random-direction", "0x1.fe0487a6906d6p+4"): (
        "0x0.0p+0", "0x1.5e7cff1131bdcp+5",
        "0x1.310068e489d42p+5", "0x1.94d020b8d3a84p+5",
        "0x1.aa85b23f3c627p+5", "0x1.2e5caf7ea167ep+4",
        "0x1.69b0d70978cb8p+5", "0x1.782534be9e544p+5",
    ),
    ("random-direction", "0x1.070243d34836bp+5"): (
        "0x0.0p+0", "0x1.5e7cff1131bdcp+5",
        "0x1.249b97f8ac3b4p+5", "0x1.9ec1279d51fbcp+5",
        "0x1.adb1815007c4ap+5", "0x1.5a904f1211231p+4",
        "0x1.6e35a30e72988p+5", "0x1.6be3774bbe42cp+5",
    ),
    ("random-direction", "0x1.f9924ec343359p+6"): (
        "0x1.d85468d309970p+1", "0x1.0000000000000p-47",
        "0x0.0p+0", "0x1.b2020ebb33120p+2",
        "0x1.5e750d9983810p+5", "0x0.0p+0",
        "0x0.0p+0", "0x1.b0238b420d452p+4",
    ),
}

COMPILED = ["off", pytest.param("auto", marks=pytest.mark.compiled)]


def _scenario(mobility: str, index: int):
    return make_scenarios(300, n_networks=2, mobility_model=mobility)[index]


def _run(
    mobility: str, index: int, p_index: int, with_runtime: bool,
    compiled: str = "off",
):
    scenario = _scenario(mobility, index)
    runtime = ScenarioRuntime(scenario) if with_runtime else None
    sim = BroadcastSimulator(
        scenario, PARAMS[p_index], runtime=runtime, compiled=compiled
    )
    return sim, sim.run()


@pytest.mark.parametrize("compiled", COMPILED)
@pytest.mark.parametrize("with_runtime", [False, True], ids=["recompute", "runtime"])
@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
def test_metrics_pinned(key, with_runtime, compiled):
    sim, m = _run(*key, with_runtime, compiled)
    assert sim.compiled_active == (with_runtime and compiled == "auto")
    got = tuple(
        float(v).hex()
        for v in (m.coverage, m.energy_dbm, m.forwardings, m.broadcast_time_s)
    )
    assert got == PINS[key]


@pytest.mark.parametrize("key", sorted(POSITION_PINS), ids="@".join)
def test_positions_pinned(key):
    model, time_hex = key
    positions = TRACES[model]().positions_at(float.fromhex(time_hex))
    got = tuple(float(v).hex() for v in positions.ravel())
    assert got == POSITION_PINS[key]


def _scan_positions(model, time_s):
    """The per-node leg scan the vectorised ``positions_at`` replaces."""
    legs = model.legs
    out = np.empty((model.n_nodes, 2))
    for i in range(model.n_nodes):
        last = legs.count[i] - 1
        for j in range(legs.count[i]):
            if time_s < legs.end[i, j]:
                out[i] = legs.p0[i, j] + legs.vel[i, j] * (time_s - legs.start[i, j])
                break
        else:  # parked at the last leg's end
            out[i] = legs.p0[i, last] + legs.vel[i, last] * (
                legs.end[i, last] - legs.start[i, last]
            )
    return np.clip(out, 0.0, model.area_side_m)


@pytest.mark.parametrize("model", sorted(TRACES))
def test_positions_match_the_leg_scan(model):
    mobility = TRACES[model]()
    legs = mobility.legs
    ends = legs.end[np.isfinite(legs.end)]
    times = np.concatenate(
        [np.linspace(0.0, 2.0 * ends.max(), 97), ends, np.nextafter(ends, 0.0)]
    )
    for t in times.tolist():
        assert (
            mobility.positions_at(t).tobytes()
            == _scan_positions(mobility, t).tobytes()
        ), t


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
