"""Golden digests of the broadcast-protocol comparison and decision logs.

The standard suite (flooding, jittered flooding, gossip, counter,
distance and AEDB) on two 100 dev/km² (25-node) and two 300 dev/km²
(75-node) networks: one digest per density hashes every per-network
metric as ``float.hex``, in suite order.  A second set of digests hashes
each protocol's decision log ``(time, node, decision)`` on the first
network of each density.  AEDB's log is pinned on the pure window and
through the compiled kernel, to the same digest.

A digest moves if any scheme's state machine, its RNG draw order, the
shared substrate (beacons, medium, queue) or the metric readout changes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.manet import AEDBParams, make_scenarios
from repro.manet.protocols import (
    compare_protocols,
    simulate_protocol,
    standard_protocol_suite,
)
from repro.manet.runtime import get_runtime
from repro.manet.simulator import BroadcastSimulator

MASTER_SEED = 2013
DENSITIES = (100, 300)
BASELINES = ("flooding", "flood+jit", "gossip", "counter", "distance")

#: density -> digest of every per-network metric of every protocol.
METRIC_PINS = {
    100: "aae3fd880101ff0b",
    300: "5051f6c2e57a7cfa",
}

#: (density, protocol) -> digest of the decision log on network 0.
DECISION_PINS = {
    (100, "flooding"): "e9a2bf14a3444a2f",
    (100, "flood+jit"): "217c5857fbcf7f07",
    (100, "gossip"): "8f2a09ad14f8dbfe",
    (100, "counter"): "fec11cc88b290fba",
    (100, "distance"): "ae92993f09a3d2e9",
    (100, "AEDB"): "ba81447aa0be1ba1",
    (300, "flooding"): "083bbcff46d54034",
    (300, "flood+jit"): "a7be6bc6fed61d22",
    (300, "gossip"): "ce8af76d7d2fe4dd",
    (300, "counter"): "493d79c818046c9a",
    (300, "distance"): "2bbf8fb9dc2e8208",
    (300, "AEDB"): "956d568778ab404f",
}

COMPILED = ["off", pytest.param("auto", marks=pytest.mark.compiled)]


def _scenarios(density: int):
    return make_scenarios(density, n_networks=2, master_seed=MASTER_SEED)


def _log_digest(decisions) -> str:
    h = hashlib.sha256()
    for t, node, what in decisions:
        h.update(f"{float(t).hex()}|{int(node)}|{what};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("density", DENSITIES)
def test_comparison_metrics_pinned(density):
    comparison = compare_protocols(standard_protocol_suite(), _scenarios(density))
    h = hashlib.sha256()
    for name, outcome in comparison.outcomes.items():
        h.update(name.encode())
        for m in outcome.per_network:
            h.update(
                ",".join(
                    float(v).hex()
                    for v in (
                        m.coverage, m.energy_dbm, m.forwardings,
                        m.broadcast_time_s,
                    )
                ).encode()
            )
    assert h.hexdigest()[:16] == METRIC_PINS[density]


@pytest.mark.parametrize("name", BASELINES)
@pytest.mark.parametrize("density", DENSITIES)
def test_baseline_decision_log_pinned(density, name):
    scenario = _scenarios(density)[0]
    factory = standard_protocol_suite()[name]
    built = []

    def capture(ctx):
        built.append(factory(ctx))
        return built[-1]

    simulate_protocol(scenario, capture, runtime=get_runtime(scenario))
    assert _log_digest(built[0].decisions) == DECISION_PINS[(density, name)]


@pytest.mark.parametrize("compiled", COMPILED)
@pytest.mark.parametrize("density", DENSITIES)
def test_aedb_decision_log_pinned(density, compiled):
    scenario = _scenarios(density)[0]
    sim = BroadcastSimulator(
        scenario, AEDBParams(), runtime=get_runtime(scenario),
        record_decisions=True, compiled=compiled,
    )
    sim.run()
    assert sim.compiled_active == (compiled == "auto")
    assert _log_digest(sim.protocol.decisions) == DECISION_PINS[(density, "AEDB")]
