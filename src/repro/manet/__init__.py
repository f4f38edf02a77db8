"""Discrete-event MANET broadcast simulator (the repo's ns3 substitute).

This subpackage provides everything needed to *score* an AEDB parameter
configuration the way the paper does with ns3:

* :mod:`repro.manet.mobility` — random-walk node mobility in a bounded
  square arena (speed and heading redrawn every epoch, reflective walls);
* :mod:`repro.manet.propagation` — log-distance path loss with the ns3
  default constants, dBm in / dBm out;
* :mod:`repro.manet.beacons` — 1 Hz HELLO beaconing that maintains the
  per-node neighbour tables (neighbour id -> last beacon RX power), the
  cross-layer information AEDB relies on;
* :mod:`repro.manet.medium` — the shared radio medium: frame scheduling,
  half-duplex constraint and SINR-capture collision resolution;
* :mod:`repro.manet.aedb` — the AEDB protocol state machine (Fig. 1 of the
  paper): forwarding-area test, delay window with duplicate suppression,
  and adaptive transmission-power selection;
* :mod:`repro.manet.simulator` — ties the above into a single broadcast
  experiment and extracts the four metrics (coverage, energy, forwardings,
  broadcast time);
* :mod:`repro.manet.scenarios` — the fixed evaluation networks (10 per
  density, as in the paper);
* :mod:`repro.manet.runtime` — the per-scenario cache of the
  parameter-independent substrate (beacon-table timeline, position
  snapshots, path-loss model) that makes repeated evaluations on the
  same network skip the whole beacon cost;
* :mod:`repro.manet.compiled` — dispatch for the optional compiled
  event core (``repro.manet._evcore``, built by ``setup.py
  build_ext``): bit-identical to the pure path, selected by
  ``REPRO_COMPILED``, falling back automatically (DESIGN.md §14).
"""

from repro.manet.aedb import AEDBParams
from repro.manet.compiled import (
    compiled_core_available,
    compiled_core_reason,
)
from repro.manet.config import (
    MobilityConfig,
    RadioConfig,
    SimulationConfig,
)
from repro.manet.metrics import BroadcastMetrics
from repro.manet.runtime import (
    ScenarioRuntime,
    clear_runtime_cache,
    get_runtime,
    runtime_cache_size,
    set_runtime_memoisation,
)
from repro.manet.scenarios import (
    MOBILITY_MODELS,
    NetworkScenario,
    make_scenarios,
    nodes_for_density,
)
from repro.manet.simulator import BroadcastSimulator, simulate_broadcast

__all__ = [
    "compiled_core_available",
    "compiled_core_reason",
    "AEDBParams",
    "RadioConfig",
    "MobilityConfig",
    "SimulationConfig",
    "BroadcastMetrics",
    "BroadcastSimulator",
    "simulate_broadcast",
    "NetworkScenario",
    "make_scenarios",
    "nodes_for_density",
    "MOBILITY_MODELS",
    "ScenarioRuntime",
    "get_runtime",
    "set_runtime_memoisation",
    "clear_runtime_cache",
    "runtime_cache_size",
]
