"""Baseline broadcast protocols (the broadcast-storm context of Sect. I).

The paper motivates AEDB against the *broadcast storm problem* (Ni et
al. [12]): naive flooding wastes energy and bandwidth on redundant
retransmissions.  This subpackage implements the classic suppression
schemes from that literature as drop-in protocols for the same simulator
AEDB runs on, so the AEDB trade-off can be measured against the
baselines it improves upon:

* :class:`FloodingProtocol` — every node retransmits once (the storm);
* :class:`ProbabilisticProtocol` — retransmit with fixed probability;
* :class:`CounterBasedProtocol` — drop after hearing ``c`` copies;
* :class:`DistanceBasedProtocol` — AEDB's border test at fixed
  transmission power (EDB without the A).

Every scheme, AEDB included, is a :class:`BroadcastProtocol` subclass
(:mod:`repro.manet.broadcast`).  A protocol factory
``ProtocolContext -> protocol`` runs through
:class:`~repro.manet.simulator.BroadcastSimulator` like
:class:`~repro.manet.aedb.AEDBParams` does (:func:`simulate_protocol`),
and every scheme is scored with the same four metrics as AEDB
(coverage, energy, forwardings, broadcast time).
"""

from repro.manet.broadcast import BroadcastProtocol, NodePhase, ProtocolContext
from repro.manet.protocols.compare import (
    ProtocolComparison,
    ProtocolOutcome,
    compare_protocols,
    simulate_protocol,
    standard_protocol_suite,
)
from repro.manet.protocols.counter import CounterBasedProtocol
from repro.manet.protocols.distance import DistanceBasedProtocol
from repro.manet.protocols.flooding import FloodingProtocol
from repro.manet.protocols.probabilistic import ProbabilisticProtocol

__all__ = [
    "BroadcastProtocol",
    "NodePhase",
    "ProtocolContext",
    "FloodingProtocol",
    "ProbabilisticProtocol",
    "CounterBasedProtocol",
    "DistanceBasedProtocol",
    "simulate_protocol",
    "ProtocolComparison",
    "ProtocolOutcome",
    "compare_protocols",
    "standard_protocol_suite",
]
