"""The AEDB protocol (Adaptive Enhanced Distance-Based broadcasting).

Implements the Fig. 1 pseudocode of the paper (Ruiz & Bouvry 2010 protocol)
as a per-node state machine driven by the radio medium:

* **Forwarding-area test** — on the first copy of the broadcast message, a
  node computes the received power ``p`` and becomes a forwarding
  candidate only if the transmitter is far enough away, i.e. ``p`` is at
  most ``border_threshold``.  Candidates arm a random delay drawn
  uniformly from the delay interval.
* **Duplicate suppression** — copies heard while waiting update the
  strongest-copy tracker (the paper's ``pmin``; it tracks the *closest*
  transmitter, hence minimum distance == maximum power — see DESIGN.md
  §4/§7).  When the timer fires, the candidate re-runs the border test
  against the tracker and silently drops if some transmitter got (or was)
  too close.
* **Adaptive power** — a surviving candidate chooses its TX power from its
  beacon-derived neighbour table: if more than ``neighbors_threshold``
  neighbours sit inside its own forwarding area, it shrinks its range to
  the *closest* such potential forwarder (dense regime — shedding far
  neighbours saves energy at no connectivity cost); otherwise it reaches
  its *furthest* neighbour, excluding nodes it already heard the message
  from (sparse regime — preserve connectivity).  ``margin_threshold`` dB
  of headroom is added for mobility, and the result is clamped to the
  radio's power limits.

The class is medium-agnostic: the simulator wires ``on_receive`` to radio
deliveries and ``transmit`` back to the medium.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.manet.beacons import NeighborTables
from repro.manet.config import RadioConfig
from repro.manet.events import EventHandle, EventQueue
from repro.utils.rng import as_generator

__all__ = ["AEDBParams", "AEDBNodeState", "AEDBProtocol"]


@dataclass(frozen=True)
class AEDBParams:
    """The five tunable AEDB parameters (the optimisation variables).

    Domains are Table III of the paper; :meth:`clipped` projects arbitrary
    vectors back into them.  ``min_delay > max_delay`` is representable
    (the optimiser explores the box), and the protocol interprets the
    delay interval as ``[min(lo, hi), max(lo, hi)]``.
    """

    #: Lower edge of the forwarding-delay window, s.  Domain [0, 1].
    min_delay_s: float = 0.0
    #: Upper edge of the forwarding-delay window, s.  Domain [0, 5].
    max_delay_s: float = 1.0
    #: Forwarding-area border, dBm.  Domain [-95, -70].  A node forwards
    #: only if the strongest copy it heard is at most this power (i.e. all
    #: transmitters are far enough away).  Higher (less negative) values
    #: enlarge the forwarding area.
    border_threshold_dbm: float = -90.0
    #: Mobility headroom added to the estimated TX power, dB.  Domain [0, 3].
    margin_threshold_db: float = 1.0
    #: Density switch: with more than this many neighbours inside the
    #: node's forwarding area, power shrinks to the closest of them.
    #: Domain [0, 50].
    neighbors_threshold: float = 10.0

    #: Table III domains, in canonical variable order.
    DOMAINS = (
        ("min_delay_s", 0.0, 1.0),
        ("max_delay_s", 0.0, 5.0),
        ("border_threshold_dbm", -95.0, -70.0),
        ("margin_threshold_db", 0.0, 3.0),
        ("neighbors_threshold", 0.0, 50.0),
    )

    def __post_init__(self) -> None:
        # A non-finite field is rejected, naming it: :meth:`clipped`
        # cannot project NaN (``max(nan, lo)`` is ``nan``), and NaN or
        # +-inf would otherwise be simulated as a plausible-looking
        # configuration.
        for name, _, _ in self.DOMAINS:
            value = getattr(self, name)
            if not math.isfinite(value):
                shown = "NaN" if math.isnan(value) else value
                raise ValueError(f"AEDB parameter {name} is {shown}")

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """Canonical variable names, in vector order."""
        return tuple(name for name, _, _ in cls.DOMAINS)

    @classmethod
    def lower_bounds(cls) -> np.ndarray:
        """Vector of Table III lower bounds."""
        return np.array([lo for _, lo, _ in cls.DOMAINS])

    @classmethod
    def upper_bounds(cls) -> np.ndarray:
        """Vector of Table III upper bounds."""
        return np.array([hi for _, _, hi in cls.DOMAINS])

    @classmethod
    def from_array(cls, values) -> "AEDBParams":
        """Build from a length-5 vector in canonical order."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size != len(cls.DOMAINS):
            raise ValueError(
                f"expected {len(cls.DOMAINS)} values, got {arr.size}"
            )
        return cls(**{name: float(v) for (name, _, _), v in zip(cls.DOMAINS, arr)})

    def as_array(self) -> np.ndarray:
        """The parameter vector in canonical order."""
        return np.array([getattr(self, name) for name in self.names()])

    def clipped(self) -> "AEDBParams":
        """A copy with every field projected into its Table III domain."""
        updates = {}
        for name, lo, hi in self.DOMAINS:
            val = getattr(self, name)
            updates[name] = float(min(max(val, lo), hi))
        return replace(self, **updates)

    @property
    def delay_interval(self) -> tuple[float, float]:
        """The effective (ordered, non-negative) delay window in seconds."""
        lo, hi = self.min_delay_s, self.max_delay_s
        lo, hi = (lo, hi) if lo <= hi else (hi, lo)
        return (max(lo, 0.0), max(hi, 0.0))


class AEDBNodeState(enum.Enum):
    """Per-node protocol phase for the current broadcast message."""

    IDLE = "idle"  # never received the message
    WAITING = "waiting"  # received; forwarding timer armed
    DROPPED = "dropped"  # received; decided not to forward
    FORWARDED = "forwarded"  # received and retransmitted


#: Transmit callback: (sender, tx_power_dbm, time_s) -> None
TransmitFn = Callable[[int, float, float], None]


class AEDBProtocol:
    """AEDB instances for all nodes of one network, for one message."""

    def __init__(
        self,
        params: AEDBParams,
        n_nodes: int,
        queue: EventQueue,
        tables: NeighborTables,
        radio: RadioConfig,
        transmit: TransmitFn,
        rng: np.random.Generator | int | None = None,
        mac_jitter_s: float = 0.0005,
        record_decisions: bool = True,
    ):
        self.params = params
        self.n_nodes = int(n_nodes)
        self._queue = queue
        self._tables = tables
        self._radio = radio
        self._transmit = transmit
        # The protocol only ever draws uniforms, so any object with a
        # Generator-compatible ``uniform`` is accepted — in particular
        # the runtime's precomputed replay stream
        # (:class:`repro.manet.runtime.UniformStream`).
        if callable(getattr(rng, "uniform", None)):
            self._rng = rng
        else:
            self._rng = as_generator(rng)
        self._mac_jitter_s = float(mac_jitter_s)
        # Hot-path constants hoisted once (params and radio are frozen
        # dataclasses; attribute chains per delivery are measurable).
        self._border_dbm = float(params.border_threshold_dbm)
        self._delay_lo, self._delay_hi = params.delay_interval
        self._neighbors_threshold = float(params.neighbors_threshold)
        self._margin_db = float(params.margin_threshold_db)
        self._required_dbm = float(radio.detection_threshold_dbm)
        self._min_tx_dbm = float(radio.min_tx_power_dbm)
        self._max_tx_dbm = float(radio.default_tx_power_dbm)

        self.state = [AEDBNodeState.IDLE] * n_nodes
        # Scratch for _select_tx_power's mask (never live across calls).
        self._select_mask = np.empty(n_nodes, dtype=bool)
        #: Strongest copy heard per node (the paper's ``pmin``), dBm.
        self.strongest_copy_dbm = np.full(n_nodes, -np.inf)
        #: Time of first successful reception per node (NaN = never).
        self.first_rx_time = np.full(n_nodes, np.nan)
        #: ``[i, j]`` — node ``i`` heard the message *from* node ``j``
        #: (``j`` already has it).  A boolean matrix so the power
        #: selection can mask candidates without a per-id Python scan.
        self._heard_from = np.zeros((n_nodes, n_nodes), dtype=bool)
        self._timers: list[EventHandle | None] = [None] * n_nodes
        self._record_decisions = bool(record_decisions)
        #: Decision log, for tests and diagnostics (empty when
        #: ``record_decisions=False`` — the per-event formatting is
        #: measurable in tight evaluation loops).
        self.decisions: list[tuple[float, int, str]] = []

    # ------------------------------------------------------------------ #
    # message origin                                                     #
    # ------------------------------------------------------------------ #
    def start_broadcast(self, source: int, time_s: float) -> None:
        """Source node seeds the dissemination at the default power."""
        if not (0 <= source < self.n_nodes):
            raise ValueError(f"source {source} out of range")
        self.state[source] = AEDBNodeState.FORWARDED
        self.first_rx_time[source] = time_s
        if self._record_decisions:
            self.decisions.append((time_s, source, "source"))
        self._transmit(source, self._radio.default_tx_power_dbm, time_s)

    # ------------------------------------------------------------------ #
    # reception path (Fig. 1 lines 1–15)                                 #
    # ------------------------------------------------------------------ #
    def _first_copy(self, node: int, rx_power_dbm: float, time_s: float) -> None:
        """First reception at an IDLE node (Fig. 1 lines 3–11): the
        border test and timer arming (``k_first_copy`` in the kernel)."""
        self.first_rx_time[node] = time_s
        self.strongest_copy_dbm[node] = rx_power_dbm
        if rx_power_dbm > self._border_dbm:
            # Transmitter too close: outside the forwarding area.
            self.state[node] = AEDBNodeState.DROPPED
            if self._record_decisions:
                self.decisions.append((time_s, node, "drop:border-first"))
            return
        self.state[node] = AEDBNodeState.WAITING
        lo, hi = self._delay_lo, self._delay_hi
        delay = float(self._rng.uniform(lo, hi)) if hi > lo else lo
        self._timers[node] = self._queue.schedule(
            time_s + delay, lambda t, n=node: self._on_timer(n, t)
        )
        if self._record_decisions:
            self.decisions.append((time_s, node, f"arm:{delay:.4f}"))

    def on_receive(self, node: int, sender: int, rx_power_dbm: float, time_s: float) -> None:
        """Radio delivered a copy of the message to ``node``."""
        self._heard_from[node, sender] = True
        state = self.state[node]

        if state is AEDBNodeState.IDLE:
            self._first_copy(node, rx_power_dbm, time_s)
        elif state is AEDBNodeState.WAITING:
            # Fig. 1 line 12: track the closest transmitter heard so far.
            if rx_power_dbm > self.strongest_copy_dbm[node]:
                self.strongest_copy_dbm[node] = rx_power_dbm
        # DROPPED / FORWARDED: duplicates are ignored.

    # ------------------------------------------------------------------ #
    # timer path (Fig. 1 lines 16–26)                                    #
    # ------------------------------------------------------------------ #
    def _on_timer(self, node: int, time_s: float) -> None:
        self._timers[node] = None
        if self.state[node] is not AEDBNodeState.WAITING:
            return
        if self.strongest_copy_dbm[node] > self._border_dbm:
            # A transmitter got too close while we were waiting.
            self.state[node] = AEDBNodeState.DROPPED
            if self._record_decisions:
                self.decisions.append((time_s, node, "drop:border-timer"))
            return
        power = self._select_tx_power(node, time_s)
        self.state[node] = AEDBNodeState.FORWARDED
        if self._record_decisions:
            self.decisions.append((time_s, node, f"forward:{power:.2f}dBm"))
        jitter = (
            float(self._rng.uniform(0.0, self._mac_jitter_s))
            if self._mac_jitter_s > 0
            else 0.0
        )
        self._transmit(node, power, time_s + jitter)

    # ------------------------------------------------------------------ #
    # adaptive power selection (Fig. 1 lines 19–24)                      #
    # ------------------------------------------------------------------ #
    def _select_tx_power(self, node: int, time_s: float) -> float:
        tables = self._tables
        live = tables.live_mask(node, time_s)
        neighbor_rx = tables.rx_power[node]

        # Potential forwarders: live neighbours inside *this node's*
        # forwarding area (they would hear us below the border threshold,
        # by reciprocity of the beacon-measured loss).  Selections run
        # masked (argmax/argmin over ±inf-filled copies) instead of
        # materialising id vectors: a live neighbour always has a real
        # beacon rx, so the mask fill can never win the extremum, and
        # ties resolve to the lowest id exactly as the id-vector
        # spelling did.
        in_forwarding_area = np.less_equal(
            neighbor_rx, self._border_dbm, out=self._select_mask
        )
        in_forwarding_area &= live

        if np.count_nonzero(in_forwarding_area) > self._neighbors_threshold:
            # Dense regime: shrink range to the closest potential
            # forwarder (the strongest beacon among them) — far neighbours
            # are deliberately shed.
            target = int(
                np.where(in_forwarding_area, neighbor_rx, -np.inf).argmax()
            )
        else:
            # Sparse regime: reach the furthest neighbour, excluding nodes
            # the message was heard from (they already have it).  For
            # booleans ``live & ~heard`` is exactly ``live > heard`` —
            # one ufunc instead of two.
            candidates = np.greater(live, self._heard_from[node])
            if not candidates.any():
                # No usable neighbour knowledge: fall back to full power.
                return self._max_tx_dbm
            target = int(np.where(candidates, neighbor_rx, np.inf).argmin())

        loss = tables.link_loss_db(node, target)
        power = self._required_dbm + loss + self._margin_db
        return float(min(max(power, self._min_tx_dbm), self._max_tx_dbm))

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #
    def covered_nodes(self) -> np.ndarray:
        """Ids of nodes that received the message (including the source)."""
        return np.flatnonzero(~np.isnan(self.first_rx_time))

    def forwarder_nodes(self) -> np.ndarray:
        """Ids of nodes that (re)transmitted, including the source."""
        return np.array(
            [
                i
                for i in range(self.n_nodes)
                if self.state[i] is AEDBNodeState.FORWARDED
            ],
            dtype=int,
        )
