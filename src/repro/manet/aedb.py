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
  §6).  When the timer fires, the candidate re-runs the border test
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

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.manet.broadcast import BroadcastProtocol, ProtocolContext, require_finite

__all__ = ["AEDBParams", "AEDBProtocol"]


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
        values = (
            self.min_delay_s, self.max_delay_s, self.border_threshold_dbm,
            self.margin_threshold_db, self.neighbors_threshold,
        )
        if all(map(math.isfinite, values)):
            return
        for (name, _, _), value in zip(self.DOMAINS, values):
            require_finite(f"AEDB parameter {name}", value)

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
        floats = np.asarray(values, dtype=float).ravel().tolist()
        if len(floats) != len(cls.DOMAINS):
            raise ValueError(
                f"expected {len(cls.DOMAINS)} values, got {len(floats)}"
            )
        # The fields are declared in DOMAINS order.
        return cls(*floats)

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


class AEDBProtocol(BroadcastProtocol):
    """AEDB instances for all nodes of one network, for one message.

    The Fig. 1 logic on :class:`BroadcastProtocol`'s skeleton: the
    border test on the first copy, the ``pmin`` tracker on duplicates,
    and on the timer the border re-test, then the adaptive power.
    """

    name = "AEDB"

    def __init__(
        self,
        ctx: ProtocolContext,
        params: AEDBParams,
        record_decisions: bool = True,
    ):
        super().__init__(ctx, record_decisions)
        self.params = params
        self._tables = ctx.tables
        # Hot-path constants hoisted once (params and radio are frozen
        # dataclasses; attribute chains per delivery are measurable).
        radio = ctx.radio
        self._border_dbm = float(params.border_threshold_dbm)
        self._delay_window = params.delay_interval
        self._neighbors_threshold = float(params.neighbors_threshold)
        self._margin_db = float(params.margin_threshold_db)
        self._required_dbm = float(radio.detection_threshold_dbm)
        self._min_tx_dbm = float(radio.min_tx_power_dbm)
        # Scratch for _select_tx_power's mask (never live across calls).
        self._select_mask = np.empty(self.n_nodes, dtype=bool)
        #: Strongest copy heard per node (the paper's ``pmin``), dBm.
        self.strongest_copy_dbm = np.full(self.n_nodes, -np.inf)

    # ------------------------------------------------------------------ #
    # reception path (Fig. 1 lines 1–15)                                 #
    # ------------------------------------------------------------------ #
    def _on_first_copy(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        """Fig. 1 lines 3–11: the border test, then the timer
        (``k_first_copy`` in the kernel)."""
        self.strongest_copy_dbm[node] = rx_power_dbm
        if rx_power_dbm > self._border_dbm:
            # Transmitter too close: outside the forwarding area.
            self._drop(node, time_s, "border-first")
        else:
            self._arm_timer(node, time_s, self._draw_delay(self._delay_window))

    def _on_duplicate(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        # Fig. 1 line 12: track the closest transmitter heard so far.
        if rx_power_dbm > self.strongest_copy_dbm[node]:
            self.strongest_copy_dbm[node] = rx_power_dbm

    # ------------------------------------------------------------------ #
    # timer path (Fig. 1 lines 16–26)                                    #
    # ------------------------------------------------------------------ #
    def _on_timer(self, node: int, time_s: float) -> None:
        if self.strongest_copy_dbm[node] > self._border_dbm:
            # A transmitter got too close while we were waiting.
            self._drop(node, time_s, "border-timer")
        else:
            self._forward(node, time_s, self._select_tx_power(node, time_s))

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
