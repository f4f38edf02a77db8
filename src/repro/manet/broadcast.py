"""Shared state-machine scaffolding for broadcast protocols.

Every suppression scheme in the broadcast-storm literature follows the
same skeleton: the first copy of the message puts the node into a
*waiting* state (possibly with an assessment timer armed), duplicates
heard while waiting feed the suppression statistic, and when the timer
fires the node either forwards once or drops.  :class:`BroadcastProtocol`
implements that skeleton — reception bookkeeping, timer management,
transmission with MAC jitter, decision logging — and subclasses supply
only the three scheme-specific hooks:

* :meth:`BroadcastProtocol._on_first_copy` — first reception;
* :meth:`BroadcastProtocol._on_duplicate` — copies heard while waiting;
* :meth:`BroadcastProtocol._on_timer` — the forwarding decision.

AEDB (:class:`repro.manet.aedb.AEDBProtocol`) is one such subclass, and
so is every baseline of :mod:`repro.manet.protocols`.  The radio medium
drives ``start_broadcast`` / ``on_receive``; the simulator
(:class:`repro.manet.simulator.BroadcastSimulator`) wires both up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.manet.beacons import NeighborTables
from repro.manet.config import RadioConfig
from repro.manet.events import EventHandle, EventQueue
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.manet.runtime import UniformStream

__all__ = [
    "BroadcastProtocol",
    "NodePhase",
    "ProtocolContext",
    "ProtocolFactory",
    "delay_window",
    "require_finite",
]


class NodePhase(enum.Enum):
    """Per-node phase for the current broadcast message.

    The definition order is the compiled kernel's state-code order.
    """

    IDLE = "idle"  # never received the message
    WAITING = "waiting"  # received; assessment timer armed
    DROPPED = "dropped"  # received; decided not to forward
    FORWARDED = "forwarded"  # received and retransmitted


#: Transmit callback: (sender, tx_power_dbm, time_s) -> None
TransmitFn = Callable[[int, float, float], None]


@dataclass
class ProtocolContext:
    """Everything the simulator wires into a protocol instance.

    A protocol factory receives one of these and returns a protocol
    object; the indirection keeps protocol constructors free to take
    scheme parameters while the simulator stays scheme-agnostic.
    """

    n_nodes: int
    queue: EventQueue
    tables: NeighborTables
    radio: RadioConfig
    transmit: TransmitFn
    #: Any object with a Generator-compatible ``uniform`` (the
    #: runtime's replay stream included), or a seed for one.
    rng: np.random.Generator | UniformStream | int | None
    mac_jitter_s: float = 0.0005


#: Builds a protocol instance from the simulator-provided context.
ProtocolFactory = Callable[[ProtocolContext], object]


def require_finite(name: str, *values: float) -> None:
    """Reject a NaN or infinite scheme parameter, naming it.

    Every comparison with NaN is false, so a NaN threshold would
    silently disable a suppression test instead of failing.
    """
    for value in values:
        if not math.isfinite(value):
            shown = "NaN" if math.isnan(value) else value
            raise ValueError(f"{name} is {shown}")


def delay_window(delay_interval_s) -> tuple[float, float]:
    """A scheme's ``delay_interval_s`` as two finite floats."""
    window = (float(delay_interval_s[0]), float(delay_interval_s[1]))
    require_finite("delay_interval_s", *window)
    return window


class BroadcastProtocol:
    """Base class: one dissemination attempt over ``n_nodes`` devices.

    Subclasses decide *whether and when* a node forwards; the base class
    owns every piece of bookkeeping the metrics and the medium need.
    ``record_decisions=False`` leaves :attr:`decisions` empty (the
    per-event formatting is measurable in tight evaluation loops).
    """

    #: Human-readable scheme label (overridden by subclasses).
    name = "base"

    def __init__(self, ctx: ProtocolContext, record_decisions: bool = True):
        self.ctx = ctx
        self.n_nodes = n = int(ctx.n_nodes)
        if n <= 0:
            raise ValueError(f"n_nodes must be positive, got {ctx.n_nodes}")
        self._queue = ctx.queue
        self._radio = ctx.radio
        self._transmit = ctx.transmit
        # Protocols only ever draw uniforms, so any object with a
        # Generator-compatible ``uniform`` is used as is — in particular
        # the runtime's precomputed replay stream.
        rng = ctx.rng
        self._rng = rng if callable(getattr(rng, "uniform", None)) else as_generator(rng)
        self._mac_jitter_s = float(ctx.mac_jitter_s)
        self._max_tx_dbm = float(ctx.radio.default_tx_power_dbm)

        self.phase = [NodePhase.IDLE] * n
        #: Time of first successful reception per node (NaN = never).
        self.first_rx_time = np.full(n, np.nan)
        #: ``[i, j]`` — node ``i`` heard the message *from* node ``j``
        #: (``j`` already has it).
        self._heard_from = np.zeros((n, n), dtype=bool)
        self._timers: list[EventHandle | None] = [None] * n
        self._record_decisions = bool(record_decisions)
        #: Decision log ``(time, node, what)`` for tests and diagnostics.
        self.decisions: list[tuple[float, int, str]] = []

    # ------------------------------------------------------------------ #
    # message origin                                                     #
    # ------------------------------------------------------------------ #
    def start_broadcast(self, source: int, time_s: float) -> None:
        """Source node seeds the dissemination at the default power."""
        if not (0 <= source < self.n_nodes):
            raise ValueError(f"source {source} out of range")
        self.phase[source] = NodePhase.FORWARDED
        self.first_rx_time[source] = time_s
        if self._record_decisions:
            self.decisions.append((time_s, source, "source"))
        self._transmit(source, self._max_tx_dbm, time_s)

    # ------------------------------------------------------------------ #
    # reception path                                                     #
    # ------------------------------------------------------------------ #
    def on_receive(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        """Radio delivered a copy of the message to ``node``."""
        self._heard_from[node, sender] = True
        phase = self.phase[node]
        if phase is NodePhase.IDLE:
            self.first_rx_time[node] = time_s
            self._on_first_copy(node, sender, rx_power_dbm, time_s)
        elif phase is NodePhase.WAITING:
            self._on_duplicate(node, sender, rx_power_dbm, time_s)
        # DROPPED / FORWARDED: the decision is final; duplicates ignored.

    # ------------------------------------------------------------------ #
    # subclass hooks                                                     #
    # ------------------------------------------------------------------ #
    def _on_first_copy(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        """Decide the node's reaction to its first copy of the message."""
        raise NotImplementedError

    def _on_duplicate(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        """React to a copy heard while WAITING (default: ignore)."""

    def _on_timer(self, node: int, time_s: float) -> None:
        """Assessment timer fired; make the forwarding decision."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared actions for subclasses                                      #
    # ------------------------------------------------------------------ #
    def _arm_timer(self, node: int, time_s: float, delay_s: float) -> None:
        """Move ``node`` to WAITING with the timer armed ``delay_s`` >= 0
        from now (a :meth:`_draw_delay` draw)."""
        self.phase[node] = NodePhase.WAITING
        self._timers[node] = self._queue.schedule(
            time_s + delay_s, lambda t, n=node: self._fire_timer(n, t)
        )
        if self._record_decisions:
            self.decisions.append((time_s, node, f"arm:{delay_s:.4f}"))

    def _fire_timer(self, node: int, time_s: float) -> None:
        self._timers[node] = None
        if self.phase[node] is NodePhase.WAITING:
            self._on_timer(node, time_s)

    def _forward(
        self, node: int, time_s: float, power_dbm: float | None = None
    ) -> None:
        """Retransmit at ``power_dbm`` (default: full power) + MAC jitter."""
        power = self._max_tx_dbm if power_dbm is None else power_dbm
        self.phase[node] = NodePhase.FORWARDED
        if self._record_decisions:
            self.decisions.append((time_s, node, f"forward:{power:.2f}dBm"))
        jitter = (
            float(self._rng.uniform(0.0, self._mac_jitter_s))
            if self._mac_jitter_s > 0
            else 0.0
        )
        self._transmit(node, power, time_s + jitter)

    def _drop(self, node: int, time_s: float, reason: str) -> None:
        """Final negative decision for ``node``."""
        self.phase[node] = NodePhase.DROPPED
        if self._record_decisions:
            self.decisions.append((time_s, node, f"drop:{reason}"))

    def _draw_delay(self, interval: tuple[float, float]) -> float:
        """Uniform draw from an (ordered, clamped-at-zero) delay window."""
        lo, hi = interval
        lo, hi = (lo, hi) if lo <= hi else (hi, lo)
        lo, hi = max(lo, 0.0), max(hi, 0.0)
        return float(self._rng.uniform(lo, hi)) if hi > lo else lo

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
                if self.phase[i] is NodePhase.FORWARDED
            ],
            dtype=int,
        )
