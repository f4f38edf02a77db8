"""The shared radio medium: frame transmission and collision resolution.

Model (a deliberate abstraction of ns3's 802.11 PHY, documented in
DESIGN.md §4/§7):

* A data frame occupies the single shared channel for ``frame_airtime_s``.
* Reception is resolved at frame end.  A receiver decodes the frame iff

  1. it is not itself transmitting during any overlap (half duplex),
  2. the frame's RX power clears the detection threshold, and
  3. the frame's RX power exceeds the *power sum* of all time-overlapping
     other frames at that receiver by at least ``capture_threshold_db``
     (SINR capture; interferers below the detection threshold still count
     toward the interference sum).

* Propagation delay (d/c, < 2 µs at these ranges) is folded into the
  frame-end timestamp and is irrelevant next to millisecond airtimes, so
  positions are sampled at the frame midpoint.

Resolution is vectorised: the frame and all overlapping senders stack
into one ``(k, n)`` distance/path-loss computation, and delivery
candidates come from a single boolean mask instead of a per-receiver
Python scan.  Energy and frame counts are running accumulators (O(1)
readout); per-frame ``delivered_to`` lists are recorded only when
``record_deliveries`` is requested.

The medium knows nothing about AEDB: it reports per-receiver outcomes to a
delivery callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.manet.config import RadioConfig
from repro.manet.events import EventQueue
from repro.manet.mobility import MobilityModel
from repro.manet.propagation import build_path_loss
from repro.utils.units import dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.manet.runtime import ScenarioRuntime

__all__ = ["Frame", "RadioMedium"]


@dataclass(slots=True)
class Frame:
    """One in-flight broadcast data frame."""

    sender: int
    tx_power_dbm: float
    start_s: float
    end_s: float
    #: Sequence number assigned by the medium (stable ordering).
    seq: int = 0
    #: Receivers that successfully decoded this frame.  Filled at
    #: resolution only when the medium records deliveries.
    delivered_to: list[int] = field(default_factory=list)

    def overlaps(self, other: "Frame") -> bool:
        """True if the two frames share any airtime."""
        return self.start_s < other.end_s and other.start_s < self.end_s


#: Delivery callback signature: (receiver, frame, rx_power_dbm, time_s).
DeliveryCallback = Callable[[int, "Frame", float, float], None]


class RadioMedium:
    """Single-channel broadcast medium with SINR capture.

    Parameters
    ----------
    queue:
        The simulation's event queue (frame-end events are scheduled on it).
    mobility:
        Position oracle for path-loss computation.
    radio:
        Physical-layer constants.
    on_delivery:
        Called once per (receiver, frame) successful decode.
    runtime:
        Optional :class:`~repro.manet.runtime.ScenarioRuntime`; shares its
        path-loss model and memoised position snapshots (frame midpoints
        that recur across same-scenario evaluations hit the memo).
    record_deliveries:
        Keep per-frame ``delivered_to`` lists.  Off by default — the
        metrics never need them; tests and diagnostics opt in.
    """

    def __init__(
        self,
        queue: EventQueue,
        mobility: MobilityModel,
        radio: RadioConfig,
        on_delivery: DeliveryCallback,
        runtime: "ScenarioRuntime | None" = None,
        record_deliveries: bool = False,
    ):
        if runtime is not None:
            # The runtime's precomputed substrate is bound to its
            # scenario's physics; mixing it with a different radio or
            # trace would resolve frames with inconsistent models.
            if radio != runtime.sim.radio:
                raise ValueError(
                    "radio config conflicts with the runtime's scenario"
                )
            if mobility is not runtime.mobility:
                raise ValueError(
                    "explicit mobility conflicts with the runtime's trace"
                )
        self._queue = queue
        self._mobility = mobility
        self._radio = radio
        self._runtime = runtime
        self._loss = (
            runtime.path_loss if runtime is not None else build_path_loss(radio)
        )
        self._on_delivery = on_delivery
        self._record_deliveries = bool(record_deliveries)
        self._active: list[Frame] = []
        self._recent: list[Frame] = []  # ended frames kept for overlap checks
        self._seq = 0
        # Hot-loop constants and running accumulators (O(1) readout).
        self._capture_lin = 10.0 ** (radio.capture_threshold_db / 10.0)
        self._min_tx = float(radio.min_tx_power_dbm)
        self._max_tx = float(radio.default_tx_power_dbm)
        self._detection_dbm = float(radio.detection_threshold_dbm)
        self._airtime_s = float(radio.frame_airtime_s)
        self._energy_dbm = 0.0
        self._n_frames = 0
        self._n_resolved = 0
        #: All frames ever transmitted (for metrics/inspection).
        self.history: list[Frame] = []

    # ------------------------------------------------------------------ #
    # transmission                                                       #
    # ------------------------------------------------------------------ #
    def transmit(self, sender: int, tx_power_dbm: float, time_s: float) -> Frame:
        """Start a frame at ``time_s``; resolution happens at frame end."""
        power = min(max(float(tx_power_dbm), self._min_tx), self._max_tx)
        frame = Frame(
            sender=sender,
            tx_power_dbm=power,
            start_s=time_s,
            end_s=time_s + self._airtime_s,
            seq=self._seq,
        )
        self._seq += 1
        self._active.append(frame)
        self.history.append(frame)
        self._energy_dbm += power
        self._n_frames += 1
        self._queue.post(frame.end_s, lambda t, f=frame: self._resolve(f, t))
        return frame

    # ------------------------------------------------------------------ #
    # resolution                                                         #
    # ------------------------------------------------------------------ #
    def _overlapping(self, frame: Frame) -> list[Frame]:
        """All other frames sharing airtime with ``frame``."""
        pool = self._active + self._recent
        return [f for f in pool if f is not frame and f.overlaps(frame)]

    def _positions_at(self, time_s: float) -> np.ndarray:
        if self._runtime is not None:
            return self._runtime.positions_at(time_s)
        return self._mobility.positions_at(time_s)

    def _resolve(self, frame: Frame, time_s: float) -> None:
        """Frame-end event: decide which nodes decoded ``frame``."""
        self._n_resolved += 1
        active = self._active
        recent = self._recent
        active.remove(frame)
        # Keep the frame around for overlap checks against transmissions
        # that started during its airtime and have not yet ended.
        recent.append(frame)
        if recent[0].end_s < time_s - 2.0 * self._airtime_s:
            self._gc_recent(time_s)

        positions = self._positions_at(0.5 * (frame.start_s + frame.end_s))
        # Quiet channel (nothing else in flight, the frame alone in the
        # recent window): skip the overlap scan entirely.
        if not active and len(recent) == 1:
            overlap: list[Frame] = []
        else:
            overlap = self._overlapping(frame)

        if overlap:
            # One stacked (k, n) distance/path-loss computation for the
            # frame and every overlapping sender (row 0 is the frame).
            senders = [frame.sender] + [other.sender for other in overlap]
            powers = np.array(
                [frame.tx_power_dbm] + [other.tx_power_dbm for other in overlap]
            )
            diff = positions[None, :, :] - positions[senders][:, None, :]
            dist = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
            rx_all = self._loss.rx_power_dbm(powers[:, None], dist)
            rx_dbm = rx_all[0]
            # Interference power sum per receiver, in mW.  Rows accumulate
            # sequentially in overlap order (bit-stable summation).
            interference_mw = np.zeros(positions.shape[0])
            for row in rx_all[1:]:
                interference_mw += dbm_to_mw(row)
            signal_mw = dbm_to_mw(rx_dbm)
            clear = np.where(
                interference_mw > 0.0,
                signal_mw >= self._capture_lin * interference_mw,
                True,
            )
            eligible = (rx_dbm >= self._detection_dbm) & clear
            eligible[senders] = False  # half duplex / own frame
        else:
            # Clean channel (the common case): zero interference always
            # clears capture, so only detection and half-duplex matter.
            diff = positions - positions[frame.sender]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            rx_dbm = self._loss.rx_power_dbm(frame.tx_power_dbm, dist)
            eligible = rx_dbm >= self._detection_dbm
            eligible[frame.sender] = False

        record = self._record_deliveries
        receivers = np.nonzero(eligible)[0]
        if receivers.size == 0:
            return
        on_delivery = self._on_delivery
        rx_list = rx_dbm.tolist()  # exact python floats, one conversion
        for r in receivers.tolist():
            if record:
                frame.delivered_to.append(r)
            on_delivery(r, frame, rx_list[r], time_s)

    def _gc_recent(self, time_s: float) -> None:
        """Drop ended frames that can no longer overlap anything new.

        Only called when there is something to drop: _resolve gates the
        call on the oldest entry having left the window (append order
        is frame-end order), so the common quiet-channel case never
        pays the rebuild.
        """
        window = 2.0 * self._airtime_s
        self._recent = [f for f in self._recent if f.end_s >= time_s - window]

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def transmission_count(self) -> int:
        """Total frames ever put on the air."""
        return self._n_frames

    @property
    def resolved_count(self) -> int:
        """Frames whose end-of-airtime resolution has run (frames still
        in flight at the horizon never resolve)."""
        return self._n_resolved

    def energy_dbm_total(self) -> float:
        """Sum of TX powers in raw dBm — the paper's energy objective.

        O(1): accumulated at transmit time in ``history`` append order.
        """
        return self._energy_dbm
