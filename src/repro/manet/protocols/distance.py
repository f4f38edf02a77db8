"""Distance-based broadcasting at fixed power (EDB without the A).

The direct ancestor of AEDB: a node forwards only if every transmitter
it heard the message from is far enough away — measured, as in AEDB's
cross-layer design, by received signal strength against a *border
threshold* (stronger copy = closer transmitter = smaller additional
coverage from forwarding).  Duplicates heard during the assessment delay
update the strongest-copy tracker and can cancel the forwarding.

It is AEDB's state machine with the retransmission always at the default
(full) power: comparing the two isolates exactly what the paper's
adaptive power selection and density switch (Fig. 1 lines 19-24) buy.
"""

from __future__ import annotations

from repro.manet.aedb import AEDBParams, AEDBProtocol
from repro.manet.broadcast import ProtocolContext, delay_window

__all__ = ["DistanceBasedProtocol"]


class DistanceBasedProtocol(AEDBProtocol):
    """Border-threshold suppression, full-power forwarding."""

    name = "distance"

    def __init__(
        self,
        ctx: ProtocolContext,
        border_threshold_dbm: float = -90.0,
        delay_interval_s: tuple[float, float] = (0.0, 0.1),
    ):
        #: Uniform window for the assessment delay, s.
        self.delay_interval_s = delay_window(delay_interval_s)
        #: Forwarding-area border: forward only if the strongest copy
        #: heard is at most this power (all transmitters far enough away).
        self.border_threshold_dbm = float(border_threshold_dbm)
        super().__init__(
            ctx, AEDBParams(*self.delay_interval_s, self.border_threshold_dbm)
        )

    def _select_tx_power(self, node: int, time_s: float) -> float:
        return self._max_tx_dbm
