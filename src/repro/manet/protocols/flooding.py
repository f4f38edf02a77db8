"""Simple flooding — the broadcast storm itself.

Every node retransmits the message exactly once, at full power, on first
reception.  With the default zero delay window, retransmissions are
near-simultaneous (desynchronised only by MAC jitter) and collide
heavily — the storm in its purest form, the energy/forwardings *worst
case* that motivates AEDB (Sect. I of the paper, via Ni et al. [12]).
Passing a non-degenerate ``delay_interval_s`` gives *jittered flooding*,
the standard storm mitigation that trades latency for fewer collisions
while keeping full redundancy.
"""

from __future__ import annotations

from repro.manet.broadcast import BroadcastProtocol, ProtocolContext, delay_window

__all__ = ["FloodingProtocol"]


class FloodingProtocol(BroadcastProtocol):
    """Blind flooding: first copy -> one full-power retransmission."""

    name = "flooding"

    def __init__(
        self,
        ctx: ProtocolContext,
        delay_interval_s: tuple[float, float] = (0.0, 0.0),
    ):
        super().__init__(ctx)
        #: Uniform window for the pre-forward delay, s.  (0, 0) = blind
        #: flooding; a wider window = jittered flooding.
        self.delay_interval_s = delay_window(delay_interval_s)

    def _on_first_copy(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        # No suppression statistic: the timer only spaces transmissions.
        self._arm_timer(node, time_s, self._draw_delay(self.delay_interval_s))

    def _on_timer(self, node: int, time_s: float) -> None:
        self._forward(node, time_s)
