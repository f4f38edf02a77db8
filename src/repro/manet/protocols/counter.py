"""Counter-based broadcasting.

The node counts copies of the message heard during a random assessment
window; if ``counter_threshold`` or more copies arrive before the timer
fires, its own retransmission would be redundant (the neighbourhood is
evidently saturated) and it drops.  From Ni et al. [12]: the counter is a
cheap, position-free proxy for local density — the same quantity AEDB's
``neighbors_threshold`` reads from beacon tables.
"""

from __future__ import annotations

import numpy as np

from repro.manet.broadcast import (
    BroadcastProtocol,
    ProtocolContext,
    delay_window,
    require_finite,
)

__all__ = ["CounterBasedProtocol"]


class CounterBasedProtocol(BroadcastProtocol):
    """Counter scheme: drop after hearing ``c`` copies while waiting."""

    name = "counter"

    def __init__(
        self,
        ctx: ProtocolContext,
        counter_threshold: int = 3,
        delay_interval_s: tuple[float, float] = (0.0, 0.1),
    ):
        super().__init__(ctx)
        require_finite("counter_threshold", counter_threshold)
        if counter_threshold != int(counter_threshold):
            raise ValueError(
                f"counter_threshold must be a whole number, got "
                f"{counter_threshold}"
            )
        if counter_threshold < 1:
            raise ValueError(
                f"counter_threshold must be >= 1, got {counter_threshold}"
            )
        #: Copies (including the first) that cancel the forwarding.
        self.counter_threshold = int(counter_threshold)
        #: Uniform window for the assessment delay, s.
        self.delay_interval_s = delay_window(delay_interval_s)
        #: Copies of the message heard per node (first + duplicates,
        #: those after the decision included).
        self.copies_heard = np.zeros(self.n_nodes, dtype=int)

    def on_receive(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        self.copies_heard[node] += 1
        super().on_receive(node, sender, rx_power_dbm, time_s)

    def _on_first_copy(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        self._arm_timer(node, time_s, self._draw_delay(self.delay_interval_s))

    def _on_timer(self, node: int, time_s: float) -> None:
        # ``copies_heard`` includes the first copy, matching the classic
        # formulation (threshold c: forward while counter < c).
        if self.copies_heard[node] >= self.counter_threshold:
            self._drop(node, time_s, f"counter:{self.copies_heard[node]}")
        else:
            self._forward(node, time_s)
