"""Probabilistic (gossip) broadcasting.

On first reception each node flips a biased coin: with probability ``p``
it arms a random assessment delay and then retransmits at full power;
with probability ``1 - p`` it stays silent.  The scheme from Ni et
al. [12] (and the optimisation target of Abdou et al. [1], cited in the
paper's related work): redundancy falls linearly with ``p``, but so does
the reachability guarantee in sparse regions — exactly the trade-off
AEDB's adaptive border test avoids.
"""

from __future__ import annotations

from repro.manet.broadcast import BroadcastProtocol, ProtocolContext, delay_window

__all__ = ["ProbabilisticProtocol"]


class ProbabilisticProtocol(BroadcastProtocol):
    """Gossip: forward once with fixed probability ``p``."""

    name = "probabilistic"

    def __init__(
        self,
        ctx: ProtocolContext,
        forward_probability: float = 0.5,
        delay_interval_s: tuple[float, float] = (0.0, 0.1),
    ):
        super().__init__(ctx)
        if not 0.0 <= forward_probability <= 1.0:
            raise ValueError(
                f"forward_probability must be in [0, 1], got {forward_probability}"
            )
        #: Probability that a receiving node retransmits.
        self.forward_probability = float(forward_probability)
        #: Uniform window for the pre-forward delay, s.
        self.delay_interval_s = delay_window(delay_interval_s)

    def _on_first_copy(
        self, node: int, sender: int, rx_power_dbm: float, time_s: float
    ) -> None:
        if self._rng.uniform() < self.forward_probability:
            self._arm_timer(node, time_s, self._draw_delay(self.delay_interval_s))
        else:
            self._drop(node, time_s, "coin")

    def _on_timer(self, node: int, time_s: float) -> None:
        self._forward(node, time_s)
