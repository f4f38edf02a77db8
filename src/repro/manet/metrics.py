"""Broadcast performance metrics (Sect. III-A of the paper).

The four standard metrics, with the exact conventions used to match the
paper's Fig. 6 axes (see DESIGN.md §4):

* **coverage** — number of devices, excluding the source, that received
  the broadcast message;
* **energy** — the sum of the transmission powers of *all* data frames in
  raw dBm (the only reading consistent with the paper's negative-valued
  energy axis);
* **forwardings** — number of devices that retransmitted after receiving
  (the source's seed transmission is not a forwarding);
* **broadcast_time** — time between the source's transmission and the last
  first-reception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BroadcastMetrics", "aggregate_metrics"]


@dataclass(frozen=True)
class BroadcastMetrics:
    """Outcome of one simulated dissemination."""

    #: Devices (excl. source) that received the message.
    coverage: float
    #: Sum of data-frame TX powers, raw dBm.
    energy_dbm: float
    #: Retransmissions (excl. the source's seed frame).
    forwardings: float
    #: Last first-reception minus source send time, s (0 if nobody heard).
    broadcast_time_s: float
    #: Number of nodes in the network (for coverage ratios).
    n_nodes: int = 0

    @property
    def coverage_ratio(self) -> float:
        """Coverage as a fraction of the non-source population."""
        if self.n_nodes <= 1:
            return 0.0
        return self.coverage / (self.n_nodes - 1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """(coverage, energy, forwardings, broadcast_time)."""
        return (
            self.coverage,
            self.energy_dbm,
            self.forwardings,
            self.broadcast_time_s,
        )

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"coverage={self.coverage:.1f}/{max(self.n_nodes - 1, 0)} "
            f"energy={self.energy_dbm:.1f}dBm "
            f"forwardings={self.forwardings:.1f} "
            f"bt={self.broadcast_time_s:.3f}s"
        )


def aggregate_metrics(samples: list[BroadcastMetrics]) -> BroadcastMetrics:
    """Average a list of per-network metrics (the paper's 10-network mean).

    ``n_nodes`` must agree across samples (they are the same scenario at
    different seeds); it is carried through unchanged.

    One reduction for all four metrics: each row of the C-contiguous
    ``(4, n)`` table is reduced with numpy's pairwise sum, which is
    bitwise what ``np.mean`` of that metric's 1-D list gives, for any
    ``n``.
    """
    if not samples:
        raise ValueError("cannot aggregate an empty metrics list")
    n_nodes = samples[0].n_nodes
    if any(m.n_nodes != n_nodes for m in samples):
        raise ValueError(
            f"mixed n_nodes in aggregation: {sorted({m.n_nodes for m in samples})}"
        )
    table = np.array([m.as_tuple() for m in samples], dtype=np.float64).T.copy()
    # ``np.mean`` is this sum divided by the count.
    means = np.add.reduce(table, axis=1) / len(samples)
    coverage, energy, forwardings, broadcast_time = means.tolist()
    return BroadcastMetrics(coverage, energy, forwardings, broadcast_time, n_nodes)
