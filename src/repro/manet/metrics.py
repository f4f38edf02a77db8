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
    different seeds); it is carried through unchanged.  Each field's
    mean is bitwise ``np.mean`` of that field's 1-D list, for any
    number of samples (:func:`_mean`).
    """
    if not samples:
        raise ValueError("cannot aggregate an empty metrics list")
    coverage, energy, forwardings, broadcast_time, nodes = zip(*[
        (m.coverage, m.energy_dbm, m.forwardings, m.broadcast_time_s, m.n_nodes)
        for m in samples
    ])
    n_nodes = nodes[0]
    if nodes.count(n_nodes) != len(nodes):
        raise ValueError(f"mixed n_nodes in aggregation: {sorted(set(nodes))}")
    return BroadcastMetrics(
        _mean(coverage), _mean(energy), _mean(forwardings),
        _mean(broadcast_time), n_nodes,
    )


def _mean(values: tuple[float, ...]) -> float:
    """``np.mean`` of a float64 vector, in plain floats and bit for bit:
    numpy's pairwise sum added to the reduction's ``0.0`` identity,
    divided by the count."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _pairwise_sum(values: tuple[float, ...]) -> float:
    """numpy's ``pairwise_sum``: a plain loop below 8 values; up to 128,
    eight interleaved accumulators combined as a tree, then the tail;
    above, two halves split at a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            acc = [a + v for a, v in zip(acc, values[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for v in values[end:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
