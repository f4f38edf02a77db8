"""HELLO beaconing and per-node neighbour tables.

AEDB is a cross-layer protocol: every node broadcasts a HELLO beacon each
second at the *default* power, and receivers record the RX power of each
neighbour's latest beacon.  Those recorded powers are the only channel
knowledge a node has — the forwarding-area membership test and the
adaptive TX-power estimate are both computed from them (Sect. III of the
paper).

Beacon rounds are resolved *vectorised*: one ``(n, n)`` path-loss matrix
per round (the HPC guide's "vectorise the hot loop").  Beacons are assumed
collision-free — they are tiny, jittered in real systems, and the paper
uses them only as a neighbour-discovery mechanism; this simplification is
recorded in DESIGN.md §7.

Beacon state is *parameter-independent*: every round sends at the default
power on the fixed schedule, so the table timeline is a pure function of
``(scenario, mobility)``.  When a
:class:`~repro.manet.runtime.ScenarioRuntime` is supplied, rounds on the
canonical grid restore the precomputed snapshot in O(1) instead of
recomputing the O(n²) loss matrix; off-grid rounds fall back to the
incremental update (copy-on-write off the read-only snapshot), which is
bit-identical either way (DESIGN.md §8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.manet.config import RadioConfig, SimulationConfig
from repro.manet.geometry import pairwise_distances
from repro.manet.mobility import MobilityModel
from repro.manet.propagation import build_path_loss
from repro.utils.units import DBM_MINUS_INF

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.manet.runtime import ScenarioRuntime

__all__ = ["NeighborTables", "freshness_mask"]


def freshness_mask(last_seen, time_s: float, expiry_s: float):
    """THE freshness predicate: is an entry still live at ``time_s``?

    An entry is live iff ``time_s - last_seen <= expiry_s`` (boundary
    inclusive: an entry seen exactly ``expiry_s`` ago is still live).
    Elementwise over whatever ``last_seen`` is — a table row or the full
    matrix — so every query shares one float expression (the compiled
    kernel replicates it, DESIGN.md §14).
    """
    return (time_s - last_seen) <= expiry_s


class NeighborTables:
    """Matrix-backed neighbour tables for all nodes at once.

    ``rx_power[i, j]`` is the RX power (dBm) at node ``i`` of node ``j``'s
    most recent beacon, and ``last_seen[i, j]`` its timestamp.  An entry is
    a *live* neighbour at time ``t`` iff a beacon was heard and
    ``t - last_seen <= neighbor_expiry_s``.
    """

    def __init__(
        self,
        n_nodes: int,
        sim: SimulationConfig,
        mobility: MobilityModel,
        radio: RadioConfig | None = None,
        runtime: "ScenarioRuntime | None" = None,
    ):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if runtime is not None and radio is not None:
            raise ValueError(
                "pass either a runtime or an explicit radio, not both "
                "(the runtime's snapshots are bound to the scenario's radio)"
            )
        if runtime is not None and runtime.scenario.n_nodes != n_nodes:
            raise ValueError(
                "runtime was precomputed for a different network size "
                f"({runtime.scenario.n_nodes} != {n_nodes})"
            )
        if runtime is not None and mobility is not runtime.mobility:
            raise ValueError(
                "explicit mobility conflicts with the runtime's trace"
            )
        if runtime is not None and sim != runtime.sim:
            raise ValueError(
                "simulation config conflicts with the runtime's scenario"
            )
        self.n_nodes = int(n_nodes)
        self._sim = sim
        self._radio = radio or sim.radio
        self._mobility = mobility
        self._runtime = runtime
        if runtime is not None:
            self._loss = runtime.path_loss
            # Shared read-only pristine state; beacon_round copies on
            # write, and grid rounds just swap in snapshots.
            self.rx_power, self.last_seen = runtime.initial_tables
        else:
            self._loss = build_path_loss(self._radio)
            self.rx_power = np.full((n_nodes, n_nodes), DBM_MINUS_INF)
            self.last_seen = np.full((n_nodes, n_nodes), -np.inf)
        # Snapshots may be restored only while the tables replay the
        # canonical timeline *in order from the start* — a restored
        # snapshot embeds every earlier canonical round.  ``_next_tick``
        # indexes the next expected canonical time; any other round
        # (off-grid, skipped, or out of order) diverges for good and
        # switches the instance to incremental-only updates.
        self._next_tick: int | None = 0 if runtime is not None else None
        self.rounds_run = 0

    # ------------------------------------------------------------------ #
    # updates                                                            #
    # ------------------------------------------------------------------ #
    def beacon_round(self, time_s: float) -> None:
        """Everyone beacons at default power; update all tables at once.

        With a runtime, rounds that replay the canonical schedule in
        order swap in the precomputed (read-only) snapshots; the first
        round that deviates — off-grid, skipped, or out of order —
        leaves the canonical timeline for good and every round from then
        on recomputes incrementally (copying shared state before
        writing), so the state sequence matches the runtime-less path
        exactly for *any* call sequence.
        """
        if self._runtime is not None:
            if self._next_tick is not None:
                times = self._runtime.beacon_times
                snapshot = (
                    self._runtime.table_snapshot(time_s)
                    if self._next_tick < len(times)
                    and times[self._next_tick] == time_s
                    else None
                )
                if snapshot is not None:
                    self.rx_power, self.last_seen = snapshot
                    self._next_tick += 1
                    self.rounds_run += 1
                    return
                self._next_tick = None
            positions = self._runtime.positions_at(time_s)
        else:
            positions = self._mobility.positions_at(time_s)
        dist = pairwise_distances(positions)
        rx = self._loss.rx_power_dbm(self._radio.default_tx_power_dbm, dist)
        heard = rx >= self._radio.detection_threshold_dbm
        np.fill_diagonal(heard, False)
        if not self.rx_power.flags.writeable:
            self.rx_power = self.rx_power.copy()
            self.last_seen = self.last_seen.copy()
        np.copyto(self.rx_power, rx, where=heard)
        np.copyto(self.last_seen, time_s, where=heard)
        self.rounds_run += 1

    def run_schedule(self, start_s: float, end_s: float) -> int:
        """Run beacon rounds at every interval tick in ``[start, end]``.

        Returns the number of rounds executed.  Used to warm tables up to
        the broadcast injection time without going through the event queue
        (beacons never interact with data frames in this model).  Tick
        times are indexed from integers (``start + k * interval``), never
        accumulated, so long schedules cannot drift off the nominal grid.
        """
        interval = self._sim.beacon_interval_s
        count = 0
        while True:
            t = start_s + count * interval
            if t > end_s + 1e-12:
                break
            self.beacon_round(t)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # queries (all from the point of view of node ``i``)                 #
    # ------------------------------------------------------------------ #
    def live_mask(self, i: int, time_s: float) -> np.ndarray:
        """Boolean mask over nodes: fresh neighbour entries of ``i``."""
        fresh = freshness_mask(
            self.last_seen[i], time_s, self._sim.neighbor_expiry_s
        )
        fresh[i] = False
        return fresh

    def neighbors_of(self, i: int, time_s: float) -> np.ndarray:
        """Ids of live neighbours of ``i``."""
        return np.flatnonzero(self.live_mask(i, time_s))

    def beacon_rx_from(self, i: int, j: int) -> float:
        """Latest beacon RX power at ``i`` from ``j`` (dBm)."""
        return float(self.rx_power[i, j])

    def link_loss_db(self, i: int, j: int) -> float:
        """Estimated path loss of link ``i``-``j`` from ``j``'s beacon.

        Beacons are sent at default power, so loss = default - rx; channel
        reciprocity makes this the loss in both directions, which is what
        lets a node compute the power needed to *reach* a neighbour.
        """
        return self._radio.default_tx_power_dbm - self.beacon_rx_from(i, j)

    def degree(self, i: int, time_s: float) -> int:
        """Number of live neighbours of node ``i``."""
        return int(np.count_nonzero(self.live_mask(i, time_s)))

    def mean_degree(self, time_s: float) -> float:
        """Average node degree — a density diagnostic used by scenarios."""
        fresh = freshness_mask(
            self.last_seen, time_s, self._sim.neighbor_expiry_s
        )
        np.fill_diagonal(fresh, False)
        return float(np.count_nonzero(fresh)) / self.n_nodes
