"""Node mobility models.

:class:`RandomWalkMobility` reproduces the paper's setting (Table II):
every node draws a uniform speed in ``[speed_min, speed_max]`` and a
uniform heading, keeps them for one epoch (20 s), then redraws; walls
reflect.  Positions at *arbitrary* times are computed analytically (no
trajectory integration): per epoch the motion is ballistic, and the
reflective walls are applied with the triangle-wave fold from
:mod:`repro.manet.geometry`.

:class:`StaticMobility` pins nodes in place — used by unit tests and by
deterministic protocol examples.

Every built-in model describes its trace to the compiled kernel through
:meth:`MobilityModel.kernel_trace` (DESIGN.md §14): the kernel replays
``positions_at`` over the model's own arrays, bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.manet.config import MobilityConfig
from repro.manet.geometry import reflect_fold
from repro.utils.rng import as_generator

__all__ = [
    "KernelTrace",
    "LegTable",
    "MobilityModel",
    "RandomWalkMobility",
    "RandomWaypointMobility",
    "GaussMarkovMobility",
    "RandomDirectionMobility",
    "StaticMobility",
]


#: Kernel replay modes of :class:`KernelTrace` (mirrored in _evcore.c).
TRACE_STATIC, TRACE_EPOCHS, TRACE_LEGS, TRACE_TICKS = range(4)


class KernelTrace(NamedTuple):
    """A trace in the compiled kernel's terms (DESIGN.md §14).

    ``mode`` names the replay of ``positions_at``: fixed positions,
    random-walk epochs, a leg table, or a tick grid.  ``width`` is the
    epoch count, the leg-table width, or the tick count; ``step_s`` the
    epoch or tick length; ``fold_one`` the random walk's one-period fold
    shortcut.  ``arrays`` are the model's own buffers, read in place.
    """

    mode: int
    width: int
    step_s: float
    fold_one: bool
    arrays: tuple[np.ndarray, ...]


class MobilityModel:
    """Interface: positions of ``n_nodes`` at any time in ``[0, horizon]``."""

    n_nodes: int
    area_side_m: float

    def positions_at(self, time_s: float) -> np.ndarray:
        """``(n_nodes, 2)`` array of coordinates at ``time_s``."""
        raise NotImplementedError

    def position_of(self, node: int, time_s: float) -> np.ndarray:
        """Convenience: ``(2,)`` coordinates of one node at ``time_s``."""
        return self.positions_at(time_s)[node]

    def kernel_trace(self) -> KernelTrace | None:
        """The trace for the compiled kernel, or None to stay on the pure
        path.  A model that defines ``positions_at`` must define this
        too, or the kernel will not replay it."""
        return None


class StaticMobility(MobilityModel):
    """Nodes that never move; positions given explicitly."""

    def __init__(self, positions: np.ndarray, area_side_m: float):
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {pos.shape}")
        if np.any(pos < 0) or np.any(pos > area_side_m):
            raise ValueError("positions must lie inside the arena")
        self._pos = pos.copy()
        # Handed out directly by positions_at on every query, so it must
        # be read-only: one caller write would silently corrupt every
        # later query (and any runtime built on this trace).  Matches the
        # snapshot discipline of repro.manet.runtime.
        self._pos.setflags(write=False)
        self.n_nodes = pos.shape[0]
        self.area_side_m = float(area_side_m)

    def positions_at(self, time_s: float) -> np.ndarray:
        return self._pos

    def kernel_trace(self) -> KernelTrace:
        return KernelTrace(TRACE_STATIC, 1, 0.0, False, (self._pos,))


class RandomWalkMobility(MobilityModel):
    """Random-walk (random direction) mobility with reflective walls.

    The full trajectory over ``[0, horizon]`` is determined at construction
    from the RNG: initial positions are uniform in the arena; for each
    epoch ``k`` a per-node velocity vector is drawn; epoch-start positions
    are propagated with reflection.  ``positions_at`` is then O(n) with no
    state mutation, so it is safe to query out of order (the event queue
    does not process times monotonically across networks).
    """

    def __init__(
        self,
        n_nodes: int,
        area_side_m: float,
        horizon_s: float,
        config: MobilityConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if area_side_m <= 0:
            raise ValueError(f"area_side_m must be positive, got {area_side_m}")
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be non-negative, got {horizon_s}")
        cfg = config or MobilityConfig()
        gen = as_generator(rng)

        self.n_nodes = int(n_nodes)
        self.area_side_m = float(area_side_m)
        self.horizon_s = float(horizon_s)
        self.config = cfg

        n_epochs = max(1, int(np.ceil(horizon_s / cfg.epoch_s)) + 1)
        self._epoch_s = cfg.epoch_s
        # Velocities per epoch: speed ~ U[min,max], heading ~ U[0, 2pi).
        speeds = gen.uniform(
            cfg.speed_min_mps, cfg.speed_max_mps, size=(n_epochs, n_nodes)
        )
        headings = gen.uniform(0.0, 2.0 * np.pi, size=(n_epochs, n_nodes))
        self._vel = np.stack(
            [speeds * np.cos(headings), speeds * np.sin(headings)], axis=-1
        )  # (epochs, n, 2)
        # Epoch-start positions, propagated with reflection.
        starts = np.empty((n_epochs, n_nodes, 2))
        starts[0] = gen.uniform(0.0, area_side_m, size=(n_nodes, 2))
        for k in range(1, n_epochs):
            unfolded = starts[k - 1] + self._vel[k - 1] * cfg.epoch_s
            starts[k] = reflect_fold(unfolded, area_side_m)
        self._starts = starts
        self._n_epochs = n_epochs
        # One epoch's displacement per axis is bounded by speed_max *
        # epoch_s; when that stays under the arena side, every unfolded
        # coordinate lies within one fold period of [0, side] and the
        # triangle-wave fold reduces to "add the period to the (rare)
        # negatives" — floor-mod is exact there, so the shortcut is
        # bit-identical to np.mod (the compiled kernel uses it,
        # DESIGN.md §14).
        self._fold_is_one_period = (
            cfg.speed_max_mps * cfg.epoch_s < area_side_m
        )
        # Per-epoch: can ANY coordinate go negative during the epoch?
        # x(dt) = start + v*dt is monotone in dt, so the epoch-wide
        # minimum is start + min(v, 0) * epoch_s; epochs where it stays
        # >= 0 let the kernel skip the negative-fix scan entirely.
        self._epoch_has_negative = (
            (self._starts + np.minimum(self._vel, 0.0) * cfg.epoch_s) < 0.0
        ).any(axis=(1, 2))

    def positions_at(self, time_s: float) -> np.ndarray:
        if time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {time_s}")
        k = min(int(time_s / self._epoch_s), self._n_epochs - 1)
        dt = time_s - k * self._epoch_s
        unfolded = self._starts[k] + self._vel[k] * dt
        return reflect_fold(unfolded, self.area_side_m)

    def kernel_trace(self) -> KernelTrace:
        return KernelTrace(
            TRACE_EPOCHS,
            self._n_epochs,
            self._epoch_s,
            self._fold_is_one_period,
            (self._starts, self._vel, self._epoch_has_negative),
        )

    def velocities_at(self, time_s: float) -> np.ndarray:
        """Nominal ``(n, 2)`` velocity vectors (pre-reflection) at a time.

        Reflection flips velocity components at wall hits; this accessor
        reports the drawn epoch velocity, which is what the model "intends"
        and is sufficient for diagnostics.
        """
        if time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {time_s}")
        k = min(int(time_s / self._epoch_s), self._n_epochs - 1)
        return self._vel[k].copy()


class LegTable(NamedTuple):
    """Piecewise-linear itineraries, one row per node.

    Leg ``j`` of node ``i`` moves as ``p0[i, j] + vel[i, j] * (t -
    start[i, j])`` until ``end[i, j]``; ends never decrease along a row.
    Rows are padded to the widest itinerary: only the first ``count[i]``
    legs are real, and padding ends at ``+inf``.
    """

    start: np.ndarray  # (n, width)
    end: np.ndarray  # (n, width)
    p0: np.ndarray  # (n, width, 2)
    vel: np.ndarray  # (n, width, 2)
    count: np.ndarray  # (n,) int64

    @classmethod
    def pack(cls, itineraries) -> "LegTable":
        """Table of per-node ``[(start, p0, vel, end), ...]`` lists."""
        n = len(itineraries)
        width = max(len(legs) for legs in itineraries)
        start = np.zeros((n, width))
        end = np.full((n, width), np.inf)
        p0 = np.zeros((n, width, 2))
        vel = np.zeros((n, width, 2))
        count = np.array([len(legs) for legs in itineraries], dtype=np.int64)
        for i, legs in enumerate(itineraries):
            for j, (t0, pos, v, t1) in enumerate(legs):
                start[i, j] = t0
                p0[i, j] = pos
                vel[i, j] = v
                end[i, j] = t1
        table = cls(start, end, p0, vel, count)
        for array in table:
            array.setflags(write=False)
        return table


class _ItineraryMobility(MobilityModel):
    """A model whose trace is a precomputed :class:`LegTable`."""

    legs: LegTable

    def positions_at(self, time_s: float) -> np.ndarray:
        if time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {time_s}")
        legs = self.legs
        rows = np.arange(self.n_nodes)
        # Ends never decrease, so the active leg (the first one with
        # time_s < end) sits after the legs already over.  Past the last
        # leg the node parks at that leg's end.
        k = np.count_nonzero(~(time_s < legs.end), axis=1)
        parked = k >= legs.count
        k = np.where(parked, legs.count - 1, k)
        start = legs.start[rows, k]
        dt = np.where(parked, legs.end[rows, k], time_s) - start
        pos = legs.p0[rows, k] + legs.vel[rows, k] * dt[:, None]
        return np.clip(pos, 0.0, self.area_side_m)

    def kernel_trace(self) -> KernelTrace:
        legs = self.legs
        return KernelTrace(TRACE_LEGS, legs.start.shape[1], 0.0, False, tuple(legs))


class RandomWaypointMobility(_ItineraryMobility):
    """Random-waypoint mobility (extension beyond the paper).

    Each node repeatedly picks a uniform destination in the arena and a
    uniform speed, travels there in a straight line, then immediately
    picks the next waypoint (no pause, for comparability with the
    random-walk setting).  Included to test the robustness of tuned AEDB
    configurations to the mobility model — see the extended examples.

    The itineraries over ``[0, horizon]`` are precomputed into one
    :class:`LegTable`, so ``positions_at`` is pure like the other models.
    """

    def __init__(
        self,
        n_nodes: int,
        area_side_m: float,
        horizon_s: float,
        speed_min_mps: float = 0.1,
        speed_max_mps: float = 2.0,
        rng: np.random.Generator | int | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if area_side_m <= 0:
            raise ValueError(f"area_side_m must be positive, got {area_side_m}")
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be non-negative, got {horizon_s}")
        if not 0 < speed_min_mps <= speed_max_mps:
            raise ValueError(
                "need 0 < speed_min_mps <= speed_max_mps, got "
                f"{speed_min_mps}, {speed_max_mps}"
            )
        gen = as_generator(rng)
        self.n_nodes = int(n_nodes)
        self.area_side_m = float(area_side_m)
        self.horizon_s = float(horizon_s)

        # Per node: (start_time, start_pos, velocity, end_time) legs.
        itineraries = []
        for _ in range(n_nodes):
            legs = []
            t = 0.0
            pos = gen.uniform(0.0, area_side_m, size=2)
            while t <= horizon_s:
                target = gen.uniform(0.0, area_side_m, size=2)
                speed = float(gen.uniform(speed_min_mps, speed_max_mps))
                dist = float(np.linalg.norm(target - pos))
                duration = max(dist / speed, 1e-9)
                velocity = (target - pos) / duration
                legs.append((t, pos.copy(), velocity, t + duration))
                pos = target
                t += duration
            itineraries.append(legs)
        self.legs = LegTable.pack(itineraries)


class GaussMarkovMobility(MobilityModel):
    """Gauss-Markov mobility (extension beyond the paper).

    Speed and heading evolve as first-order autoregressive processes:

    ``v_t = a v_{t-1} + (1 - a) v_mean + sqrt(1 - a^2) sigma_v w_t``

    (same form for the heading), so trajectories are *temporally
    correlated* — unlike the random walk's independent per-epoch redraws.
    ``alpha`` tunes the memory: 0 = memoryless (random-walk-like per
    tick), 1 = ballistic.  Used by the mobility-robustness studies to
    check that tuned AEDB configurations survive smoother motion.

    The trace is precomputed on a 1 s tick grid and linearly
    interpolated, so ``positions_at`` is pure and arena-convexity keeps
    interpolated points in bounds.  Walls reflect positions; headings
    near a wall are pulled toward the arena centre (the standard
    edge-declustering convention).
    """

    def __init__(
        self,
        n_nodes: int,
        area_side_m: float,
        horizon_s: float,
        alpha: float = 0.75,
        mean_speed_mps: float = 1.0,
        speed_sigma_mps: float = 0.5,
        heading_sigma_rad: float = 0.5,
        tick_s: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if area_side_m <= 0:
            raise ValueError(f"area_side_m must be positive, got {area_side_m}")
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be non-negative, got {horizon_s}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if mean_speed_mps < 0:
            raise ValueError(f"mean_speed_mps must be >= 0, got {mean_speed_mps}")
        if tick_s <= 0:
            raise ValueError(f"tick_s must be positive, got {tick_s}")
        gen = as_generator(rng)

        self.n_nodes = int(n_nodes)
        self.area_side_m = float(area_side_m)
        self.horizon_s = float(horizon_s)
        self.alpha = float(alpha)
        self._tick_s = float(tick_s)

        n_ticks = max(2, int(np.ceil(horizon_s / tick_s)) + 2)
        pos = np.empty((n_ticks, n_nodes, 2))
        pos[0] = gen.uniform(0.0, area_side_m, size=(n_nodes, 2))
        speed = gen.uniform(0.0, 2.0 * mean_speed_mps, size=n_nodes)
        heading = gen.uniform(0.0, 2.0 * np.pi, size=n_nodes)
        noise_gain = np.sqrt(max(1.0 - alpha**2, 0.0))
        centre = 0.5 * area_side_m

        for k in range(1, n_ticks):
            # Pull the mean heading toward the centre near the walls so
            # nodes do not pile up at the boundary.
            to_centre = np.arctan2(
                centre - pos[k - 1, :, 1], centre - pos[k - 1, :, 0]
            )
            near_wall = (
                np.min(
                    np.minimum(pos[k - 1], area_side_m - pos[k - 1]), axis=1
                )
                < 0.1 * area_side_m
            )
            mean_heading = np.where(near_wall, to_centre, heading)

            speed = (
                alpha * speed
                + (1.0 - alpha) * mean_speed_mps
                + noise_gain * speed_sigma_mps * gen.standard_normal(n_nodes)
            )
            speed = np.clip(speed, 0.0, 2.0 * mean_speed_mps + 3.0 * speed_sigma_mps)
            heading = (
                alpha * heading
                + (1.0 - alpha) * mean_heading
                + noise_gain * heading_sigma_rad * gen.standard_normal(n_nodes)
            )
            step = (
                np.stack([np.cos(heading), np.sin(heading)], axis=-1)
                * speed[:, None]
                * tick_s
            )
            pos[k] = reflect_fold(pos[k - 1] + step, area_side_m)
        self._pos = pos
        self._n_ticks = n_ticks

    def positions_at(self, time_s: float) -> np.ndarray:
        if time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {time_s}")
        x = time_s / self._tick_s
        k = min(int(x), self._n_ticks - 2)
        frac = min(x - k, 1.0)
        return (1.0 - frac) * self._pos[k] + frac * self._pos[k + 1]

    def kernel_trace(self) -> KernelTrace:
        return KernelTrace(
            TRACE_TICKS, self._n_ticks, self._tick_s, False, (self._pos,)
        )


class RandomDirectionMobility(_ItineraryMobility):
    """Random-direction mobility (extension beyond the paper).

    Each node picks a uniform heading and speed, travels in a straight
    line until it reaches the arena boundary, optionally pauses, then
    picks a fresh inward heading.  Compared to random waypoint this
    spreads node density uniformly instead of concentrating it in the
    centre — the other classic point of comparison for broadcast
    robustness.  Itineraries are precomputed into one :class:`LegTable`;
    ``positions_at`` is pure.
    """

    def __init__(
        self,
        n_nodes: int,
        area_side_m: float,
        horizon_s: float,
        speed_min_mps: float = 0.5,
        speed_max_mps: float = 2.0,
        pause_s: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if area_side_m <= 0:
            raise ValueError(f"area_side_m must be positive, got {area_side_m}")
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be non-negative, got {horizon_s}")
        if not 0 < speed_min_mps <= speed_max_mps:
            raise ValueError(
                "need 0 < speed_min_mps <= speed_max_mps, got "
                f"{speed_min_mps}, {speed_max_mps}"
            )
        if pause_s < 0:
            raise ValueError(f"pause_s must be >= 0, got {pause_s}")
        gen = as_generator(rng)
        self.n_nodes = int(n_nodes)
        self.area_side_m = float(area_side_m)
        self.horizon_s = float(horizon_s)

        side = self.area_side_m
        # Per node: (start_time, start_pos, velocity, end_time) legs; a
        # zero velocity leg encodes a pause.
        itineraries = []
        for _ in range(n_nodes):
            legs = []
            t = 0.0
            pos = gen.uniform(0.0, side, size=2)
            while t <= horizon_s:
                heading = float(gen.uniform(0.0, 2.0 * np.pi))
                speed = float(gen.uniform(speed_min_mps, speed_max_mps))
                vel = speed * np.array([np.cos(heading), np.sin(heading)])
                # Time to the nearest wall along this ray.
                with np.errstate(divide="ignore"):
                    t_wall = np.where(
                        vel > 0,
                        (side - pos) / np.where(vel > 0, vel, 1.0),
                        np.where(vel < 0, -pos / np.where(vel < 0, vel, -1.0), np.inf),
                    )
                duration = float(max(np.min(t_wall), 1e-9))
                legs.append((t, pos.copy(), vel, t + duration))
                pos = np.clip(pos + vel * duration, 0.0, side)
                t += duration
                if pause_s > 0 and t <= horizon_s:
                    legs.append((t, pos.copy(), np.zeros(2), t + pause_s))
                    t += pause_s
            itineraries.append(legs)
        self.legs = LegTable.pack(itineraries)
