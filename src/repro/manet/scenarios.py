"""Evaluation network scenarios.

The paper scores every candidate configuration on the *same* 10 random
networks per density and averages the metrics (Sect. V).  A scenario here
bundles everything that defines one such network: node count, mobility
trace seed, mobility model, and source node.  Scenario construction is
keyed off a master seed through :class:`repro.utils.rng.RngFactory`, so
two processes asking for "density 300, network 7" always get the
identical network.

Densities are devices/km²; with the paper's 500 m × 500 m arena (0.25 km²)
the three studied densities map to 25 / 50 / 75 nodes, which matches the
coverage axes of the paper's Fig. 6.

Beyond the paper, scenarios can select any of the mobility models in
:mod:`repro.manet.mobility` via ``mobility_model`` — the seed material is
shared across models, so a campaign sweeping the mobility axis compares
the *same* network population under different motion regimes.

Because a frozen scenario always materialises the identical trace,
:meth:`NetworkScenario.build_mobility` memoises the built model per
process (an optimiser evaluating thousands of candidates otherwise
rebuilds the same arrays for every one).  Opt out for memory-constrained
runs with :func:`set_mobility_memoisation`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.manet.config import SimulationConfig
from repro.manet.mobility import (
    GaussMarkovMobility,
    MobilityModel,
    RandomDirectionMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
)
from repro.utils.rng import RngFactory

__all__ = [
    "NetworkScenario",
    "nodes_for_density",
    "make_scenarios",
    "set_mobility_memoisation",
    "clear_mobility_cache",
    "mobility_cache_size",
    "MOBILITY_MODELS",
    "PAPER_DENSITIES",
]

#: The three densities studied in the paper (devices/km²).
PAPER_DENSITIES = (100, 200, 300)

#: Mobility models reachable from scenario construction.  "random-walk"
#: is the paper's setting (Table II); the others are the extension models
#: of :mod:`repro.manet.mobility`, exposed for campaign sweeps.
MOBILITY_MODELS = (
    "random-walk",
    "random-waypoint",
    "gauss-markov",
    "random-direction",
)


def nodes_for_density(density_per_km2: float, area_side_m: float = 500.0) -> int:
    """Device count for a density over the square arena (rounded)."""
    if density_per_km2 <= 0:
        raise ValueError(f"density must be positive, got {density_per_km2}")
    area_km2 = (area_side_m / 1000.0) ** 2
    n = int(round(density_per_km2 * area_km2))
    return max(n, 2)


# --------------------------------------------------------------------- #
# Per-process trace memoisation.  Mobility models are pure (positions_at
# never mutates state), so one instance can safely serve every simulator
# that shares the scenario — across threads too.  Lookups take the lock;
# a raced duplicate build is accepted (results are deterministic).
# Bounded LRU: the win case is an optimiser re-evaluating a fixed
# 10-scenario set, so a small cap gives the full hit rate while a
# long-lived campaign worker streaming thousands of distinct scenarios
# cannot grow its memory without bound.
_MOBILITY_MEMO: OrderedDict["NetworkScenario", MobilityModel] = OrderedDict()
_MEMO_MAX_ENTRIES = 128
_MEMO_LOCK = threading.Lock()
_MEMO_ENABLED = True


def set_mobility_memoisation(enabled: bool) -> None:
    """Turn trace memoisation on or off (off also drops cached traces)."""
    global _MEMO_ENABLED
    _MEMO_ENABLED = bool(enabled)
    if not _MEMO_ENABLED:
        clear_mobility_cache()


def clear_mobility_cache() -> None:
    """Drop every memoised mobility trace in this process."""
    with _MEMO_LOCK:
        _MOBILITY_MEMO.clear()


def mobility_cache_size() -> int:
    """Number of traces currently memoised."""
    with _MEMO_LOCK:
        return len(_MOBILITY_MEMO)


@dataclass(frozen=True)
class NetworkScenario:
    """One reproducible evaluation network."""

    #: Devices/km² this scenario belongs to (label only).
    density_per_km2: float
    #: Index of the network within its density's evaluation set.
    network_index: int
    #: Number of devices.
    n_nodes: int
    #: Seed material for the mobility trace.
    mobility_seed: int
    #: Node that injects the broadcast at warmup time.
    source: int
    #: Simulation timeline/arena (shared across the set).
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    #: Motion regime, one of :data:`MOBILITY_MODELS`.
    mobility_model: str = "random-walk"

    def build_mobility(self) -> MobilityModel:
        """Materialise the mobility trace (memoised per process, LRU)."""
        if not _MEMO_ENABLED:
            return self._materialise_mobility()
        with _MEMO_LOCK:
            cached = _MOBILITY_MEMO.get(self)
            if cached is not None:
                _MOBILITY_MEMO.move_to_end(self)
                return cached
        model = self._materialise_mobility()
        with _MEMO_LOCK:
            existing = _MOBILITY_MEMO.get(self)
            if existing is not None:
                return existing
            if len(_MOBILITY_MEMO) >= _MEMO_MAX_ENTRIES:
                _MOBILITY_MEMO.popitem(last=False)
            _MOBILITY_MEMO[self] = model
            return model

    def _materialise_mobility(self) -> MobilityModel:
        rng = np.random.default_rng(self.mobility_seed)
        mob = self.sim.mobility
        # Every model honours the scenario's configured speed range so a
        # mobility-axis sweep compares motion *shapes*, not silently
        # different speed regimes.  Waypoint/direction itineraries need a
        # strictly positive minimum speed (a zero-speed leg never ends),
        # so the configured floor is clamped to 0.1 m/s for them.
        lo = max(mob.speed_min_mps, 0.1)
        hi = max(mob.speed_max_mps, lo)
        if self.mobility_model == "random-walk":
            return RandomWalkMobility(
                n_nodes=self.n_nodes,
                area_side_m=self.sim.area_side_m,
                horizon_s=self.sim.horizon_s,
                config=mob,
                rng=rng,
            )
        if self.mobility_model == "random-waypoint":
            return RandomWaypointMobility(
                self.n_nodes, self.sim.area_side_m, self.sim.horizon_s,
                speed_min_mps=lo, speed_max_mps=hi, rng=rng,
            )
        if self.mobility_model == "gauss-markov":
            return GaussMarkovMobility(
                self.n_nodes, self.sim.area_side_m, self.sim.horizon_s,
                mean_speed_mps=0.5 * (mob.speed_min_mps + mob.speed_max_mps),
                rng=rng,
            )
        if self.mobility_model == "random-direction":
            return RandomDirectionMobility(
                self.n_nodes, self.sim.area_side_m, self.sim.horizon_s,
                speed_min_mps=lo, speed_max_mps=hi, rng=rng,
            )
        raise ValueError(
            f"unknown mobility model {self.mobility_model!r}; "
            f"choose from {MOBILITY_MODELS}"
        )


def make_scenarios(
    density_per_km2: float,
    n_networks: int = 10,
    sim: SimulationConfig | None = None,
    master_seed: int = 0xAEDB,
    n_nodes: int | None = None,
    mobility_model: str = "random-walk",
) -> list[NetworkScenario]:
    """The fixed evaluation set for one density.

    ``n_networks`` defaults to the paper's 10; tests and quick benchmarks
    pass fewer.  ``n_nodes`` overrides the density-derived count (used by
    fast test fixtures); the density label is kept for bookkeeping.
    ``mobility_model`` selects the motion regime without perturbing the
    seed material — the same networks move differently, which is what a
    mobility-axis sweep wants to compare.
    """
    if n_networks <= 0:
        raise ValueError(f"n_networks must be positive, got {n_networks}")
    if mobility_model not in MOBILITY_MODELS:
        raise ValueError(
            f"unknown mobility model {mobility_model!r}; "
            f"choose from {MOBILITY_MODELS}"
        )
    cfg = sim or SimulationConfig()
    count = n_nodes if n_nodes is not None else nodes_for_density(
        density_per_km2, cfg.area_side_m
    )
    factory = RngFactory(master_seed)
    scenarios = []
    for k in range(n_networks):
        gen = factory.generator("scenario", density_per_km2, count, k)
        seed = int(gen.integers(0, 2**32 - 1))
        source = int(gen.integers(0, count))
        scenarios.append(
            NetworkScenario(
                density_per_km2=float(density_per_km2),
                network_index=k,
                n_nodes=count,
                mobility_seed=seed,
                source=source,
                sim=cfg,
                mobility_model=mobility_model,
            )
        )
    return scenarios
