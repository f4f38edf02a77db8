"""Declarative scenario-space sweeps.

A :class:`CampaignSpec` names a grid — densities × mobility models ×
arena sizes × seeds × algorithms — and expands it into concrete
:class:`CampaignCell` units of work.  A cell is entirely self-describing
(every seed it needs is derived at expansion time), so it can be shipped
to a worker process, content-addressed on disk, and re-derived bit-for-bit
from the same spec on another machine.

Two workloads share the cell shape:

* ``algorithm == "evaluate"`` — score the spec's parameter
  configurations on the cell's network set (one simulation per
  configuration × network; fully batchable across cells);
* ``algorithm == <optimiser name>`` — run one seeded optimiser
  (NSGA-II, CellDE, AEDB-MLS, ...) against the cell's tuning problem
  (one job per cell).

Seed discipline (all streams fan out of ``master_seed`` through
:class:`repro.utils.rng.RngFactory`):

* evaluate cells draw a fresh ``scenario_seed`` per seed index — the
  seeds axis sweeps *network populations*, the classic scenario study;
* tune cells keep the paper's methodology — fixed evaluation networks
  (``scenario_seed = master_seed``) and a per-run ``algorithm_seed``
  derived with the exact key the experiment runner has always used, so a
  campaign-expressed run reproduces ``run_campaign`` bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from repro.manet.aedb import AEDBParams
from repro.manet.config import SimulationConfig
from repro.manet.scenarios import (
    MOBILITY_MODELS,
    NetworkScenario,
    make_scenarios,
)
from repro.utils.rng import RngFactory

__all__ = [
    "EVALUATE",
    "DEFAULT_PARAMS",
    "CampaignCell",
    "CampaignSpec",
    "canonical_json",
]

#: The non-optimiser workload label: score fixed configurations.
EVALUATE = "evaluate"

#: The default AEDB configuration as a plain vector (spec-friendly).
DEFAULT_PARAMS = tuple(float(v) for v in AEDBParams().as_array())


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignCell:
    """One grid point of a campaign — the unit of execution and storage."""

    #: Devices/km² (kept at the spec's original type: the RNG keying is
    #: repr-based, so ``100`` and ``100.0`` are different streams).
    density_per_km2: float
    #: Motion regime, one of :data:`repro.manet.scenarios.MOBILITY_MODELS`.
    mobility_model: str
    #: Side of the square arena, m.
    area_side_m: float
    #: Position along the spec's seeds axis.
    seed_index: int
    #: ``"evaluate"`` or an optimiser name from the experiment runner.
    algorithm: str
    #: Evaluation networks in the cell's set.
    n_networks: int
    #: Node-count override (tests / quick sweeps); None = density-derived.
    n_nodes: int | None
    #: Master seed of the cell's network set.
    scenario_seed: int
    #: Optimiser seed (0 and unused for evaluate cells).
    algorithm_seed: int
    #: Scale preset name for tune cells ("" for evaluate cells).
    scale: str
    #: Parameter vectors scored by evaluate cells (() for tune cells).
    params: tuple[tuple[float, ...], ...]

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """Plain-JSON form (stable field set; the content key hashes it)."""
        return {
            "density_per_km2": self.density_per_km2,
            "mobility_model": self.mobility_model,
            "area_side_m": self.area_side_m,
            "seed_index": self.seed_index,
            "algorithm": self.algorithm,
            "n_networks": self.n_networks,
            "n_nodes": self.n_nodes,
            "scenario_seed": self.scenario_seed,
            "algorithm_seed": self.algorithm_seed,
            "scale": self.scale,
            "params": [list(p) for p in self.params],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignCell":
        return cls(
            density_per_km2=data["density_per_km2"],
            mobility_model=data["mobility_model"],
            area_side_m=data["area_side_m"],
            seed_index=int(data["seed_index"]),
            algorithm=data["algorithm"],
            n_networks=int(data["n_networks"]),
            n_nodes=None if data["n_nodes"] is None else int(data["n_nodes"]),
            scenario_seed=int(data["scenario_seed"]),
            algorithm_seed=int(data["algorithm_seed"]),
            scale=data["scale"],
            params=tuple(tuple(float(v) for v in p) for p in data["params"]),
        )

    @property
    def key(self) -> str:
        """Content key: readable slug + hash of the full cell contents.

        Any change to what the cell would compute (parameters, seeds,
        network count, ...) changes the key, so a stale result can never
        be mistaken for the current cell's.
        """
        digest = hashlib.sha1(
            canonical_json(self.as_dict()).encode("utf-8")
        ).hexdigest()[:10]
        slug = (
            f"d{self.density_per_km2:g}-{self.mobility_model}"
            f"-a{self.area_side_m:g}-s{self.seed_index}"
            f"-{self.algorithm.lower()}"
        )
        return f"{slug}-{digest}"

    # ------------------------------------------------------------------ #
    def sim_config(self) -> SimulationConfig:
        """The cell's simulation timeline/arena."""
        return SimulationConfig(area_side_m=self.area_side_m)

    def scenarios(self) -> list[NetworkScenario]:
        """Materialise the cell's evaluation network set."""
        return make_scenarios(
            self.density_per_km2,
            n_networks=self.n_networks,
            sim=self.sim_config(),
            master_seed=self.scenario_seed,
            n_nodes=self.n_nodes,
            mobility_model=self.mobility_model,
        )

    def param_sets(self) -> list[AEDBParams]:
        """Decode the evaluate-cell parameter vectors."""
        return [AEDBParams.from_array(p).clipped() for p in self.params]

    @property
    def n_simulations(self) -> int:
        """Direct simulation jobs this cell expands into (0 = one tune job)."""
        if self.algorithm != EVALUATE:
            return 0
        return len(self.params) * self.n_networks


def _is_finite(value) -> bool:
    """A real, finite number (non-numbers included in the rejects)."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of campaign cells."""

    name: str = "campaign"
    densities: tuple[float, ...] = (100, 200, 300)
    mobility_models: tuple[str, ...] = ("random-walk",)
    area_sides_m: tuple[float, ...] = (500.0,)
    #: Grid points along the seeds axis (network draws for evaluate
    #: cells, independent optimiser runs for tune cells).
    n_seeds: int = 1
    algorithms: tuple[str, ...] = (EVALUATE,)
    #: Configurations scored by evaluate cells.
    params: tuple[tuple[float, ...], ...] = (DEFAULT_PARAMS,)
    n_networks: int = 10
    n_nodes: int | None = None
    master_seed: int = 0xAEDB
    #: Scale preset name budgeting tune cells.
    scale: str = "quick"
    #: Preferred execution backend ("inline", "pool", "shard:N"), or
    #: None to defer to the executor/CLI.  An execution *hint*, not
    #: content: cells (and their keys) ignore it — every backend
    #: produces byte-identical results (DESIGN.md §10) — so it is
    #: serialised only when set and never invalidates stored cells.
    backend: str | None = None

    def __post_init__(self) -> None:
        for axis, label in (
            (self.densities, "densities"),
            (self.mobility_models, "mobility_models"),
            (self.area_sides_m, "area_sides_m"),
            (self.algorithms, "algorithms"),
        ):
            if not axis:
                raise ValueError(f"{label} must be non-empty")
            if len(set(axis)) != len(axis):
                # Duplicate grid points expand to identical cells that
                # would race for the same store file.
                raise ValueError(f"{label} contains duplicates: {axis}")
        for model in self.mobility_models:
            if model not in MOBILITY_MODELS:
                raise ValueError(
                    f"unknown mobility model {model!r}; "
                    f"choose from {MOBILITY_MODELS}"
                )
        for axis, label in (
            (self.densities, "densities"),
            (self.area_sides_m, "area_sides_m"),
        ):
            for value in axis:
                if not (_is_finite(value) and value > 0):
                    raise ValueError(
                        f"{label} must be finite and positive, got {value!r}"
                    )
        n_values = len(AEDBParams.DOMAINS)
        for vector in self.params:
            if len(vector) != n_values or not all(map(_is_finite, vector)):
                raise ValueError(
                    f"params vectors must hold {n_values} finite values, "
                    f"got {vector!r}"
                )
        if self.n_nodes is not None and self.n_nodes < 1:
            raise ValueError(f"n_nodes must be at least 1, got {self.n_nodes}")
        if self.n_seeds <= 0:
            raise ValueError(f"n_seeds must be positive, got {self.n_seeds}")
        if self.n_networks <= 0:
            raise ValueError(
                f"n_networks must be positive, got {self.n_networks}"
            )
        if EVALUATE in self.algorithms and not self.params:
            raise ValueError("evaluate campaigns need at least one params vector")
        if self.backend is not None:
            # Fail at declaration time, not mid-campaign: reuse the one
            # canonical parser (lazy import: backends import this module).
            from repro.campaigns.backends import resolve_backend

            resolve_backend(self.backend)

    # ------------------------------------------------------------------ #
    @property
    def n_cells(self) -> int:
        """Grid size before expansion."""
        return (
            len(self.densities)
            * len(self.mobility_models)
            * len(self.area_sides_m)
            * len(self.algorithms)
            * self.n_seeds
        )

    def cells(self) -> list[CampaignCell]:
        """Expand the grid, outermost axis first (stable order)."""
        factory = RngFactory(self.master_seed)
        out: list[CampaignCell] = []
        for density in self.densities:
            for mobility in self.mobility_models:
                for area in self.area_sides_m:
                    for algorithm in self.algorithms:
                        for k in range(self.n_seeds):
                            out.append(
                                self._make_cell(
                                    factory, density, mobility, area,
                                    algorithm, k,
                                )
                            )
        return out

    def _make_cell(
        self, factory: RngFactory, density, mobility: str, area: float,
        algorithm: str, k: int,
    ) -> CampaignCell:
        if algorithm == EVALUATE:
            scenario_seed = int(
                factory.seed_sequence("networks", k).generate_state(1)[0]
            )
            algorithm_seed = 0
            scale = ""
            params = self.params
        else:
            # The experiment runner's exact keying — a campaign-expressed
            # run_campaign reproduces the historical seeds bit-for-bit.
            scenario_seed = self.master_seed
            algorithm_seed = int(
                factory.seed_sequence(
                    "run", algorithm, density, k
                ).generate_state(1)[0]
            )
            scale = self.scale
            params = ()
        return CampaignCell(
            density_per_km2=density,
            mobility_model=mobility,
            area_side_m=float(area),
            seed_index=k,
            algorithm=algorithm,
            n_networks=self.n_networks,
            n_nodes=self.n_nodes,
            scenario_seed=scenario_seed,
            algorithm_seed=algorithm_seed,
            scale=scale,
            params=params,
        )

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        data = {
            "name": self.name,
            "densities": list(self.densities),
            "mobility_models": list(self.mobility_models),
            "area_sides_m": list(self.area_sides_m),
            "n_seeds": self.n_seeds,
            "algorithms": list(self.algorithms),
            "params": [list(p) for p in self.params],
            "n_networks": self.n_networks,
            "n_nodes": self.n_nodes,
            "master_seed": self.master_seed,
            "scale": self.scale,
        }
        if self.backend is not None:
            # Only when set: a backend-less spec round-trips to the
            # historical JSON, so pre-§10 spec.json files still match.
            data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        return cls(
            name=data.get("name", "campaign"),
            densities=tuple(data["densities"]),
            mobility_models=tuple(data.get("mobility_models", ("random-walk",))),
            area_sides_m=tuple(data.get("area_sides_m", (500.0,))),
            n_seeds=int(data.get("n_seeds", 1)),
            algorithms=tuple(data.get("algorithms", (EVALUATE,))),
            params=tuple(
                tuple(float(v) for v in p)
                for p in data.get("params", [list(DEFAULT_PARAMS)])
            ),
            n_networks=int(data.get("n_networks", 10)),
            n_nodes=(
                None if data.get("n_nodes") is None else int(data["n_nodes"])
            ),
            master_seed=int(data.get("master_seed", 0xAEDB)),
            scale=data.get("scale", "quick"),
            backend=data.get("backend"),
        )

    def to_json(self) -> str:
        """Human-diffable JSON form (stable key order)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())

    def with_name(self, name: str) -> "CampaignSpec":
        """A copy under a different campaign name."""
        return replace(self, name=name)
