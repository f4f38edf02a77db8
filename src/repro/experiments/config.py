"""Experiment scale presets.

The paper's campaign is enormous for a laptop: 3 algorithms × 3 densities
× 30 independent runs × ~10–24 k simulator-backed evaluations.  The
presets trade statistical resolution for turnaround while preserving
every *structural* property (same algorithms, same densities, same
protocol, same indicators):

========  ======  ========  ==========  ===========================
 preset    runs    networks  MOEA evals  MLS layout (P × T × E)
========  ======  ========  ==========  ===========================
 quick       5        3         600      2 × 4 × 25   (800)
 medium     10        5        2000      4 × 4 × 150  (2400)
 paper      30       10       10000      8 × 12 × 250 (24000)
========  ======  ========  ==========  ===========================

Select with ``REPRO_SCALE={quick,medium,paper}`` (default ``quick``) or
pass a preset explicitly to the harness functions.  Recorded numbers
must state which preset produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MLSConfig
from repro.manet.scenarios import PAPER_DENSITIES
from repro.utils import flags

__all__ = ["ExperimentScale", "get_scale", "SCALES"]


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs a campaign needs, bundled."""

    name: str
    #: Independent runs per (algorithm, density).
    n_runs: int
    #: Evaluation networks per density.
    n_networks: int
    #: Densities studied (devices/km²).
    densities: tuple[int, ...] = tuple(PAPER_DENSITIES)
    #: Evaluation budget of each MOEA run.
    moea_evaluations: int = 600
    #: NSGA-II population size (even).
    nsgaii_population: int = 20
    #: CellDE grid side (population = side²).
    cellde_grid_side: int = 5
    #: AEDB-MLS layout.
    mls: MLSConfig = field(
        default_factory=lambda: MLSConfig(
            n_populations=2,
            threads_per_population=4,
            evaluations_per_thread=25,
            engine="serial",
        )
    )
    #: Archive / reference-front capacity.
    archive_capacity: int = 100
    #: FAST99 samples per parameter (sensitivity experiments).
    fast_samples: int = 65
    #: Master seed for the whole campaign.
    master_seed: int = 0xAEDB

    @property
    def mls_evaluations(self) -> int:
        """Nominal MLS budget (for the evals-ratio report)."""
        return self.mls.total_evaluations


SCALES: dict[str, ExperimentScale] = {
    "quick": ExperimentScale(
        name="quick",
        n_runs=5,
        n_networks=3,
        moea_evaluations=600,
        nsgaii_population=20,
        cellde_grid_side=5,
        mls=MLSConfig(
            n_populations=2,
            threads_per_population=4,
            evaluations_per_thread=25,
            reset_iterations=15,
            archive_capacity=100,
            engine="serial",
        ),
        fast_samples=65,
    ),
    "medium": ExperimentScale(
        name="medium",
        n_runs=10,
        n_networks=5,
        moea_evaluations=2000,
        nsgaii_population=40,
        cellde_grid_side=7,
        mls=MLSConfig(
            n_populations=4,
            threads_per_population=4,
            evaluations_per_thread=150,
            reset_iterations=50,
            archive_capacity=100,
            engine="serial",
        ),
        fast_samples=129,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_runs=30,
        n_networks=10,
        moea_evaluations=10000,
        nsgaii_population=100,
        cellde_grid_side=10,
        mls=MLSConfig(
            n_populations=8,
            threads_per_population=12,
            evaluations_per_thread=250,
            reset_iterations=50,
            archive_capacity=100,
            engine="processes",
        ),
        fast_samples=257,
    ),
}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a preset: explicit name > ``REPRO_SCALE`` env > ``quick``."""
    key = (name or flags.read_raw("REPRO_SCALE") or "quick").lower()
    if key not in SCALES:
        raise ValueError(
            f"unknown scale {key!r}; choose from {sorted(SCALES)}"
        )
    return SCALES[key]
