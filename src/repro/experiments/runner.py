"""Independent-run campaigns.

Builds the tuning problem for a density, instantiates an algorithm with a
run-specific seed, and collects the :class:`AlgorithmResult` of each of
the K independent runs — the raw material for Figs. 6/7 and Table IV.

:func:`run_campaign` is expressed as a one-algorithm, one-density
:class:`~repro.campaigns.CampaignSpec` driven by the campaign executor —
the seed keying is unchanged, so results are bit-for-bit identical to
the historical hand-rolled loop, but the same spec can now be scaled,
parallelised and resumed through ``repro-aedb campaign``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import AEDBMLS, CellDEMLS
from repro.core.config import MLSConfig
from repro.experiments.config import ExperimentScale, get_scale
from repro.moo.algorithms import (
    PAES,
    SPEA2,
    CellDE,
    MOCell,
    NSGAII,
    RandomSearch,
)
from repro.moo.algorithms.base import AlgorithmResult
from repro.tuning import AEDBTuningProblem

__all__ = ["ALGORITHMS", "Campaign", "make_algorithm", "run_campaign"]

#: The algorithms of the paper's comparison, plus the random-search
#: ablation baseline, the paper's future-work hybrid (Sect. VII), and
#: the extension MOEAs (MOCell / SPEA2 / PAES).
ALGORITHMS = (
    "NSGAII",
    "CellDE",
    "AEDB-MLS",
    "RandomSearch",
    "CellDE-MLS",
    "MOCell",
    "SPEA2",
    "PAES",
)


def make_algorithm(
    name: str,
    problem: AEDBTuningProblem,
    scale: ExperimentScale,
    seed: int,
    mls_engine: str | None = None,
):
    """Instantiate one configured algorithm (uniform ``.run()`` API)."""
    if name == "NSGAII":
        return NSGAII(
            problem,
            max_evaluations=scale.moea_evaluations,
            population_size=scale.nsgaii_population,
            rng=seed,
        )
    if name == "CellDE":
        return CellDE(
            problem,
            max_evaluations=scale.moea_evaluations,
            grid_side=scale.cellde_grid_side,
            archive_capacity=scale.archive_capacity,
            rng=seed,
        )
    if name == "AEDB-MLS":
        config = scale.mls
        if mls_engine is not None and mls_engine != config.engine:
            config = MLSConfig(
                n_populations=config.n_populations,
                threads_per_population=config.threads_per_population,
                evaluations_per_thread=config.evaluations_per_thread,
                alpha=config.alpha,
                reset_iterations=config.reset_iterations,
                archive_capacity=config.archive_capacity,
                archive_bisections=config.archive_bisections,
                engine=mls_engine,
                max_init_attempts=config.max_init_attempts,
                criterion_weights=config.criterion_weights,
            )
        return AEDBMLS(problem, config, seed=seed)
    if name == "RandomSearch":
        return RandomSearch(
            problem,
            max_evaluations=scale.moea_evaluations,
            archive_capacity=scale.archive_capacity,
            rng=seed,
        )
    if name == "CellDE-MLS":
        return CellDEMLS(
            problem,
            max_evaluations=scale.moea_evaluations,
            grid_side=scale.cellde_grid_side,
            archive_capacity=scale.archive_capacity,
            rng=seed,
        )
    if name == "MOCell":
        return MOCell(
            problem,
            max_evaluations=scale.moea_evaluations,
            grid_side=scale.cellde_grid_side,
            archive_capacity=scale.archive_capacity,
            rng=seed,
        )
    if name == "SPEA2":
        return SPEA2(
            problem,
            max_evaluations=scale.moea_evaluations,
            population_size=scale.nsgaii_population,
            archive_size=scale.archive_capacity,
            rng=seed,
        )
    if name == "PAES":
        return PAES(
            problem,
            max_evaluations=scale.moea_evaluations,
            archive_capacity=scale.archive_capacity,
            rng=seed,
        )
    raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHMS}")


@dataclass
class Campaign:
    """All runs of one (algorithm, density) pair."""

    algorithm: str
    density: int
    results: list[AlgorithmResult] = field(default_factory=list)

    @property
    def fronts(self) -> list[list]:
        """Per-run solution fronts."""
        return [r.front for r in self.results]

    @property
    def runtimes(self) -> list[float]:
        """Per-run wall-clock times, seconds."""
        return [r.runtime_s for r in self.results]

    @property
    def evaluations(self) -> list[int]:
        """Per-run evaluation counts."""
        return [r.evaluations for r in self.results]


def run_campaign(
    algorithm: str,
    density: int,
    scale: ExperimentScale | None = None,
    n_runs: int | None = None,
    mls_engine: str | None = None,
    progress=None,
) -> Campaign:
    """Run K independent executions of one algorithm on one density.

    Each run gets a fresh problem instance (so evaluation counters are
    per-run) over the *same* evaluation networks (scenario construction is
    keyed by the master seed), and a run-specific algorithm seed — the
    seeds axis of a one-algorithm campaign spec.
    """
    # Local import: the campaign executor reaches back into this module
    # for make_algorithm, so the dependency must not be circular at
    # import time.
    from repro.campaigns import CampaignExecutor, CampaignSpec

    scale = scale or get_scale()
    runs = n_runs if n_runs is not None else scale.n_runs
    campaign = Campaign(algorithm=algorithm, density=density)
    if runs <= 0:
        return campaign
    spec = CampaignSpec(
        name=f"{algorithm}-d{density}",
        densities=(density,),
        n_seeds=runs,
        algorithms=(algorithm,),
        n_networks=scale.n_networks,
        master_seed=scale.master_seed,
        scale=scale.name,
    )
    executor = CampaignExecutor(
        spec, store=None, backend="inline", scale=scale, mls_engine=mls_engine
    )
    callback = None
    if progress is not None:
        callback = lambda r: progress(  # noqa: E731 - tiny adapter
            algorithm, density, r.cell.seed_index, r.payloads[0]
        )
    report = executor.run(progress=callback)
    campaign.results = [r.payloads[0] for r in report.executed]
    return campaign
