"""AEDB-MLS configuration.

Defaults are the paper's experimental setting (Sect. V): 8 distributed
populations × 12 threads, 250 evaluations per thread (24 000 total),
BLX-α with α = 0.2, population reset every 50 iterations, archive
capacity 100 with the AGA method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_in_range, check_positive

__all__ = ["MLSConfig", "ENGINE_NAMES"]

#: The execution engines (:mod:`repro.core.engines`), by name.
ENGINE_NAMES = ("serial", "processes")


@dataclass(frozen=True)
class MLSConfig:
    """Knobs of the parallel multi-objective local search."""

    #: Number of distributed populations (paper: 8).
    n_populations: int = 8
    #: Local-search threads (= solutions) per population (paper: 12).
    threads_per_population: int = 12
    #: Evaluation budget per thread — the stopping condition (paper: 250).
    evaluations_per_thread: int = 250
    #: BLX-α perturbation magnitude (paper's tuned value: 0.2).
    alpha: float = 0.2
    #: Iterations between population re-initialisations from the archive
    #: (paper's tuned value: 50).
    reset_iterations: int = 50
    #: External archive capacity (AGA).
    archive_capacity: int = 100
    #: AGA grid bisections per objective.
    archive_bisections: int = 5
    #: Execution engine: "serial" or "processes".
    engine: str = "serial"
    #: Attempts at drawing a feasible initial solution before accepting an
    #: infeasible one (each attempt costs one evaluation).
    max_init_attempts: int = 10
    #: Probability of picking each search criterion; None = uniform over
    #: the three criteria (the paper selects randomly).
    criterion_weights: tuple[float, float, float] | None = None
    #: Ablation switch: replace the published (downward-biased) Eq. 2
    #: span ``3ρ − 2`` with the zero-mean ``3ρ − 1.5``.
    symmetric_blx: bool = False
    #: Intra-population scheduling inside each worker of the process
    #: engine.  Cooperative round-robin is the only schedule (see
    #: engines/cooperative.py), so this is not a constructor argument;
    #: it stays in ``repr(MLSConfig)`` because tune records carry that
    #: string and the benchmark pins their bytes.
    process_worker: str = field(default="cooperative", init=False)

    def __post_init__(self) -> None:
        check_positive(self.n_populations, "n_populations")
        check_positive(self.threads_per_population, "threads_per_population")
        check_positive(self.evaluations_per_thread, "evaluations_per_thread")
        check_in_range(self.alpha, "alpha", 0.0, 1.0, inclusive=False)
        check_positive(self.reset_iterations, "reset_iterations")
        check_positive(self.archive_capacity, "archive_capacity")
        check_positive(self.archive_bisections, "archive_bisections")
        check_positive(self.max_init_attempts, "max_init_attempts")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}"
            )
        if self.criterion_weights is not None:
            if len(self.criterion_weights) != 3:
                raise ValueError("criterion_weights must have 3 entries")
            if any(w < 0 for w in self.criterion_weights):
                raise ValueError("criterion_weights must be non-negative")
            if sum(self.criterion_weights) <= 0:
                raise ValueError("criterion_weights must not all be zero")

    @property
    def total_evaluations(self) -> int:
        """Nominal evaluation budget of a full run (paper: 24 000)."""
        return (
            self.n_populations
            * self.threads_per_population
            * self.evaluations_per_thread
        )
