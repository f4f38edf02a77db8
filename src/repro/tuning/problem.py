"""The AEDB tuning problem as a :class:`repro.moo.Problem` (Eq. 1).

Internal objective vector (all minimised):

====  =====================  ==========================
 idx   internal objective     paper objective
====  =====================  ==========================
  0    energy (dBm sum)       min energy used
  1    -coverage (devices)    max coverage
  2    forwardings            min forwardings
====  =====================  ==========================

Constraint: broadcast time < 2 s, exposed as
``constraint_violation = max(0, bt - 2)``.

:meth:`AEDBTuningProblem.display_objectives` flips coverage back to its
natural sign for reports, matching the paper's figures.
"""

from __future__ import annotations

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics
from repro.moo.problem import Problem, clip_values
from repro.moo.solution import FloatSolution
from repro.tuning.bounds import (
    BROADCAST_TIME_LIMIT_S,
    lower_bounds,
    upper_bounds,
    variable_names,
)
from repro.tuning.cache import EvaluationCache
from repro.tuning.evaluation import NetworkSetEvaluator

__all__ = ["AEDBTuningProblem", "make_tuning_problem"]


class AEDBTuningProblem(Problem):
    """5 variables, 3 objectives, 1 constraint — simulation-backed."""

    def __init__(
        self,
        evaluator: NetworkSetEvaluator,
        time_limit_s: float = BROADCAST_TIME_LIMIT_S,
    ):
        super().__init__(
            lower_bounds(),
            upper_bounds(),
            n_objectives=3,
            n_constraints=1,
            name=f"AEDB-{int(evaluator.scenarios[0].density_per_km2)}dev",
        )
        self.evaluator = evaluator
        self.time_limit_s = float(time_limit_s)

    # ------------------------------------------------------------------ #
    @property
    def objective_labels(self) -> tuple[str, ...]:
        return ("energy[dBm]", "-coverage[devices]", "forwardings")

    @property
    def density_per_km2(self) -> float:
        """Density label of the underlying evaluation networks."""
        return self.evaluator.scenarios[0].density_per_km2

    def display_objectives(self, objectives: np.ndarray) -> np.ndarray:
        """(energy, +coverage, forwardings) — the paper's axes."""
        out = np.atleast_2d(np.asarray(objectives, dtype=float)).copy()
        out[:, 1] = -out[:, 1]
        return out if np.asarray(objectives).ndim == 2 else out[0]

    # ------------------------------------------------------------------ #
    def params_of(self, solution: FloatSolution) -> AEDBParams:
        """Decode a solution's variables into protocol parameters."""
        return AEDBParams(*clip_values(self, solution.variables.tolist()))

    def _evaluate(self, solution: FloatSolution) -> None:
        metrics = self.evaluator.evaluate(self.params_of(solution))
        self._fill(solution, metrics)

    def _fill(self, solution: FloatSolution, metrics: BroadcastMetrics) -> None:
        solution.objectives[0] = metrics.energy_dbm
        solution.objectives[1] = -metrics.coverage
        solution.objectives[2] = metrics.forwardings
        solution.constraint_violation = max(
            metrics.broadcast_time_s - self.time_limit_s, 0.0
        )
        solution.attributes["metrics"] = metrics

    def variable_names(self) -> tuple[str, ...]:
        """The five AEDB parameter names, vector order."""
        return variable_names()


def make_tuning_problem(
    density_per_km2: float,
    n_networks: int = 10,
    master_seed: int = 0xAEDB,
    n_nodes: int | None = None,
    use_cache: bool = False,
    sim=None,
    mobility_model: str = "random-walk",
) -> AEDBTuningProblem:
    """One-call construction of the paper's tuning problem.

    ``n_networks``/``n_nodes`` shrink the evaluation set for tests and
    quick benchmarks; defaults reproduce the paper's setting.
    ``mobility_model`` selects the motion regime of the evaluation
    networks (campaign sweeps tune beyond the paper's random walk).
    """
    evaluator = NetworkSetEvaluator.for_density(
        density_per_km2,
        n_networks=n_networks,
        master_seed=master_seed,
        n_nodes=n_nodes,
        sim=sim,
        cache=EvaluationCache() if use_cache else None,
        mobility_model=mobility_model,
    )
    return AEDBTuningProblem(evaluator)
