"""Problem abstraction for box-constrained multi-objective optimisation.

Subclasses define bounds and ``_evaluate``; the base class provides
solution construction, bound clipping, and batch evaluation.  All
objectives are minimised internally; problems whose natural formulation
maximises (e.g. AEDB coverage) negate in ``_evaluate`` and advertise the
transform through :attr:`objective_labels` / :meth:`display_objectives`.
"""

from __future__ import annotations

import numpy as np

from repro.moo.solution import FloatSolution
from repro.utils.rng import as_generator

__all__ = ["Problem", "clip_values"]


class Problem:
    """Base class: an ``n_variables -> n_objectives`` minimisation problem.

    Parameters
    ----------
    lower_bounds, upper_bounds:
        Box constraints on the decision vector.
    n_objectives:
        Objective count.
    n_constraints:
        Number of inequality constraints folded into the solution's
        ``constraint_violation`` (informational; violation is aggregated).
    name:
        Human-readable identifier used in reports.
    """

    def __init__(
        self,
        lower_bounds,
        upper_bounds,
        n_objectives: int,
        n_constraints: int = 0,
        name: str | None = None,
    ):
        self.lower_bounds = np.asarray(lower_bounds, dtype=float).ravel()
        self.upper_bounds = np.asarray(upper_bounds, dtype=float).ravel()
        if self.lower_bounds.shape != self.upper_bounds.shape:
            raise ValueError("bound vectors must have equal length")
        if np.any(self.upper_bounds < self.lower_bounds):
            raise ValueError("upper bound below lower bound")
        self.n_objectives = int(n_objectives)
        self.n_constraints = int(n_constraints)
        self.name = name or type(self).__name__
        #: Number of ``evaluate`` calls served by this instance.
        self.evaluations = 0

    # ------------------------------------------------------------------ #
    @property
    def n_variables(self) -> int:
        """Decision-space dimensionality."""
        return int(self.lower_bounds.size)

    @property
    def objective_labels(self) -> tuple[str, ...]:
        """Display names for the (minimised) objectives."""
        return tuple(f"f{i + 1}" for i in range(self.n_objectives))

    def display_objectives(self, objectives: np.ndarray) -> np.ndarray:
        """Map internal (minimised) objectives to the paper's sign
        conventions for reporting.  Identity by default."""
        return np.asarray(objectives, dtype=float)

    # ------------------------------------------------------------------ #
    def create_solution(
        self, rng: np.random.Generator | int | None = None
    ) -> FloatSolution:
        """A uniformly random, unevaluated solution inside the box."""
        gen = as_generator(rng)
        variables = gen.uniform(self.lower_bounds, self.upper_bounds)
        return FloatSolution(variables, self.n_objectives)

    def clip(self, variables: np.ndarray) -> np.ndarray:
        """Project a vector onto the box."""
        return np.clip(variables, self.lower_bounds, self.upper_bounds)

    def evaluate(self, solution: FloatSolution) -> FloatSolution:
        """Evaluate in place (objectives + constraint violation)."""
        if solution.variables.size != self.n_variables:
            raise ValueError(
                f"solution has {solution.variables.size} variables, "
                f"problem expects {self.n_variables}"
            )
        self._evaluate(solution)
        self.evaluations += 1
        return solution

    def evaluate_batch(self, solutions) -> list[FloatSolution]:
        """Evaluate a list of solutions (hook point for parallel backends)."""
        return [self.evaluate(s) for s in solutions]

    # ------------------------------------------------------------------ #
    def _evaluate(self, solution: FloatSolution) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(n_variables={self.n_variables}, "
            f"n_objectives={self.n_objectives}, "
            f"n_constraints={self.n_constraints})"
        )


def clip_values(problem: Problem, values: list[float]) -> list[float]:
    """:meth:`Problem.clip` on plain floats, bit for bit: numpy's clip
    loop against bound arrays keeps a value only when it is strictly
    inside a bound (so ``-0.0`` at a ``0.0`` lower bound becomes
    ``0.0``), raises to the lower bound first, then cuts at the upper,
    and passes NaN through."""
    return [
        x if (x := v if v > lo or v != v else lo) < hi or x != x else hi
        for v, lo, hi in zip(
            values,
            problem.lower_bounds.tolist(),
            problem.upper_bounds.tolist(),
        )
    ]
