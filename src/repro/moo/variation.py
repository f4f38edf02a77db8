"""Real-coded variation operators.

The operators the reproduced algorithms need, implemented from their
original publications:

* :class:`SBXCrossover` — simulated binary crossover (Deb & Agrawal 1995),
  the NSGA-II default;
* :class:`PolynomialMutation` — Deb's polynomial mutation;
* :class:`BLXAlphaCrossover` — blend crossover (Eshelman & Schaffer 1992),
  the operator family the paper's local-search perturbation (Eq. 2) is
  built from;
* :class:`DifferentialEvolutionCrossover` — DE/rand/1/bin variation as
  used inside CellDE (Durillo et al. 2008);
* :class:`UniformMutation` — bounded uniform resetting, used by the
  random-restart baseline.

All operators clip offspring into the problem box and never mutate their
parents.
"""

from __future__ import annotations

import numpy as np

from repro.moo.problem import Problem, clip_values
from repro.moo.solution import FloatSolution
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range, check_probability

__all__ = [
    "SBXCrossover",
    "PolynomialMutation",
    "BLXAlphaCrossover",
    "DifferentialEvolutionCrossover",
    "UniformMutation",
]


class SBXCrossover:
    """Simulated binary crossover.

    Parameters
    ----------
    probability:
        Per-pair application probability (0.9 in the paper's NSGA-II).
    eta:
        Distribution index; larger values produce offspring closer to the
        parents (20 is the canonical setting).
    """

    def __init__(self, probability: float = 0.9, eta: float = 20.0):
        self.probability = check_probability(probability, "probability")
        self.eta = check_in_range(eta, "eta", 0.0, 1e6)

    def execute(
        self,
        parent_a: FloatSolution,
        parent_b: FloatSolution,
        problem: Problem,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FloatSolution, FloatSolution]:
        """Two offspring from two parents."""
        gen = as_generator(rng)
        x = parent_a.variables.tolist()
        y = parent_b.variables.tolist()
        if gen.random() <= self.probability:
            n = len(x)
            u = gen.random(n).tolist()
            # Both branches' powers, as numpy ufuncs over whole vectors.
            e = 1.0 / (self.eta + 1.0)
            spread = (np.array([2.0 * w for w in u]) ** e).tolist()
            shrink = (np.array([1.0 / (2.0 * (1.0 - w)) for w in u]) ** e).tolist()
            beta = [a if w <= 0.5 else b for a, b, w in zip(spread, shrink, u)]
            # Per-variable 50% swap keeps the operator unbiased.
            swap = gen.random(n).tolist()
            c1 = [
                0.5 * ((1 + b) * xi + (1 - b) * yi) if s <= 0.5 else xi
                for b, s, xi, yi in zip(beta, swap, x, y)
            ]
            y = [
                0.5 * ((1 - b) * xi + (1 + b) * yi) if s <= 0.5 else yi
                for b, s, xi, yi in zip(beta, swap, x, y)
            ]
            x = c1
        child_a = FloatSolution(clip_values(problem, x), problem.n_objectives)
        child_b = FloatSolution(clip_values(problem, y), problem.n_objectives)
        return child_a, child_b


class PolynomialMutation:
    """Deb's polynomial mutation.

    ``probability`` defaults to ``1/n_variables`` when ``None`` at call
    time, the canonical NSGA-II setting.
    """

    def __init__(self, probability: float | None = None, eta: float = 20.0):
        self.probability = (
            None if probability is None else check_probability(probability, "probability")
        )
        self.eta = check_in_range(eta, "eta", 0.0, 1e6)

    def execute(
        self,
        solution: FloatSolution,
        problem: Problem,
        rng: np.random.Generator | int | None = None,
    ) -> FloatSolution:
        """A mutated copy of ``solution``."""
        gen = as_generator(rng)
        x = solution.variables.tolist()
        n = len(x)
        prob = self.probability if self.probability is not None else 1.0 / n
        mutate = [r <= prob for r in gen.random(n).tolist()]
        if any(mutate):
            u = gen.random(n).tolist()
            # Bounded polynomial perturbation (Deb & Goyal 1996 variant).
            # The powers run as numpy ufuncs over whole vectors, with
            # the operands numpy's own array expressions would hold.
            lo = problem.lower_bounds.tolist()
            hi = problem.upper_bounds.tolist()
            span = [h - l for l, h in zip(lo, hi)]
            delta1 = [(xi - l) / s if s > 0 else 0.0 for xi, l, s in zip(x, lo, span)]
            delta2 = [(h - xi) / s if s > 0 else 0.0 for xi, h, s in zip(x, hi, span)]
            eta1 = self.eta + 1.0
            mpow = 1.0 / eta1
            rise = (np.array([1.0 - d for d in delta1]) ** eta1).tolist()
            fall = (np.array([1.0 - d for d in delta2]) ** eta1).tolist()
            val_low = [2.0 * w + (1.0 - 2.0 * w) * r for w, r in zip(u, rise)]
            val_high = [
                2.0 * (1.0 - w) + 2.0 * (w - 0.5) * f for w, f in zip(u, fall)
            ]
            low = (np.array([abs(v) for v in val_low]) ** mpow).tolist()
            high = (np.array([abs(v) for v in val_high]) ** mpow).tolist()
            x = [
                xi + (ql - 1.0 if w <= 0.5 else 1.0 - qh) * s if m else xi
                for xi, ql, qh, w, s, m in zip(x, low, high, u, span, mutate)
            ]
        return FloatSolution(clip_values(problem, x), problem.n_objectives)


class BLXAlphaCrossover:
    """Blend crossover BLX-α (Eshelman & Schaffer 1992).

    Each offspring gene is uniform in the parental interval extended by
    ``alpha`` times its width on both sides.  This is the classical
    *crossover* form; the paper's local-search *perturbation* (Eq. 2) is a
    directional variant implemented in :mod:`repro.core.operators`.
    """

    def __init__(self, probability: float = 1.0, alpha: float = 0.5):
        self.probability = check_probability(probability, "probability")
        self.alpha = check_in_range(alpha, "alpha", 0.0, 10.0)

    def execute(
        self,
        parent_a: FloatSolution,
        parent_b: FloatSolution,
        problem: Problem,
        rng: np.random.Generator | int | None = None,
    ) -> FloatSolution:
        """One offspring blended from two parents."""
        gen = as_generator(rng)
        x, y = parent_a.variables, parent_b.variables
        if gen.random() <= self.probability:
            lo = np.minimum(x, y)
            hi = np.maximum(x, y)
            width = hi - lo
            child = gen.uniform(lo - self.alpha * width, hi + self.alpha * width)
        else:
            child = x.copy()
        return FloatSolution(problem.clip(child), problem.n_objectives)


class DifferentialEvolutionCrossover:
    """DE/rand/1/bin variation (Storn & Price), as used by CellDE.

    ``child = current`` with, per gene (binomial mask at rate ``cr`` plus a
    guaranteed gene), ``base + f * (a - b)``.
    """

    def __init__(self, cr: float = 0.9, f: float = 0.5):
        self.cr = check_probability(cr, "cr")
        self.f = check_in_range(f, "f", 0.0, 2.0)

    def execute(
        self,
        current: FloatSolution,
        base: FloatSolution,
        diff_a: FloatSolution,
        diff_b: FloatSolution,
        problem: Problem,
        rng: np.random.Generator | int | None = None,
    ) -> FloatSolution:
        """One trial vector."""
        gen = as_generator(rng)
        f = self.f
        mutant = [
            b + f * (a - c)
            for b, a, c in zip(
                base.variables.tolist(),
                diff_a.variables.tolist(),
                diff_b.variables.tolist(),
            )
        ]
        draws = gen.random(len(mutant)).tolist()
        forced = int(gen.integers(len(mutant)))  # guarantee at least one gene
        cr = self.cr
        child = [
            m if r <= cr or k == forced else x
            for k, (m, r, x) in enumerate(
                zip(mutant, draws, current.variables.tolist())
            )
        ]
        return FloatSolution(clip_values(problem, child), problem.n_objectives)


class UniformMutation:
    """Reset each gene, with some probability, uniformly inside its box."""

    def __init__(self, probability: float | None = None):
        self.probability = (
            None if probability is None else check_probability(probability, "probability")
        )

    def execute(
        self,
        solution: FloatSolution,
        problem: Problem,
        rng: np.random.Generator | int | None = None,
    ) -> FloatSolution:
        """A mutated copy of ``solution``."""
        gen = as_generator(rng)
        x = solution.variables.copy()
        n = x.size
        prob = self.probability if self.probability is not None else 1.0 / n
        mutate = gen.random(n) <= prob
        fresh = gen.uniform(problem.lower_bounds, problem.upper_bounds)
        x = np.where(mutate, fresh, x)
        return FloatSolution(problem.clip(x), problem.n_objectives)
