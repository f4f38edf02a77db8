"""Epsilon-dominance archive (Laumanns, Thiele, Deb, Zitzler 2002).

An alternative to AGA for bounding the AEDB-MLS elite set (extension
beyond the paper, exercised by the archive-strategy ablation bench).
Objective space is tiled into boxes of side ``epsilon`` (additive
scheme); the archive maintains

* **box-level Pareto optimality** — a candidate whose box is dominated
  by an occupied box is rejected; boxes dominated by the candidate's box
  are evicted wholesale;
* **one occupant per box** — within a box the occupant closer to the
  box's lower corner wins (or the dominating one, if comparable).

Unlike AGA the size bound is implicit — at most one member per
non-dominated box, which for bounded objective ranges gives the classic
``prod(range_i / epsilon_i) ** (m-1)/...`` style guarantee — and the
archive provably never cycles (accepted boxes only ever improve).

Constraint handling mirrors :class:`UnboundedArchive`: any feasible
member rejects all infeasible candidates; while no feasible solution has
been seen, the single least-violating solution is retained.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.moo.archive.nondominated import UnboundedArchive
from repro.moo.solution import FloatSolution

__all__ = ["EpsilonArchive"]


class EpsilonArchive(UnboundedArchive):
    """Bounded-by-construction archive under additive epsilon-dominance.

    Members change only through the base class's ``_append``/``_put``/
    ``_remove``, so its objective matrix stays in step.  While nothing
    feasible has been seen, the sole member is the infeasible
    placeholder and ``_boxes`` is empty; otherwise ``_boxes[i]`` is the
    box of member ``i``.
    """

    def __init__(self, epsilon: float | Sequence[float], n_objectives: int):
        if n_objectives <= 0:
            raise ValueError(f"n_objectives must be positive, got {n_objectives}")
        eps = np.asarray(
            [epsilon] * n_objectives if np.isscalar(epsilon) else epsilon,
            dtype=float,
        )
        if eps.size != n_objectives:
            raise ValueError(
                f"expected {n_objectives} epsilon values, got {eps.size}"
            )
        if np.any(eps <= 0):
            raise ValueError("every epsilon must be positive")
        super().__init__()
        self.epsilon = eps
        self.n_objectives = int(n_objectives)
        self._boxes: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------ #
    def box_of(self, objectives: np.ndarray) -> tuple[int, ...]:
        """The epsilon-box index vector of an objective point."""
        idx = np.floor(np.asarray(objectives, dtype=float) / self.epsilon)
        return tuple(int(v) for v in idx)

    @staticmethod
    def _box_dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        """Pareto dominance on box indices (minimisation)."""
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    # ------------------------------------------------------------------ #
    def add(self, candidate: FloatSolution) -> bool:
        """Offer a solution; True when it was retained."""
        if not candidate.is_evaluated:
            raise ValueError("cannot archive an unevaluated solution")
        if candidate.objectives.size != self.n_objectives:
            raise ValueError(
                f"expected {self.n_objectives} objectives, got "
                f"{candidate.objectives.size}"
            )

        if candidate.constraint_violation > 0:
            if self._boxes:
                return False  # any feasible member rejects it
            if not self._members:
                self._append(candidate)
                return True
            if (
                candidate.constraint_violation
                < self._members[0].constraint_violation
            ):
                self._put(0, candidate)
                return True
            return False
        # First feasible solution displaces the infeasible placeholder.
        if self._members and not self._boxes:
            self._remove(0)

        box = self.box_of(candidate.objectives)
        # Reject if epsilon-dominated at box level (equal box handled below).
        for other in self._boxes:
            if self._box_dominates(other, box):
                return False

        # Same box: the occupant closer to the box's lower corner stays.
        if box in self._boxes:
            i = self._boxes.index(box)
            occupant = self._members[i]
            if self._corner_distance(candidate) < self._corner_distance(occupant):
                self._put(i, candidate)
                return True
            return False

        # Evict boxes the candidate's box dominates, then insert.
        evict = [
            j
            for j, other in enumerate(self._boxes)
            if self._box_dominates(box, other)
        ]
        if evict:
            self._remove(evict)
            self._boxes = [b for j, b in enumerate(self._boxes) if j not in evict]
        self._append(candidate)
        self._boxes.append(box)
        return True

    def _corner_distance(self, solution: FloatSolution) -> float:
        """Distance from the solution to its box's lower corner."""
        obj = solution.objectives
        corner = np.floor(obj / self.epsilon) * self.epsilon
        return float(np.linalg.norm((obj - corner) / self.epsilon))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EpsilonArchive(size={len(self)}, "
            f"epsilon={self.epsilon.tolist()})"
        )
