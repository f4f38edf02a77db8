"""Adaptive Grid Archiving (AGA) — Knowles & Corne 2000 (PAES).

The archiving method of AEDB-MLS (paper Sect. IV-A).  Objective space is
divided into hypercubes by bisecting each (adaptive) objective range
``bisections`` times; the archive balances the member count across
occupied cells:

* a candidate dominated by the archive is rejected; members dominated by
  the candidate are removed;
* below capacity, accepted candidates are simply inserted;
* at capacity, the candidate is inserted only if its cell is *not* the
  most crowded one, in which case one occupant of a most-crowded cell is
  evicted; a candidate landing in the most crowded cell is rejected.

The three properties the paper quotes hold by construction and are
property-tested in ``tests/moo/test_archive.py::TestAGA``:

i.   per-objective extreme solutions are never evicted (eviction explicitly
     skips the current minimisers of each objective);
ii.  occupied Pareto regions keep at least one representative (eviction
     only touches the most crowded cells, so it empties a cell only when
     no cell holds two members);
iii. remaining capacity is spread evenly (eviction always targets the most
     crowded cell).
"""

from __future__ import annotations

import numpy as np

from repro.moo.archive.nondominated import UnboundedArchive
from repro.moo.solution import FloatSolution
from repro.utils.rng import as_generator

__all__ = ["AdaptiveGridArchive"]


class AdaptiveGridArchive(UnboundedArchive):
    """Bounded non-dominated archive with adaptive-grid density control."""

    def __init__(
        self,
        capacity: int,
        n_objectives: int,
        bisections: int = 5,
        rng: np.random.Generator | int | None = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if n_objectives <= 0:
            raise ValueError(f"n_objectives must be positive, got {n_objectives}")
        if bisections <= 0:
            raise ValueError(f"bisections must be positive, got {bisections}")
        super().__init__()
        self.capacity = int(capacity)
        self.n_objectives = int(n_objectives)
        self.bisections = int(bisections)
        self._divisions = 2**bisections
        self._rng = as_generator(rng)
        self._grid_lower = np.zeros(n_objectives)
        self._grid_upper = np.ones(n_objectives)
        self._have_grid = False

    # ------------------------------------------------------------------ #
    # grid management                                                    #
    # ------------------------------------------------------------------ #
    def _recompute_grid(self) -> None:
        """Fit the grid to the current members (with 10% padding, as in
        Knowles' reference implementation)."""
        objs = self._obj
        lo = objs.min(axis=0)
        hi = objs.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        pad = 0.05 * span
        self._grid_lower = lo - pad
        self._grid_upper = hi + pad
        self._have_grid = True

    def cell_of(self, objectives: np.ndarray) -> tuple[int, ...]:
        """Grid cell (tuple of per-objective indices) of a point."""
        if not self._have_grid:
            return (0,) * self.n_objectives
        span = self._grid_upper - self._grid_lower
        rel = (np.asarray(objectives, dtype=float) - self._grid_lower) / span
        idx = np.floor(rel * self._divisions).astype(int)
        return tuple(int(v) for v in np.clip(idx, 0, self._divisions - 1))

    def _outside_grid(self, objectives: np.ndarray) -> bool:
        if not self._have_grid:
            return True
        return bool(
            np.any(objectives < self._grid_lower)
            or np.any(objectives > self._grid_upper)
        )

    def _cell_census(self) -> dict[tuple[int, ...], list[int]]:
        """Member indices per occupied cell — one vectorised pass."""
        span = self._grid_upper - self._grid_lower
        rel = (self._obj - self._grid_lower[None, :]) / span[None, :]
        idx = np.clip(
            np.floor(rel * self._divisions).astype(int),
            0,
            self._divisions - 1,
        )
        census: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(map(tuple, idx.tolist())):
            census.setdefault(row, []).append(i)
        return census

    def _protected_indices(self) -> set[int]:
        """Indices of per-objective extreme members (never evicted)."""
        return set(np.argmin(self._obj, axis=0).tolist())

    # ------------------------------------------------------------------ #
    # insertion policy                                                   #
    # ------------------------------------------------------------------ #
    def _on_accept(self, candidate: FloatSolution) -> None:
        # Called after dominance filtering accepted the candidate.
        if self._outside_grid(candidate.objectives) or not self._have_grid:
            self._recompute_grid()

        if len(self._members) <= self.capacity:
            return

        census = self._cell_census()
        candidate_cell = self.cell_of(candidate.objectives)
        max_count = max(len(v) for v in census.values())
        crowded_cells = [c for c, v in census.items() if len(v) == max_count]

        protected = self._protected_indices()
        candidate_idx = len(self._members) - 1  # just appended

        if candidate_cell in crowded_cells:
            # The candidate landed in a most-crowded cell: evict another
            # occupant of that cell (an unprotected one) — or, when the
            # candidate is not itself protected, the candidate.
            pool = [
                i
                for i in census[candidate_cell]
                if i != candidate_idx and i not in protected
            ]
            if pool:
                victim = int(self._rng.choice(pool))
            elif candidate_idx not in protected:
                victim = candidate_idx
            else:
                # Candidate is a new extreme inside a fully protected
                # cell (tiny archives): evict any unprotected member.
                fallback = [
                    i
                    for i in range(len(self._members))
                    if i not in protected
                ]
                victim = (
                    int(self._rng.choice(fallback))
                    if fallback
                    else candidate_idx
                )
        else:
            victims: list[int] = []
            for cell in crowded_cells:
                victims.extend(
                    i
                    for i in census[cell]
                    if i not in protected and i != candidate_idx
                )
            if victims:
                victim = int(self._rng.choice(victims))
            else:
                # Everything in the crowded cells is protected (tiny
                # archives): fall back to any unprotected member.
                fallback = [
                    i
                    for i in range(len(self._members))
                    if i not in protected and i != candidate_idx
                ]
                victim = int(self._rng.choice(fallback)) if fallback else candidate_idx
        self._remove(victim)

    # ------------------------------------------------------------------ #
    # sampling (AEDB-MLS population re-initialisation)                   #
    # ------------------------------------------------------------------ #
    def sample(
        self, k: int, rng: np.random.Generator | int | None = None
    ) -> list[FloatSolution]:
        """``k`` members drawn uniformly with replacement (copies).

        AEDB-MLS re-seeds a population from the archive this way; copies
        are returned so the archive's own members stay immutable.
        """
        if not self._members:
            raise ValueError("cannot sample from an empty archive")
        gen = as_generator(rng) if rng is not None else self._rng
        idx = gen.integers(0, len(self._members), size=k)
        return [self._members[int(i)].copy() for i in idx]

    def grid_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (lower, upper) grid bounds — diagnostics/tests."""
        return self._grid_lower.copy(), self._grid_upper.copy()

    def cell_population(self, objectives: np.ndarray) -> int:
        """Number of members sharing the cell containing ``objectives``.

        The PAES acceptance rule compares the crowding of the candidate's
        and the current solution's grid regions; this is that census.
        """
        if not self._members:
            return 0
        target = self.cell_of(np.asarray(objectives, dtype=float))
        return len(self._cell_census().get(target, ()))
