"""Unbounded non-dominated archive.

The base class of all archives: maintains the invariant that members are
mutually non-dominated (under constraint-domination) and deduplicates
identical objective vectors.  ``add`` returns True when the candidate was
accepted, which all callers use as their "found something new" signal.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.moo.solution import FloatSolution

__all__ = ["UnboundedArchive"]


class UnboundedArchive:
    """Archive without a size limit.

    Beside the member list it keeps the members' ``(n, m)`` objective
    matrix and their clamped violations, changed only through
    :meth:`_append`, :meth:`_put` and :meth:`_remove`, so the dominance
    screen and the subclasses' density estimates never restack the
    member list.
    """

    def __init__(self) -> None:
        self._members: list[FloatSolution] = []
        #: Row ``i`` is ``_members[i].objectives``.
        self._obj = np.empty((0, 0))
        #: Entry ``i`` is ``max(_members[i].constraint_violation, 0)``.
        self._vio = np.empty(0)

    # ------------------------------------------------------------------ #
    # the only places members, matrix and violations change             #
    # ------------------------------------------------------------------ #
    def _append(self, candidate: FloatSolution) -> None:
        row = np.array(candidate.objectives, dtype=float, ndmin=2)
        vio = max(candidate.constraint_violation, 0.0)
        if self._members:
            self._obj = np.concatenate((self._obj, row))
            self._vio = np.append(self._vio, vio)
        else:
            self._obj = row
            self._vio = np.array([vio])
        self._members.append(candidate)

    def _put(self, index: int, candidate: FloatSolution) -> None:
        """Replace member ``index`` in place (its position is kept)."""
        self._members[index] = candidate
        self._obj[index] = candidate.objectives
        self._vio[index] = max(candidate.constraint_violation, 0.0)

    def _remove(self, indices) -> None:
        """Drop the members at ``indices`` (an index, an index array or a
        boolean mask), keeping the survivors' order."""
        keep = np.ones(len(self._members), dtype=bool)
        keep[indices] = False
        self._obj = self._obj[keep]
        self._vio = self._vio[keep]
        self._members = [m for m, k in zip(self._members, keep.tolist()) if k]

    # ------------------------------------------------------------------ #
    def add(self, candidate: FloatSolution) -> bool:
        """Insert ``candidate`` unless dominated or duplicated.

        Members dominated by the candidate are evicted.  The candidate is
        stored by reference; callers that keep mutating their solution must
        pass a copy.  The dominance screen is one vectorised pass over the
        member objective matrix.
        """
        if not candidate.is_evaluated:
            raise ValueError("cannot archive an unevaluated solution")
        if self._members:
            obj_m = self._obj
            vio_m = self._vio
            obj_c = candidate.objectives
            vio_c = max(candidate.constraint_violation, 0.0)
            feas_m = vio_m <= 0.0

            # No NaN reaches here (members passed the same evaluated
            # check), so "better somewhere" is "not no-better everywhere".
            no_worse_m = np.logical_and.reduce(obj_m <= obj_c, axis=1)
            no_worse_c = np.logical_and.reduce(obj_m >= obj_c, axis=1)
            if vio_c <= 0.0:
                member_dominates = feas_m & no_worse_m & ~no_worse_c
                cand_dominates = ~feas_m | (no_worse_c & ~no_worse_m)
            else:
                member_dominates = feas_m | (vio_m < vio_c)
                cand_dominates = ~feas_m & (vio_c < vio_m)
            if np.count_nonzero(member_dominates):
                return False
            if np.count_nonzero(no_worse_m & no_worse_c & ~cand_dominates):
                return False  # a duplicate
            if np.count_nonzero(cand_dominates):
                self._remove(cand_dominates)
        self._append(candidate)
        self._on_accept(candidate)
        return True

    def add_all(self, candidates: Sequence[FloatSolution]) -> int:
        """Add many; return how many were accepted."""
        return sum(1 for c in candidates if self.add(c))

    # Hook for bounded subclasses (truncation happens here).
    def _on_accept(self, candidate: FloatSolution) -> None:
        return None

    # ------------------------------------------------------------------ #
    @property
    def members(self) -> list[FloatSolution]:
        """Current members (list copy; solutions shared by reference)."""
        return list(self._members)

    def objectives_matrix(self) -> np.ndarray:
        """``(n, m)`` matrix of member objectives (empty -> shape (0, 0))."""
        if not self._members:
            return np.empty((0, 0))
        return self._obj.copy()

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[FloatSolution]:
        return iter(list(self._members))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(size={len(self._members)})"
