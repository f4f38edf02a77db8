"""Bounded archive with crowding-distance truncation.

jMetal's ``CrowdingDistanceArchive``: when the archive exceeds its
capacity after an accepted insertion, the member with the smallest
crowding distance (the most crowded one) is evicted.  Used as the external
archive of CellDE.
"""

from __future__ import annotations

import numpy as np

from repro.moo.archive.nondominated import UnboundedArchive
from repro.moo.density import crowding
from repro.moo.solution import FloatSolution

__all__ = ["CrowdingDistanceArchive"]


class CrowdingDistanceArchive(UnboundedArchive):
    """Non-dominated archive truncated by crowding distance."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__()
        self.capacity = int(capacity)

    def _on_accept(self, candidate: FloatSolution) -> None:
        if len(self._members) <= self.capacity:
            return
        self._remove(int(np.argmin(crowding(self._obj.tolist()))))
