"""(Inverted) generational distance.

The paper (Eq. 3) uses Van Veldhuizen's form: ``sqrt(sum_i d_i^2) / n``
where, for IGD, ``d_i`` runs over *reference-front* points and measures
the Euclidean distance to the nearest point of the approximation front.
Lower is better; 0 means the reference front is fully covered.

``generational_distance`` is the mirror image (distances from the
approximation to the reference) and is provided for completeness and
cross-checks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["inverted_generational_distance", "generational_distance"]


def _min_distances(from_points: np.ndarray, to_points: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist

    a = np.atleast_2d(np.asarray(from_points, dtype=float))
    b = np.atleast_2d(np.asarray(to_points, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("fronts must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"objective mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return cdist(a, b).min(axis=1)


def inverted_generational_distance(
    front: np.ndarray, reference_front: np.ndarray, power: float = 2.0
) -> float:
    """IGD of ``front`` against ``reference_front`` (Eq. 3 of the paper).

    ``power=2`` gives the paper's ``sqrt(sum d^2)/n``; ``power=1`` gives
    the plain-average variant some later literature prefers.
    """
    d = _min_distances(reference_front, front)
    n = d.size
    if power == 1.0:
        return float(d.mean())
    return float((d**power).sum() ** (1.0 / power) / n)


def generational_distance(
    front: np.ndarray, reference_front: np.ndarray, power: float = 2.0
) -> float:
    """GD of ``front`` against ``reference_front`` (same normalisation)."""
    d = _min_distances(front, reference_front)
    n = d.size
    if power == 1.0:
        return float(d.mean())
    return float((d**power).sum() ** (1.0 / power) / n)
