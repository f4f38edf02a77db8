"""Spread (diversity) indicators.

* :func:`spread` — Deb's Δ (Eq. 4 of the paper) for **two** objectives:
  consecutive-gap dispersion along the front plus the distances to the
  reference front's extreme solutions.  0 = ideally uniform.
* :func:`generalized_spread` — the Zhou et al. (2006) generalisation used
  for three or more objectives (the paper's problems are 3-objective):
  consecutive gaps are replaced by nearest-neighbour distances and the
  two extremes by the per-objective extreme points of the reference
  front.

Both expect *normalised* fronts (the paper normalises first; see
:mod:`repro.moo.indicators.normalize`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["spread", "generalized_spread"]


def spread(front: np.ndarray, reference_front: np.ndarray) -> float:
    """Deb's Δ spread indicator (2 objectives)."""
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.atleast_2d(np.asarray(reference_front, dtype=float))
    if pts.shape[0] == 0 or ref.shape[0] == 0:
        raise ValueError("fronts must be non-empty")
    if pts.shape[1] != 2 or ref.shape[1] != 2:
        raise ValueError("spread() is defined for 2 objectives; "
                         "use generalized_spread() otherwise")
    if pts.shape[0] < 2:
        return 1.0

    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    mean_gap = gaps.mean()

    # Extremes of the reference front: lexicographic ends along f1.
    ref_sorted = ref[np.argsort(ref[:, 0], kind="stable")]
    d_first = float(np.linalg.norm(pts[0] - ref_sorted[0]))
    d_last = float(np.linalg.norm(pts[-1] - ref_sorted[-1]))

    numerator = d_first + d_last + float(np.abs(gaps - mean_gap).sum())
    denominator = d_first + d_last + (pts.shape[0] - 1) * mean_gap
    if denominator <= 0:
        return 0.0
    return float(numerator / denominator)


def generalized_spread(front: np.ndarray, reference_front: np.ndarray) -> float:
    """Generalised spread (Zhou et al. 2006) for m >= 2 objectives."""
    from scipy.spatial.distance import cdist

    pts = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.atleast_2d(np.asarray(reference_front, dtype=float))
    if pts.shape[0] == 0 or ref.shape[0] == 0:
        raise ValueError("fronts must be non-empty")
    if pts.shape[1] != ref.shape[1]:
        raise ValueError(
            f"objective mismatch: {pts.shape[1]} vs {ref.shape[1]}"
        )
    if pts.shape[0] < 2:
        return 1.0

    # Per-objective extreme points of the reference front.
    extreme_idx = [int(np.argmax(ref[:, m])) for m in range(ref.shape[1])]
    extremes = ref[extreme_idx]

    # Nearest-neighbour distance of each front point (excluding itself).
    dists = cdist(pts, pts)
    np.fill_diagonal(dists, np.inf)
    nn = dists.min(axis=1)
    mean_nn = float(nn.mean())

    # Distance from each reference extreme to the front.
    d_extremes = cdist(extremes, pts).min(axis=1)
    ext_term = float(d_extremes.sum())

    numerator = ext_term + float(np.abs(nn - mean_nn).sum())
    denominator = ext_term + pts.shape[0] * mean_nn
    if denominator <= 0:
        return 0.0
    return float(numerator / denominator)
