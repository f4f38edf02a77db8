"""Planar geometry helpers for the square simulation arena.

The arena is the axis-aligned square ``[0, side] x [0, side]``.  Mobility
uses *reflective* boundaries: a node hitting a wall bounces back, which is
the behaviour of ns3's ``RandomWalk2dMobilityModel`` in "mode time" with
rebound.  Reflection of uniform linear motion is computed analytically with
a triangle-wave fold, so positions at an arbitrary time cost O(1) — no
sub-stepping.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reflect_fold", "pairwise_distances", "distances_from_point"]


def reflect_fold(coords: np.ndarray, side: float) -> np.ndarray:
    """Fold unbounded coordinates into ``[0, side]`` by mirror reflection.

    A particle moving ballistically from ``x0`` with velocity ``v`` inside
    reflecting walls at 0 and ``side`` is, after time ``t``, at
    ``reflect_fold(x0 + v t, side)``: the trajectory unrolled on the real
    line, folded back by the triangle wave of period ``2 * side``.

    Works element-wise on arrays of any shape; always returns values in
    ``[0, side]`` (closed at both ends).
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    period = 2.0 * side
    y = np.mod(np.asarray(coords, dtype=float), period)
    return side - np.abs(y - side)


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` Euclidean distance matrix for ``(n, 2)`` positions.

    The diagonal is zero.  This is the hot operation of every beacon
    round, so it works in place on two ``(n, n)`` outer differences.
    Each entry is ``sqrt(dx*dx + dy*dy)``: two products and one sum, the
    bits of an einsum over the ``(n, n, 2)`` difference broadcast, which
    the runtime snapshots are pinned to (DESIGN.md §8).
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    d = np.subtract.outer(pos[:, 0], pos[:, 0])
    d *= d
    dy = np.subtract.outer(pos[:, 1], pos[:, 1])
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def distances_from_point(positions: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Euclidean distances from each of ``(n, 2)`` positions to ``point``."""
    pos = np.asarray(positions, dtype=float)
    pt = np.asarray(point, dtype=float)
    if pt.shape != (2,):
        raise ValueError(f"point must have shape (2,), got {pt.shape}")
    diff = pos - pt[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))
