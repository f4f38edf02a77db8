"""Sobol' variance decomposition via the Saltelli design.

An independent estimator for the same first/total-order indices FAST99
produces (extension beyond the paper): where FAST99 reads the indices off
a Fourier spectrum along space-filling curves, the Saltelli scheme uses
two independent sample matrices ``A``/``B`` and the ``k`` hybrids
``AB_i`` (``A`` with column ``i`` replaced from ``B``), at a cost of
``N (k + 2)`` model evaluations:

* first-order ``S_i``  — Saltelli 2010 estimator
  ``mean(f_B * (f_AB_i - f_A)) / V(Y)``;
* total-order ``ST_i`` — Jansen 1999 estimator
  ``mean((f_A - f_AB_i)^2) / (2 V(Y))``.

Base samples come from a scrambled Sobol' sequence
(:mod:`scipy.stats.qmc`), so the estimates converge like quasi-Monte
Carlo rather than ``1/sqrt(N)``.  Agreement between the two estimators on
the simulator is itself a reproduction check for Fig. 2 — see
``benchmarks/bench_fig2_sensitivity.py`` and the cross-method test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["SobolResult", "saltelli_sample", "sobol_indices", "run_sobol"]


@dataclass(frozen=True)
class SobolResult:
    """Sobol' indices for one scalar model output."""

    #: Parameter names, analysis order.
    names: tuple[str, ...]
    #: First-order (main-effect) indices, one per parameter.
    first_order: np.ndarray
    #: Total-order indices.
    total_order: np.ndarray

    @property
    def interactions(self) -> np.ndarray:
        """ST − S1, clipped at 0 — comparable to Fig. 2's stacked bars."""
        return np.maximum(self.total_order - self.first_order, 0.0)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """{name: {S1, ST, interaction}} for reports."""
        return {
            name: {
                "S1": float(self.first_order[i]),
                "ST": float(self.total_order[i]),
                "interaction": float(self.interactions[i]),
            }
            for i, name in enumerate(self.names)
        }


def saltelli_sample(
    bounds: Sequence[tuple[float, float]],
    n_base: int = 256,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """Build the Saltelli design: ``n_base * (k + 2)`` rows.

    Row layout: ``A`` block, ``B`` block, then the ``k`` hybrid ``AB_i``
    blocks in parameter order — :func:`sobol_indices` expects exactly
    this.  ``n_base`` is rounded up to a power of two (a Sobol'-sequence
    balance requirement).
    """
    from scipy.stats import qmc

    k = len(bounds)
    if k < 2:
        raise ValueError("Sobol analysis needs at least 2 parameters")
    if n_base < 8:
        raise ValueError(f"n_base must be at least 8, got {n_base}")
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("every upper bound must exceed its lower bound")

    n = 1 << int(np.ceil(np.log2(n_base)))
    seed = rng if isinstance(rng, (int, np.integer)) or rng is None else rng
    sampler = qmc.Sobol(d=2 * k, scramble=True, seed=seed)
    base = sampler.random(n)  # (n, 2k) in [0, 1)
    a_unit, b_unit = base[:, :k], base[:, k:]

    blocks = [a_unit, b_unit]
    for i in range(k):
        hybrid = a_unit.copy()
        hybrid[:, i] = b_unit[:, i]
        blocks.append(hybrid)
    unit = np.vstack(blocks)
    return lo[None, :] + unit * (hi - lo)[None, :]


def sobol_indices(
    outputs: np.ndarray,
    n_params: int,
    names: Sequence[str] | None = None,
) -> SobolResult:
    """Estimate indices from outputs on a :func:`saltelli_sample` design.

    ``outputs`` must be flat, in design row order (``A``, ``B``, then the
    ``k`` hybrids).
    """
    y = np.asarray(outputs, dtype=float).ravel()
    if y.size % (n_params + 2):
        raise ValueError(
            f"outputs ({y.size}) not divisible by k + 2 ({n_params + 2})"
        )
    n = y.size // (n_params + 2)
    f_a = y[:n]
    f_b = y[n : 2 * n]
    variance = float(np.var(np.concatenate([f_a, f_b])))

    first = np.empty(n_params)
    total = np.empty(n_params)
    scale = 1.0 + float(np.mean(f_a)) ** 2
    for i in range(n_params):
        f_ab = y[(2 + i) * n : (3 + i) * n]
        if variance <= 1e-18 * scale:
            # Numerically constant output: nothing to decompose.
            first[i] = 0.0
            total[i] = 0.0
            continue
        first[i] = float(np.mean(f_b * (f_ab - f_a))) / variance
        total[i] = 0.5 * float(np.mean((f_a - f_ab) ** 2)) / variance

    labels = tuple(names) if names else tuple(f"x{i}" for i in range(n_params))
    return SobolResult(
        names=labels,
        first_order=np.clip(first, 0.0, 1.0),
        total_order=np.clip(total, 0.0, 1.0),
    )


def run_sobol(
    model: Callable[[np.ndarray], float],
    bounds: Sequence[tuple[float, float]],
    n_base: int = 256,
    names: Sequence[str] | None = None,
    rng: np.random.Generator | int | None = 0,
) -> SobolResult:
    """Convenience wrapper: sample, evaluate ``model`` row-wise, analyse."""
    design = saltelli_sample(bounds, n_base=n_base, rng=rng)
    outputs = np.array([model(row) for row in design])
    return sobol_indices(outputs, n_params=len(bounds), names=names)
