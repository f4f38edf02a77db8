"""Friedman test and Holm step-down correction (extension).

Table IV compares the three algorithms *pairwise*; the Friedman test is
the standard omnibus complement when more than two algorithms share the
same blocks (here: the same 30 independent runs per density).  Workflow:

1. :func:`friedman_test` on the ``(blocks, treatments)`` indicator matrix
   — "do the algorithms differ at all?";
2. if it rejects, :func:`friedman_posthoc` runs all pairwise rank-sum
   tests with :func:`holm_bonferroni` family-wise correction.

The chi-square statistic uses within-block midranks with the standard
tie correction (the same convention as ``scipy.stats.friedmanchisquare``,
which the test suite cross-validates against); the Iman–Davenport F
transform is exposed as well, being less conservative at small block
counts like the paper's 30 runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ranks import midranks, tie_groups
from repro.stats.wilcoxon import rank_sum_test

__all__ = [
    "FriedmanResult",
    "friedman_test",
    "holm_bonferroni",
    "PosthocCell",
    "friedman_posthoc",
]


@dataclass(frozen=True)
class FriedmanResult:
    """Outcome of the Friedman omnibus test."""

    #: Tie-corrected chi-square statistic (k-1 degrees of freedom).
    chi_square: float
    #: P-value of the chi-square form.
    p_value: float
    #: Iman–Davenport F statistic.
    iman_davenport_f: float
    #: P-value of the F form.
    iman_davenport_p: float
    #: Mean rank per treatment (1 = best under "smaller is better" data).
    mean_ranks: np.ndarray
    #: Blocks (runs) and treatments (algorithms).
    n_blocks: int
    n_treatments: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the treatments differ at level ``alpha``
        (chi-square form)."""
        return self.p_value < alpha


def friedman_test(matrix) -> FriedmanResult:
    """Friedman test on a ``(n_blocks, k_treatments)`` matrix.

    Each row is one block (e.g. one independent run); columns are
    treatments (algorithms).  Values are ranked *within* rows with
    midranks; smaller values get smaller ranks.
    """
    from scipy.stats import chi2, f as f_dist

    data = np.asarray(matrix, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
    n, k = data.shape
    if n < 2 or k < 2:
        raise ValueError(
            f"need at least 2 blocks and 2 treatments, got {data.shape}"
        )

    ranks = np.vstack([midranks(row) for row in data])
    rank_sums = ranks.sum(axis=0)

    # Tie correction: C = 1 - sum(t^3 - t) / (n k (k^2 - 1)).
    tie_term = 0.0
    for row in data:
        tie_term += sum(t**3 - t for t in tie_groups(row))
    correction = 1.0 - tie_term / (n * k * (k**2 - 1))

    chi = (
        12.0 / (n * k * (k + 1)) * float((rank_sums**2).sum())
        - 3.0 * n * (k + 1)
    )
    if correction <= 0:
        # Every row fully tied: no evidence of any difference.
        return FriedmanResult(
            chi_square=0.0,
            p_value=1.0,
            iman_davenport_f=0.0,
            iman_davenport_p=1.0,
            mean_ranks=rank_sums / n,
            n_blocks=n,
            n_treatments=k,
        )
    chi /= correction
    p = float(chi2.sf(chi, df=k - 1))

    denom = n * (k - 1) - chi
    if denom <= 0:
        # Perfect consistency across blocks: F diverges, p -> 0.
        f_stat, f_p = np.inf, 0.0
    else:
        f_stat = (n - 1) * chi / denom
        f_p = float(f_dist.sf(f_stat, dfn=k - 1, dfd=(k - 1) * (n - 1)))

    return FriedmanResult(
        chi_square=float(chi),
        p_value=p,
        iman_davenport_f=float(f_stat),
        iman_davenport_p=f_p,
        mean_ranks=rank_sums / n,
        n_blocks=n,
        n_treatments=k,
    )


def holm_bonferroni(p_values) -> np.ndarray:
    """Holm step-down adjusted p-values (family-wise error control).

    Sorted ascending, ``adj_(i) = max_{j <= i} (m - j) p_(j)``, clipped
    at 1 — uniformly more powerful than plain Bonferroni while
    controlling the same error rate.
    """
    p = np.asarray(p_values, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("p_values must be non-empty")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running_max = 0.0
    for rank, idx in enumerate(order):
        candidate = (m - rank) * p[idx]
        running_max = max(running_max, candidate)
        adjusted[idx] = min(running_max, 1.0)
    return adjusted


@dataclass(frozen=True)
class PosthocCell:
    """One pairwise comparison of the post-hoc table."""

    #: Treatment labels.
    a: str
    b: str
    #: Raw rank-sum p-value.
    p_value: float
    #: Holm-adjusted p-value.
    p_adjusted: float
    #: True when *a*'s values tend larger than *b*'s.
    a_tends_larger: bool

    def significant(self, alpha: float = 0.05) -> bool:
        """Family-wise significant difference at level ``alpha``."""
        return self.p_adjusted < alpha


def friedman_posthoc(
    matrix, names: tuple[str, ...] | list[str] | None = None
) -> list[PosthocCell]:
    """All pairwise rank-sum tests with Holm correction.

    Complements :func:`friedman_test` after an omnibus rejection; run on
    the same ``(blocks, treatments)`` matrix.
    """
    data = np.asarray(matrix, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"expected (blocks, >=2 treatments), got {data.shape}")
    k = data.shape[1]
    labels = list(names) if names else [f"t{j}" for j in range(k)]
    if len(labels) != k:
        raise ValueError(f"expected {k} names, got {len(labels)}")

    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    results = [rank_sum_test(data[:, i], data[:, j]) for i, j in pairs]
    adjusted = holm_bonferroni([r.p_value for r in results])
    return [
        PosthocCell(
            a=labels[i],
            b=labels[j],
            p_value=r.p_value,
            p_adjusted=float(adj),
            a_tends_larger=r.a_tends_larger,
        )
        for (i, j), r, adj in zip(pairs, results, adjusted)
    ]
