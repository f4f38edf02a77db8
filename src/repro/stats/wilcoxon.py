"""Two-sample Wilcoxon rank-sum test (Mann-Whitney U).

The paper compares 30-run indicator samples pairwise "with 95% statistical
confidence according to Wilcoxon unpaired signed rank test" — the unpaired
(rank-sum) test.  Implemented from first principles with the
tie-corrected normal approximation (the standard choice at n = 30) and
cross-validated against ``scipy.stats`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ranks import midranks, tie_groups

__all__ = ["RankSumResult", "rank_sum_test"]


@dataclass(frozen=True)
class RankSumResult:
    """Outcome of a two-sample rank-sum test."""

    #: Mann-Whitney U statistic of the first sample.
    u_statistic: float
    #: Standard-normal z score (continuity-corrected).
    z_score: float
    #: Two-sided p-value (normal approximation).
    p_value: float
    #: Sample sizes.
    n_a: int
    n_b: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the samples differ at level ``alpha`` (two-sided)."""
        return self.p_value < alpha

    @property
    def a_tends_larger(self) -> bool:
        """True when sample *a* stochastically dominates sample *b*."""
        return self.u_statistic > self.n_a * self.n_b / 2.0


def rank_sum_test(a, b) -> RankSumResult:
    """Two-sided Wilcoxon rank-sum test of samples ``a`` and ``b``.

    Uses midranks for ties and the tie-corrected normal approximation
    with a 0.5 continuity correction.  Degenerate inputs (all values
    identical across both samples) return p = 1.
    """
    from scipy.stats import norm

    xa = np.asarray(a, dtype=float).ravel()
    xb = np.asarray(b, dtype=float).ravel()
    n_a, n_b = xa.size, xb.size
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")

    combined = np.concatenate([xa, xb])
    ranks = midranks(combined)
    rank_sum_a = float(ranks[:n_a].sum())
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0

    n = n_a + n_b
    mean_u = n_a * n_b / 2.0
    ties = tie_groups(combined)
    tie_term = sum(t**3 - t for t in ties)
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))

    if var_u <= 0:
        return RankSumResult(
            u_statistic=u_a, z_score=0.0, p_value=1.0, n_a=n_a, n_b=n_b
        )
    # Continuity correction toward the mean.
    diff = u_a - mean_u
    correction = -0.5 if diff > 0 else (0.5 if diff < 0 else 0.0)
    z = (diff + correction) / np.sqrt(var_u)
    p = 2.0 * float(norm.sf(abs(z)))
    return RankSumResult(
        u_statistic=u_a,
        z_score=float(z),
        p_value=min(p, 1.0),
        n_a=n_a,
        n_b=n_b,
    )
