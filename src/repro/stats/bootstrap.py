"""Bootstrap confidence intervals (extension beyond the paper).

Fig. 7 reports boxplots of 30-run indicator samples; a bootstrap CI on
the median (or mean) is the natural companion when runs are expensive
and normality is doubtful.  Two interval constructions:

* ``percentile`` — the plain empirical quantiles of the bootstrap
  distribution;
* ``bca`` — bias-corrected and accelerated (Efron 1987): corrects the
  percentile interval for median bias (``z0``, from the fraction of
  bootstrap replicates below the observed statistic) and for
  skewness (``a``, from the jackknife third moment).

Cross-validated against ``scipy.stats.bootstrap`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["BootstrapCI", "bootstrap_ci"]


@dataclass(frozen=True)
class BootstrapCI:
    """A two-sided bootstrap confidence interval."""

    #: Statistic evaluated on the original sample.
    estimate: float
    #: Interval endpoints.
    low: float
    high: float
    #: Confidence level (e.g. 0.95).
    confidence: float
    #: "percentile" or "bca".
    method: str
    #: Bootstrap resamples drawn.
    n_resamples: int

    @property
    def width(self) -> float:
        """Interval width — the sample-size diagnostic reports use."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def bootstrap_ci(
    sample,
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    method: str = "bca",
    rng: np.random.Generator | int | None = 0,
) -> BootstrapCI:
    """Bootstrap CI of ``statistic`` over a 1-D ``sample``.

    ``statistic`` must map a 1-D array to a scalar (vectorised per
    resample, not across resamples).  Degenerate samples (constant
    values) return a zero-width interval at the observed statistic.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"sample must have at least 2 values, got {x.size}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 100:
        raise ValueError(f"n_resamples must be >= 100, got {n_resamples}")
    if method not in ("percentile", "bca"):
        raise ValueError(f"unknown method {method!r}")

    gen = as_generator(rng)
    observed = float(statistic(x))

    idx = gen.integers(0, x.size, size=(n_resamples, x.size))
    replicates = np.array([float(statistic(x[row])) for row in idx])

    alpha = 1.0 - confidence
    if np.ptp(replicates) == 0.0:
        lo = hi = float(replicates[0])
    elif method == "percentile":
        lo, hi = np.quantile(replicates, [alpha / 2.0, 1.0 - alpha / 2.0])
    else:  # BCa
        from scipy.stats import norm

        # Bias correction: fraction of replicates below the observed value.
        prop = np.mean(replicates < observed) + 0.5 * np.mean(
            replicates == observed
        )
        prop = min(max(prop, 1.0 / (n_resamples + 1)), n_resamples / (n_resamples + 1))
        z0 = float(norm.ppf(prop))
        # Acceleration from the jackknife third moment.
        jack = np.array(
            [float(statistic(np.delete(x, i))) for i in range(x.size)]
        )
        centred = jack.mean() - jack
        denom = float((centred**2).sum()) ** 1.5
        a = float((centred**3).sum()) / (6.0 * denom) if denom > 0 else 0.0

        z_lo, z_hi = norm.ppf(alpha / 2.0), norm.ppf(1.0 - alpha / 2.0)

        def adjusted_quantile(z: float) -> float:
            num = z0 + z
            adj = norm.cdf(z0 + num / (1.0 - a * num))
            return float(np.clip(adj, 0.0, 1.0))

        lo, hi = np.quantile(
            replicates, [adjusted_quantile(z_lo), adjusted_quantile(z_hi)]
        )

    return BootstrapCI(
        estimate=observed,
        low=float(lo),
        high=float(hi),
        confidence=confidence,
        method=method,
        n_resamples=n_resamples,
    )
