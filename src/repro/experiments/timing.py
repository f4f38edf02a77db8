"""Execution-time comparison (paper Sect. VI, last paragraphs).

The paper reports AEDB-MLS needing 48/188/417 minutes against the MOEAs'
32/123/264 hours — "over 38 times faster ... and it performs 2.4 times
more evaluations".  Absolute times are testbed-bound (the authors used a
96-core cluster of Xeon L5640 nodes; a reproduction host typically
has a handful of cores), so this harness reports the *structure* of
the claim:

* wall-clock per run and throughput (evaluations/second) per algorithm;
* the MLS:MOEA evaluation ratio at the configured budgets;
* normalised speedup  (MOEA time per evaluation) / (MLS time per
  evaluation) — the hardware-independent part of the paper's 38×.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.runner import make_algorithm
from repro.tuning import make_tuning_problem

__all__ = ["TimingRow", "TimingReport", "run_timing_experiment"]


@dataclass(frozen=True)
class TimingRow:
    """One algorithm's timing at one density."""

    algorithm: str
    density: int
    engine: str
    evaluations: int
    wall_s: float

    @property
    def evals_per_second(self) -> float:
        """Throughput."""
        return self.evaluations / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class TimingReport:
    """All rows plus derived paper-comparable ratios."""

    rows: list[TimingRow]

    def row(self, algorithm: str, density: int) -> TimingRow:
        """Look up one row."""
        for r in self.rows:
            if r.algorithm == algorithm and r.density == density:
                return r
        raise KeyError((algorithm, density))

    def speedup(self, density: int, baseline: str = "NSGAII") -> float:
        """Per-evaluation speedup of AEDB-MLS over a MOEA baseline."""
        mls = self.row("AEDB-MLS", density)
        base = self.row(baseline, density)
        mls_per_eval = mls.wall_s / max(mls.evaluations, 1)
        base_per_eval = base.wall_s / max(base.evaluations, 1)
        return base_per_eval / mls_per_eval if mls_per_eval > 0 else 0.0

    def eval_ratio(self, density: int, baseline: str = "NSGAII") -> float:
        """MLS evaluations / MOEA evaluations (paper: 2.4x)."""
        mls = self.row("AEDB-MLS", density)
        base = self.row(baseline, density)
        return mls.evaluations / max(base.evaluations, 1)

    def render(self) -> str:
        """Aligned text table."""
        lines = [
            f"{'algorithm':>12s} {'density':>8s} {'engine':>10s} "
            f"{'evals':>8s} {'wall[s]':>9s} {'evals/s':>9s}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.algorithm:>12s} {r.density:>8d} {r.engine:>10s} "
                f"{r.evaluations:>8d} {r.wall_s:>9.2f} "
                f"{r.evals_per_second:>9.1f}"
            )
        return "\n".join(lines)


def run_timing_experiment(
    densities: tuple[int, ...] = (100, 200, 300),
    scale: ExperimentScale | None = None,
    mls_engine: str = "processes",
    algorithms: tuple[str, ...] = ("NSGAII", "CellDE", "AEDB-MLS"),
    seed: int = 1234,
) -> TimingReport:
    """Time one run of each algorithm per density at the given scale.

    The MOEAs run serially (as in the paper's jMetal setup); AEDB-MLS
    runs under ``mls_engine`` (the process engine is the paper's
    deployment model).
    """
    scale = scale or get_scale()
    rows: list[TimingRow] = []
    for density in densities:
        for name in algorithms:
            problem = make_tuning_problem(
                density,
                n_networks=scale.n_networks,
                master_seed=scale.master_seed,
            )
            alg = make_algorithm(
                name, problem, scale, seed,
                mls_engine=mls_engine if name == "AEDB-MLS" else None,
            )
            start = time.perf_counter()
            result = alg.run()
            wall = time.perf_counter() - start
            rows.append(
                TimingRow(
                    algorithm=name,
                    density=density,
                    engine=(
                        result.info.get("engine", "serial")
                        if name == "AEDB-MLS"
                        else "serial"
                    ),
                    evaluations=result.evaluations,
                    wall_s=wall,
                )
            )
    return TimingReport(rows=rows)
