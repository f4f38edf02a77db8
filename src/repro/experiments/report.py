"""Plain-text rendering of the reproduced figures and tables.

The benchmark harness pipes these through ``print`` so the paper-shaped
rows/series land in ``bench_output.txt``.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.figures import Fig2Data, Fig6Series, Fig7Data

__all__ = ["render_fig2", "render_fig6", "render_fig7", "render_front_sample"]


def render_fig2(data: Fig2Data) -> str:
    """Fig. 2 bars as aligned text (main effect / interaction)."""
    lines = [
        f"Figure 2 — FAST99 sensitivity, {data.density} dev/km^2 "
        f"({data.n_samples} samples/param, {data.evaluations} evaluations)"
    ]
    for objective, sens in data.objectives.items():
        lines.append(f"\n  ({objective})")
        lines.append(
            f"  {'parameter':>24s} {'main effect':>12s} {'interaction':>12s}"
        )
        for name, main, inter in sens.bars():
            bar = "#" * int(round(main * 20))
            lines.append(
                f"  {name:>24s} {main:>12.3f} {inter:>12.3f}  {bar}"
            )
    return "\n".join(lines)


def render_front_sample(matrix: np.ndarray, label: str, k: int = 8) -> str:
    """A small, evenly spaced sample of front rows (for logs)."""
    if matrix.size == 0:
        return f"  {label}: (empty)"
    n = matrix.shape[0]
    idx = np.unique(np.linspace(0, n - 1, min(k, n)).astype(int))
    lines = [f"  {label} ({n} points; energy, coverage, forwardings):"]
    for i in idx:
        e, c, f = matrix[i]
        lines.append(f"    {e:9.2f} {c:9.2f} {f:9.2f}")
    return "\n".join(lines)


def render_fig6(series: Fig6Series) -> str:
    """Fig. 6 front summary for one density."""
    ranges = series.ranges()
    ref_dom, mls_dom = series.domination
    lines = [
        f"Figure 6 — Pareto fronts, {series.density} dev/km^2",
        f"  axes: energy [{ranges['energy'][0]:.1f}, {ranges['energy'][1]:.1f}] dBm, "
        f"coverage [{ranges['coverage'][0]:.1f}, {ranges['coverage'][1]:.1f}] devices, "
        f"forwardings [{ranges['forwardings'][0]:.1f}, {ranges['forwardings'][1]:.1f}]",
        f"  reference front: {series.reference.shape[0]} points | "
        f"AEDB-MLS front: {series.mls.shape[0]} points",
        f"  domination: MLS dominates {ref_dom} reference points; "
        f"reference dominates {mls_dom} MLS points",
        render_front_sample(series.reference, "Reference"),
        render_front_sample(series.mls, "AEDB-MLS"),
    ]
    return "\n".join(lines)


def render_fig7(data: Fig7Data) -> str:
    """Fig. 7 boxplot geometry for one density."""
    lines = [f"Figure 7 — indicator boxplots, {data.density} dev/km^2"]
    for metric, by_alg in data.boxes.items():
        lines.append(f"\n  [{metric}]")
        for name, stats in by_alg.items():
            lines.append("  " + stats.row(name))
    return "\n".join(lines)
