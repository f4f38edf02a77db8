"""Replay a ``telemetry.jsonl`` stream into aggregates and reports.

The read side of the telemetry layer (DESIGN.md §12): everything here
derives purely from the recorded lines — no simulation, no store access
— so ``repro-aedb campaign telemetry`` works on a copy of the file or
a live campaign's stream mid-run.

Parsing applies the repo-wide torn-tail contract
(:class:`~repro.campaigns.store.ResultStore`,
:class:`~repro.tuning.cache.PersistentEvaluationCache`): unparseable or
foreign-version lines are skipped and counted, never an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.telemetry.recorder import LINE_VERSION

__all__ = ["SpanStat", "TelemetrySummary", "render_telemetry"]


@dataclass
class SpanStat:
    """Aggregate of every recorded span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s


@dataclass
class TelemetrySummary:
    """Counters, span statistics, and lifecycle events of one stream."""

    #: Counter totals by name (attribute combinations summed).
    counters: dict[str, int] = field(default_factory=dict)
    #: Span aggregates by name.
    spans: dict[str, SpanStat] = field(default_factory=dict)
    #: Last written value per ``(gauge name, attrs json)``.
    gauges: dict[str, float] = field(default_factory=dict)
    #: Lifecycle events in stream order: ``(t, name, attrs)``.
    events: list[tuple[float, str, dict]] = field(default_factory=list)
    #: Per-cell wall-clock: ``cell key -> seconds`` (``campaign.cell``
    #: spans; a resumed cell re-run accumulates).
    cell_seconds: dict[str, float] = field(default_factory=dict)
    #: Parsed / skipped line counts (torn tails, foreign versions).
    n_lines: int = 0
    n_skipped: int = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "TelemetrySummary":
        summary = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            summary.n_lines += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                summary.n_skipped += 1  # torn tail from a crash mid-append
                continue
            if not isinstance(obj, dict) or obj.get("v") != LINE_VERSION:
                summary.n_skipped += 1  # future/foreign format
                continue
            kind = obj.get("kind")
            name = obj.get("name")
            attrs = obj.get("attrs") or {}
            try:
                if kind == "count":
                    summary.counters[name] = (
                        summary.counters.get(name, 0) + int(obj["n"])
                    )
                elif kind == "span":
                    dur = float(obj["dur_s"])
                    summary.spans.setdefault(name, SpanStat()).add(dur)
                    if name == "campaign.cell" and "cell" in attrs:
                        key = str(attrs["cell"])
                        summary.cell_seconds[key] = (
                            summary.cell_seconds.get(key, 0.0) + dur
                        )
                elif kind == "event":
                    summary.events.append(
                        (float(obj.get("t", 0.0)), name, attrs)
                    )
                elif kind == "gauge":
                    gkey = name if not attrs else (
                        f"{name}{json.dumps(attrs, sort_keys=True)}"
                    )
                    summary.gauges[gkey] = float(obj["value"])
                else:
                    summary.n_skipped += 1
            except (KeyError, TypeError, ValueError):
                summary.n_skipped += 1
        return summary

    @classmethod
    def from_file(cls, path: str | Path) -> "TelemetrySummary":
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            return cls()
        return cls.from_lines(text.splitlines())

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return not (self.counters or self.spans or self.events or self.gauges)

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def top_cells(self, n: int = 10) -> list[tuple[str, float]]:
        """The ``n`` slowest cells by accumulated wall-clock."""
        ranked = sorted(
            self.cell_seconds.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:n]

    def event_counts(self) -> dict[str, int]:
        """How many times each lifecycle event fired."""
        out: dict[str, int] = {}
        for _, name, _ in self.events:
            out[name] = out.get(name, 0) + 1
        return out


# --------------------------------------------------------------------- #
def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100.0:
        return f"{seconds:8.1f}s "
    if seconds >= 0.1:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1e3:8.2f}ms"


def render_telemetry(summary: TelemetrySummary, top: int = 10) -> str:
    """Plain-text timing/counter report (``campaign telemetry``)."""
    if summary.is_empty:
        return (
            "no telemetry recorded (run the campaign with "
            "REPRO_TELEMETRY=on or REPRO_TELEMETRY=deep)"
        )
    lines = ["telemetry summary"]

    if summary.spans:
        lines.append("")
        lines.append(
            f"{'span':<24s} {'count':>8s} {'total':>10s} "
            f"{'mean':>10s} {'max':>10s}"
        )
        for name in sorted(
            summary.spans, key=lambda n: -summary.spans[n].total_s
        ):
            stat = summary.spans[name]
            lines.append(
                f"{name:<24s} {stat.count:>8d} {_fmt_seconds(stat.total_s)}"
                f" {_fmt_seconds(stat.mean_s)} {_fmt_seconds(stat.max_s)}"
            )

    if summary.counters:
        lines.append("")
        lines.append(f"{'counter':<40s} {'total':>14s}")
        for name in sorted(summary.counters):
            lines.append(f"{name:<40s} {summary.counters[name]:>14d}")

    if summary.gauges:
        lines.append("")
        lines.append(f"{'gauge':<40s} {'value':>14s}")
        for name in sorted(summary.gauges):
            lines.append(f"{name:<40s} {summary.gauges[name]:>14g}")

    event_counts = summary.event_counts()
    if event_counts:
        lines.append("")
        lines.append(f"{'event':<40s} {'fired':>8s}")
        for name in sorted(event_counts):
            lines.append(f"{name:<40s} {event_counts[name]:>8d}")

    cells = summary.top_cells(top)
    if cells:
        lines.append("")
        lines.append(f"top {len(cells)} slowest cells:")
        for key, seconds in cells:
            lines.append(f"  {_fmt_seconds(seconds)}  {key}")

    if summary.n_skipped:
        lines.append("")
        lines.append(
            f"({summary.n_skipped} of {summary.n_lines} lines skipped: "
            "torn tails or foreign versions)"
        )
    return "\n".join(lines)
