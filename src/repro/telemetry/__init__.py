"""Campaign-wide telemetry: spans, counters, and lifecycle events.

The instrumentation subsystem (DESIGN.md §12).  One :class:`Recorder`
protocol, three sinks — :class:`NullRecorder` (the default, near-zero
overhead), :class:`MemoryRecorder` (in-process), :class:`JsonlRecorder`
(streams ``telemetry.jsonl`` next to a campaign store) — switched by
the ``REPRO_TELEMETRY`` environment variable (off | on | deep).

Write side: the campaign executor, backends, evaluators, the persistent
evaluation cache, and the simulator call :func:`get_recorder` at coarse
boundaries.  Read side: :class:`TelemetrySummary` replays a recorded
stream into counter totals, span statistics, and the per-cell timing
behind ``repro-aedb campaign telemetry``.

The hard invariant: telemetry observes, never perturbs — campaign
stores are byte-identical with telemetry off, on, and deep
(``tests/telemetry/test_bit_identity.py``).
"""

from repro.telemetry.recorder import (
    MODE_DEEP,
    MODE_OFF,
    MODE_ON,
    NULL,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    Recorder,
    deep_telemetry_enabled,
    get_recorder,
    recorder_for,
    telemetry_enabled,
    telemetry_mode,
    using,
)
from repro.telemetry.summary import (
    SpanStat,
    TelemetrySummary,
    render_telemetry,
)

__all__ = [
    "Recorder",
    "NullRecorder",
    "MemoryRecorder",
    "JsonlRecorder",
    "NULL",
    "telemetry_mode",
    "telemetry_enabled",
    "deep_telemetry_enabled",
    "get_recorder",
    "recorder_for",
    "using",
    "SpanStat",
    "TelemetrySummary",
    "render_telemetry",
    "MODE_OFF",
    "MODE_ON",
    "MODE_DEEP",
]
