"""Recorder core: the telemetry seam every subsystem writes into.

Three implementations of one :class:`Recorder` protocol (DESIGN.md §12):

* :class:`NullRecorder` — the default.  Every method is a no-op and
  ``span()`` returns one shared, reusable context manager, so an
  instrumented hot path with telemetry off costs a handful of attribute
  lookups per *coarse* operation (per simulation, per cell — never per
  event) and allocates nothing.  The fine-grained counters are not even
  that cheap to skip, so they additionally hide behind a boolean
  captured at construction (:func:`deep_telemetry_enabled`).
* :class:`MemoryRecorder` — in-process accumulation (bounded), the
  ambient sink when ``REPRO_TELEMETRY`` is set but nobody installed a
  file-backed recorder (e.g. pool workers), and the unit-test probe.
* :class:`JsonlRecorder` — streams ``telemetry.jsonl`` next to a
  campaign's :class:`~repro.campaigns.store.ResultStore`.  Events and
  spans are appended (and flushed) as whole lines the moment they
  happen — the lifecycle stream ``campaign telemetry`` replays — while
  counters accumulate in memory and flush as *delta* lines, so a
  per-lookup cache counter never costs a write.

The mode switch is the ``REPRO_TELEMETRY`` environment variable: unset
/ ``off`` — disabled; ``on`` — spans, counters, lifecycle events;
``deep`` — additionally the per-frame / per-event counters inside the
simulator warm loop; any other value raises ``ValueError``.  Telemetry
must never perturb results: recorders only *observe* (wall-clock reads,
no RNG, no ordering influence), and the golden bit-identity harness pins
campaign stores byte-identical with telemetry off, on, and deep
(``tests/telemetry/test_bit_identity.py``).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Protocol, runtime_checkable

from repro.utils import flags
from repro.utils.jsonl import ensure_line_boundary

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
    "MODE_OFF",
    "MODE_ON",
    "MODE_DEEP",
]

#: Per-line format version (summary readers skip foreign versions).
LINE_VERSION = 1

MODE_OFF = "off"
MODE_ON = "on"
MODE_DEEP = "deep"


def telemetry_mode() -> str:
    """``"off"`` | ``"on"`` | ``"deep"`` from ``REPRO_TELEMETRY``.

    Read per call (not cached at import), so campaign workers honour the
    parent's environment and tests can flip modes with ``monkeypatch`` —
    the registry-wide contract of :mod:`repro.utils.flags`.  Unset or
    empty is off; any other value raises ``ValueError`` naming the flag.
    """
    return flags.read_choice(
        "REPRO_TELEMETRY", (MODE_OFF, MODE_ON, MODE_DEEP)
    )


def telemetry_enabled() -> bool:
    """True when any telemetry mode is active."""
    return telemetry_mode() != MODE_OFF


def deep_telemetry_enabled() -> bool:
    """True only under ``REPRO_TELEMETRY=deep`` (fine-grained counters).

    Consumers on the warm path capture this once at construction and
    branch on the plain boolean, so the off path pays one ``if`` per
    coarse operation and nothing per event.
    """
    return telemetry_mode() == MODE_DEEP


# --------------------------------------------------------------------- #
@runtime_checkable
class Recorder(Protocol):
    """One telemetry sink: spans, counters, gauges, structured events."""

    def span(self, name: str, **attrs):
        """Context manager timing one operation (recorded on exit)."""
        ...  # pragma: no cover - protocol

    def record_span(self, name: str, duration_s: float, **attrs) -> None:
        """Record an already-measured duration (manual span)."""
        ...  # pragma: no cover - protocol

    def count(self, name: str, n: int = 1, **attrs) -> None:
        """Increment a monotonic counter."""
        ...  # pragma: no cover - protocol

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record a point-in-time measurement (last write wins)."""
        ...  # pragma: no cover - protocol

    def event(self, name: str, **attrs) -> None:
        """Emit one structured lifecycle event."""
        ...  # pragma: no cover - protocol

    def flush(self) -> None:
        """Push buffered state (counter deltas) to the sink."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""
        ...  # pragma: no cover - protocol


class _NullSpan:
    """The shared no-op span — one instance, re-entered freely."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default: every operation is a no-op."""

    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, duration_s: float, **attrs) -> None:
        return None

    def count(self, name: str, n: int = 1, **attrs) -> None:
        return None

    def gauge(self, name: str, value: float, **attrs) -> None:
        return None

    def event(self, name: str, **attrs) -> None:
        return None

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


#: The process-wide null sink (recorders are stateless; share one).
NULL = NullRecorder()


class _Span:
    """Timing context manager for the live recorders.

    Single-use (each ``span()`` call allocates one), records on exit
    even when the body raises — a failed cell still reports how long it
    ran before failing.
    """

    __slots__ = ("_recorder", "_name", "_attrs", "_start")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.record_span(
            self._name, time.perf_counter() - self._start, **self._attrs
        )


def _attrs_key(attrs: dict) -> tuple:
    """Hashable identity of an attribute set (sorted, insertion-free)."""
    return tuple(sorted(attrs.items()))


class MemoryRecorder:
    """In-process accumulation: counters, span stats, recent events.

    Bounded: at most ``max_records`` spans and events are kept (drops
    are counted in ``dropped``), so a long-lived ambient recorder — a
    pool worker that never ships its telemetry anywhere — cannot grow
    without limit.  Thread-safe (AEDB-MLS evaluates from threads).
    """

    def __init__(self, max_records: int = 100_000):
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.max_records = int(max_records)
        self._lock = threading.Lock()
        #: ``(name, attrs_key) -> int``
        self.counters: dict[tuple, int] = {}
        #: ``(name, attrs_key) -> float`` (last write wins)
        self.gauges: dict[tuple, float] = {}
        #: ``(name, duration_s, attrs)`` in completion order.
        self.spans: list[tuple[str, float, dict]] = []
        #: ``{"name": ..., "t": ..., **attrs}`` in emission order.
        self.events: list[dict] = []
        self.dropped = 0

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def record_span(self, name: str, duration_s: float, **attrs) -> None:
        with self._lock:
            if len(self.spans) >= self.max_records:
                self.dropped += 1
                return
            self.spans.append((name, float(duration_s), attrs))

    def count(self, name: str, n: int = 1, **attrs) -> None:
        key = (name, _attrs_key(attrs))
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + int(n)

    def gauge(self, name: str, value: float, **attrs) -> None:
        with self._lock:
            self.gauges[(name, _attrs_key(attrs))] = float(value)

    def event(self, name: str, **attrs) -> None:
        with self._lock:
            if len(self.events) >= self.max_records:
                self.dropped += 1
                return
            self.events.append({"name": name, "t": time.time(), **attrs})

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None

    # ------------------------------------------------------------------ #
    def counter_total(self, name: str) -> int:
        """Sum of one counter over every attribute combination."""
        with self._lock:
            return sum(
                v for (n, _), v in self.counters.items() if n == name
            )

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.spans.clear()
            self.events.clear()
            self.dropped = 0


class JsonlRecorder:
    """Streams telemetry as JSON Lines next to a campaign store.

    Line shapes (all carry ``"v": 1`` and merge-friendly ``attrs``)::

        {"v":1,"kind":"event","name":...,"t":<unix>,"attrs":{...}}
        {"v":1,"kind":"span","name":...,"dur_s":...,"t":...,"attrs":{...}}
        {"v":1,"kind":"count","name":...,"n":<delta>,"attrs":{...}}
        {"v":1,"kind":"gauge","name":...,"value":...,"t":...,"attrs":{...}}

    Events, spans, and gauges are written (and flushed) immediately —
    whole lines, so a tailing consumer sees each event as it happens and
    a crash tears at most the line in flight, which every reader skips
    (:mod:`repro.telemetry.summary` applies the store's torn-tail
    contract).  Counter increments accumulate in memory and are written
    as **delta** lines by :meth:`flush` — appending two recorders' files
    therefore sums their counters.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._writer: IO[str] | None = None
        self._pending_counts: dict[tuple, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    def _write_line(self, obj: dict) -> None:
        """Append one whole line and flush (caller holds the lock)."""
        if self._closed:
            return
        if self._writer is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            ensure_line_boundary(self.path)
            self._writer = self.path.open("a", encoding="utf-8")
        self._writer.write(
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._writer.flush()

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def record_span(self, name: str, duration_s: float, **attrs) -> None:
        with self._lock:
            self._write_line({
                "v": LINE_VERSION,
                "kind": "span",
                "name": name,
                "dur_s": float(duration_s),
                "t": time.time(),
                "attrs": attrs,
            })

    def count(self, name: str, n: int = 1, **attrs) -> None:
        key = (name, _attrs_key(attrs))
        with self._lock:
            self._pending_counts[key] = self._pending_counts.get(key, 0) + int(n)

    def gauge(self, name: str, value: float, **attrs) -> None:
        with self._lock:
            self._write_line({
                "v": LINE_VERSION,
                "kind": "gauge",
                "name": name,
                "value": float(value),
                "t": time.time(),
                "attrs": attrs,
            })

    def event(self, name: str, **attrs) -> None:
        with self._lock:
            self._write_line({
                "v": LINE_VERSION,
                "kind": "event",
                "name": name,
                "t": time.time(),
                "attrs": attrs,
            })

    def flush(self) -> None:
        """Write buffered counter deltas (zero deltas are skipped)."""
        with self._lock:
            pending, self._pending_counts = self._pending_counts, {}
            for (name, attrs_key), delta in pending.items():
                if delta == 0:
                    continue
                self._write_line({
                    "v": LINE_VERSION,
                    "kind": "count",
                    "name": name,
                    "n": delta,
                    "attrs": dict(attrs_key),
                })

    def close(self) -> None:
        self.flush()
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            self._closed = True

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Process-wide recorder registry.
_active: Recorder | None = None
_active_lock = threading.Lock()
_ambient: MemoryRecorder | None = None


def _ambient_recorder() -> MemoryRecorder:
    global _ambient
    if _ambient is None:
        with _active_lock:
            if _ambient is None:
                _ambient = MemoryRecorder()
    return _ambient


def get_recorder() -> Recorder:
    """The recorder instrumentation points write to.

    Resolution order: the recorder installed by :func:`using` (a
    campaign run installs its store's :class:`JsonlRecorder` here), else
    :data:`NULL` when telemetry is off, else a process-global
    :class:`MemoryRecorder` — so library callers with ``REPRO_TELEMETRY``
    set but no campaign store still accumulate inspectable counters.
    """
    if _active is not None:
        return _active
    return recorder_for(telemetry_mode())


def recorder_for(mode: str) -> Recorder:
    """What :func:`get_recorder` returns when ``REPRO_TELEMETRY`` reads
    as ``mode``, without reading it: for the layers that capture the
    mode once (evaluators, campaign jobs) and resolve the recorder per
    evaluation or simulation."""
    if _active is not None:
        return _active
    if mode == MODE_OFF:
        return NULL
    return _ambient_recorder()


@contextmanager
def using(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the process default for the block.

    Re-entrant in the dynamic-scoping sense (the previous recorder is
    restored on exit); not meant for concurrent installs from multiple
    threads — campaign runs own the process.
    """
    global _active
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous
