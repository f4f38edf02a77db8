"""Fault-tolerant campaign execution: retries, leases, heartbeats.

The resilience layer (DESIGN.md §13) makes the *scheduler* own failure
instead of the caller: a worker crash, a hung simulation, or a raising
protocol no longer aborts a campaign run.  Three pieces, shared by every
backend through the :class:`~repro.campaigns.backends.base.ExecutionContext`:

* :class:`RetryPolicy` — how many attempts a cell gets, how long to back
  off between them (exponential, with **deterministic seeded jitter**: the
  jitter is a pure function of ``(cell key, attempt)``, so two runs of
  the same campaign wait the same fractions and chaos tests replay
  exactly), the per-cell wall-clock timeout, and the worker heartbeat
  cadence.
* :class:`LeaseTable` — in-memory cell → worker leases with heartbeat
  deadlines.  The pool driver acquires a lease when a cell's task
  enters the pool, extends it on every observed ``cell.heartbeat``, and
  treats an expired lease as a hung attempt.  The table also owns the
  per-cell attempt ledger: :meth:`LeaseTable.fail` decides *retry* vs
  *quarantine* and records poison cells in the :class:`FailureLedger`.
* :class:`FailureLedger` — the ``failures.jsonl`` file next to a
  :class:`~repro.campaigns.store.ResultStore`.  Quarantined cells are
  **recorded, never fatal**: the run completes, ``repro-aedb campaign
  failures`` renders the ledger, and entries for cells that later
  complete are pruned on the next run.

Heartbeats travel two ways.  The in-process backend (inline) emits
``cell.heartbeat`` telemetry events straight into the active recorder
from a daemon thread.  Pool workers
are separate processes: :func:`maybe_heartbeat` (called inside the
worker entry point) appends telemetry-shaped heartbeat lines to a
per-process file under ``REPRO_HEARTBEAT_DIR``, and the parent's
:class:`HeartbeatMonitor` tails those files incrementally to extend
leases — then folds them into the campaign's ``telemetry.jsonl`` so the
stream a dashboard tails contains the same heartbeats the scheduler saw.

Everything here observes and schedules; nothing touches payloads.  The
bit-identity contract (DESIGN.md §10) is untouched: a retried job is the
same pure function of the same cell, so recovered runs persist stores
byte-identical to fault-free ones — the invariant the chaos suite
(``tests/campaigns/test_chaos.py``) pins.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.utils import flags
from repro.utils.jsonl import ensure_line_boundary

__all__ = [
    "RetryPolicy",
    "Lease",
    "LeaseTable",
    "FailureLedger",
    "HeartbeatMonitor",
    "maybe_heartbeat",
    "recorder_heartbeat",
    "RETRY",
    "QUARANTINED",
    "HEARTBEAT_DIR_ENV",
    "HEARTBEAT_INTERVAL_ENV",
]

#: :meth:`LeaseTable.fail` verdicts.
RETRY = "retry"
QUARANTINED = "quarantined"

#: Environment plumbing for pool-worker heartbeats (set by the pool
#: backend around its worker pools, inherited by forked workers).
HEARTBEAT_DIR_ENV = "REPRO_HEARTBEAT_DIR"
HEARTBEAT_INTERVAL_ENV = "REPRO_HEARTBEAT_INTERVAL"

#: Ledger line version (readers skip foreign versions, like telemetry).
LEDGER_LINE_VERSION = 1


def _unit_fraction(key: str) -> float:
    """A deterministic uniform-ish fraction in [0, 1) from a string key.

    sha1-based like every other content keying in the campaign layer, so
    the jitter a cell draws is reproducible across processes and runs.
    """
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout/heartbeat budget for one campaign run.

    The default policy retries (3 attempts with sub-second backoff) but
    imposes no timeout and runs no heartbeats — resilient to crashes and
    raises at zero steady-state cost.  :meth:`disabled` restores the
    pre-§13 fail-fast behaviour (one attempt, nothing else).
    """

    #: Times a cell may be attempted before it is quarantined.
    max_attempts: int = 3
    #: Backoff before attempt 2 (seconds); grows by ``backoff_factor``.
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    #: Backoff cap (pre-jitter), seconds.
    max_delay_s: float = 5.0
    #: Jitter fraction: the delay is scaled by ``1 + jitter * u`` where
    #: ``u`` is the cell's deterministic unit fraction — de-synchronises
    #: retry stampedes without sacrificing reproducibility.
    jitter: float = 0.1
    #: Per-cell wall-clock cap per attempt (None = no timeout).  Only
    #: the preemptive backend (pool) can enforce it.
    cell_timeout_s: float | None = None
    #: Worker heartbeat cadence (None = heartbeats off).
    heartbeat_s: float | None = None
    #: Heartbeat silence that expires a lease (None = derived:
    #: ``max(5 * heartbeat_s, 1.0)``).
    heartbeat_timeout_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("base_delay_s", "backoff_factor", "max_delay_s",
                     "jitter", "cell_timeout_s", "heartbeat_s",
                     "heartbeat_timeout_s"):
            value = getattr(self, name)
            # NaN passes every ordered comparison below, and an infinite
            # timeout or delay never fires: reject both by name.
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.max_attempts <= 0:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        for name in ("cell_timeout_s", "heartbeat_s", "heartbeat_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """No retries, no timeouts, no heartbeats (fail-fast baseline)."""
        return cls(max_attempts=1)

    # ------------------------------------------------------------------ #
    @property
    def retries_enabled(self) -> bool:
        return self.max_attempts > 1

    @property
    def liveness_timeout_s(self) -> float | None:
        """Heartbeat silence treated as a hung attempt (None = off)."""
        if self.heartbeat_s is None:
            return None
        if self.heartbeat_timeout_s is not None:
            return self.heartbeat_timeout_s
        return max(5.0 * self.heartbeat_s, 1.0)

    def allows(self, attempts: int) -> bool:
        """May a cell that has failed ``attempts`` times try again?"""
        return attempts < self.max_attempts

    def delay_for(self, cell_key: str, attempt: int) -> float:
        """Backoff before re-running ``cell_key`` after failed ``attempt``.

        Deterministic: exponential in the attempt number, capped at
        ``max_delay_s``, scaled by the cell's seeded jitter fraction —
        a pure function of the arguments, so recovery schedules replay.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.max_delay_s,
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
        )
        return delay * (1.0 + self.jitter * _unit_fraction(
            f"{cell_key}#{attempt}"
        ))


# --------------------------------------------------------------------- #
@dataclass
class Lease:
    """One in-flight cell: who runs it, which attempt, until when."""

    cell: str
    worker: str
    attempt: int
    acquired_t: float
    #: Wall-clock cap for this attempt (None = no timeout).
    hard_deadline: float | None = None
    #: Heartbeat-silence deadline (None = liveness tracking off).
    liveness_deadline: float | None = None
    #: Monotonic time of the last observed heartbeat (0 = none yet).
    last_beat_t: float = 0.0

    def expired(self, now: float) -> bool:
        if self.hard_deadline is not None and now > self.hard_deadline:
            return True
        return (
            self.liveness_deadline is not None
            and now > self.liveness_deadline
        )


class LeaseTable:
    """Cell → worker leases plus the per-cell attempt/quarantine ledger.

    Thread-safe (the pool driver's heartbeat poll and drain loop share
    it).  Attempt accounting is per cell and per *attempt generation*:
    :meth:`fail` records ``attempts[cell] = max(attempts, attempt)``, so
    repeated reports of one failed attempt count once — the unit the
    quarantine budget is spent in is a whole cell execution, matching
    the retry unit.
    """

    def __init__(self, policy: RetryPolicy, ledger: "FailureLedger | None" = None):
        self.policy = policy
        self.ledger = ledger
        self._lock = threading.Lock()
        self._leases: dict[str, Lease] = {}
        #: Highest attempt number that has failed, per cell.
        self._attempts: dict[str, int] = {}
        #: ``cell -> (attempts, error)`` for poisoned cells.
        self.quarantined: dict[str, tuple[int, str]] = {}
        #: Total failure events observed (telemetry roll-up).
        self.failures = 0
        #: Cells put back on the queue after a loss (telemetry).
        self.requeues = 0

    # ------------------------------------------------------------------ #
    def attempts(self, cell: str) -> int:
        """How many attempts of ``cell`` have failed so far."""
        with self._lock:
            return self._attempts.get(cell, 0)

    def next_attempt(self, cell: str) -> int:
        """The attempt number the next execution of ``cell`` runs as."""
        return self.attempts(cell) + 1

    # ------------------------------------------------------------------ #
    def acquire(
        self, cell: str, worker: str, now: float | None = None
    ) -> Lease:
        """Lease ``cell`` to ``worker`` for its next attempt.

        The hard deadline applies from acquisition; the liveness
        deadline arms only when the policy runs heartbeats (a worker
        that never manages a first beat within the liveness window
        counts as hung — the pool driver keeps in-flight ≤ workers, so
        a leased cell is running, not queued).
        """
        now = time.monotonic() if now is None else now
        policy = self.policy
        lease = Lease(
            cell=cell,
            worker=worker,
            attempt=self.next_attempt(cell),
            acquired_t=now,
            hard_deadline=(
                now + policy.cell_timeout_s
                if policy.cell_timeout_s is not None
                else None
            ),
            liveness_deadline=(
                now + policy.liveness_timeout_s
                if policy.liveness_timeout_s is not None
                else None
            ),
        )
        with self._lock:
            self._leases[cell] = lease
        return lease

    def beat(self, cell: str, now: float | None = None) -> bool:
        """Extend ``cell``'s liveness deadline; False for unknown leases."""
        now = time.monotonic() if now is None else now
        timeout = self.policy.liveness_timeout_s
        with self._lock:
            lease = self._leases.get(cell)
            if lease is None:
                return False
            lease.last_beat_t = now
            if timeout is not None:
                lease.liveness_deadline = now + timeout
            return True

    def expired(self, now: float | None = None) -> list[Lease]:
        """Leases past their hard or liveness deadline (still held)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            return [l for l in self._leases.values() if l.expired(now)]

    def release(self, cell: str) -> None:
        with self._lock:
            self._leases.pop(cell, None)

    # ------------------------------------------------------------------ #
    def fail(self, cell: str, error: str, attempt: int | None = None) -> str:
        """Record one failed attempt; decide :data:`RETRY` or
        :data:`QUARANTINED` (the latter lands in the ledger)."""
        with self._lock:
            lease = self._leases.pop(cell, None)
            if attempt is None:
                attempt = (
                    lease.attempt
                    if lease is not None
                    else self._attempts.get(cell, 0) + 1
                )
            self._attempts[cell] = max(self._attempts.get(cell, 0), attempt)
            self.failures += 1
            attempts = self._attempts[cell]
            if self.policy.allows(attempts):
                return RETRY
            self.quarantined[cell] = (attempts, error)
        if self.ledger is not None:
            self.ledger.record(cell, attempts=attempts, error=error)
        return QUARANTINED

    def count_requeue(self, n: int = 1) -> None:
        with self._lock:
            self.requeues += n


# --------------------------------------------------------------------- #
class FailureLedger:
    """``failures.jsonl`` — the quarantine record next to a store.

    Append-only JSON Lines under the repo-wide torn-tail contract: a
    line cut mid-append is skipped by every reader, never an error.
    Like ``telemetry.jsonl``, the ledger is deliberately *outside* the
    bit-identity surface — it records wall-clock and error text, and
    exists precisely for the runs whose stores are incomplete.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def record(
        self, cell: str, attempts: int, error: str, worker: str = ""
    ) -> None:
        """Append one quarantine entry (whole line, flushed)."""
        line = json.dumps(
            {
                "v": LEDGER_LINE_VERSION,
                "kind": "failure",
                "cell": cell,
                "attempts": int(attempts),
                "error": str(error),
                "worker": worker,
                "t": time.time(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        ensure_line_boundary(self.path)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def entries(self) -> list[dict]:
        """Parsed ledger entries, newest last; torn/foreign lines skipped."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        out: list[dict] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-append
            if (
                isinstance(obj, dict)
                and obj.get("v") == LEDGER_LINE_VERSION
                and obj.get("kind") == "failure"
                and "cell" in obj
            ):
                out.append(obj)
        return out

    def latest_by_cell(self) -> dict[str, dict]:
        """The newest entry per cell (a re-quarantined cell supersedes)."""
        latest: dict[str, dict] = {}
        for entry in self.entries():
            latest[str(entry["cell"])] = entry
        return latest

    def prune(self, completed_keys: set[str]) -> int:
        """Drop entries for cells that have since completed; dedup by
        cell (newest wins).  Returns the number of entries removed."""
        entries = self.entries()
        latest = self.latest_by_cell()
        keep = [
            entry
            for cell, entry in sorted(latest.items())
            if cell not in completed_keys
        ]
        removed = len(entries) - len(keep)
        if removed <= 0:
            return 0
        if not keep:
            self.path.unlink(missing_ok=True)
            return removed
        lines = [
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in keep
        ]
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, self.path)
        return removed

# --------------------------------------------------------------------- #
# Heartbeats.
class _HeartbeatThread:
    """Daemon thread calling ``emit()`` immediately and every interval."""

    def __init__(self, interval_s: float, emit) -> None:
        self._interval = interval_s
        self._emit = emit
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            try:
                self._emit()
            except Exception:  # noqa: BLE001 - observation must not kill work
                return
            if self._stop.wait(self._interval):
                return

    def __enter__(self) -> "_HeartbeatThread":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def recorder_heartbeat(cell: str, interval_s: float | None, recorder):
    """Context manager emitting ``cell.heartbeat`` telemetry events from
    a daemon thread for the duration of an in-process cell execution
    (the inline backend's side of the heartbeat contract).  ``None``
    interval → a no-op context."""
    if interval_s is None:
        return nullcontext()
    return _HeartbeatThread(
        interval_s, lambda: recorder.event("cell.heartbeat", cell=cell)
    )


class _WorkerSink:
    """Per-process append handle for a worker's heartbeat file."""

    def __init__(self, directory: str):
        self.path = Path(directory) / f"heartbeat-{os.getpid()}.jsonl"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        ensure_line_boundary(self.path)
        self._fh = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()

    def emit(self, cell: str) -> None:
        # Telemetry-shaped event lines, so the parent can both parse
        # them for liveness and fold the file straight into
        # telemetry.jsonl at the end of the run.
        line = json.dumps(
            {
                "v": 1,
                "kind": "event",
                "name": "cell.heartbeat",
                "t": time.time(),
                "attrs": {"cell": cell, "pid": os.getpid()},
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()


_worker_sinks: dict[str, _WorkerSink] = {}
_worker_sinks_lock = threading.Lock()


def _worker_sink(directory: str) -> _WorkerSink:
    with _worker_sinks_lock:
        sink = _worker_sinks.get(directory)
        if sink is None or os.getpid() != int(
            sink.path.stem.split("-", 1)[1]
        ):
            sink = _WorkerSink(directory)
            _worker_sinks[directory] = sink
        return sink


def maybe_heartbeat(cell: str):
    """The worker-side heartbeat hook (called by ``_execute_job``).

    When the parent exported :data:`HEARTBEAT_DIR_ENV` (the pool driver
    with ``heartbeat_s`` set), returns a context manager that streams
    ``cell.heartbeat`` lines to this process's heartbeat file at the
    exported cadence; otherwise a shared no-op — two env lookups per
    job, nothing else.
    """
    directory = flags.read_raw(HEARTBEAT_DIR_ENV)
    if not directory:
        return nullcontext()
    interval = flags.read_float(HEARTBEAT_INTERVAL_ENV, 1.0)
    sink = _worker_sink(directory)
    return _HeartbeatThread(interval, lambda: sink.emit(cell))


class HeartbeatMonitor:
    """Parent-side incremental tail over a heartbeat directory.

    :meth:`poll` reads only bytes appended since the previous poll and
    returns the cells that beat, tolerating the partial line a worker
    may be mid-append on (carried to the next poll — the torn-tail
    contract, applied to a live file).  :meth:`fold_into` appends every
    complete heartbeat file to the campaign's telemetry stream.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: path -> (byte offset consumed, carried partial line)
        self._progress: dict[Path, tuple[int, str]] = {}

    def poll(self) -> dict[str, float]:
        """``{cell: last unix heartbeat time}`` from newly appended lines."""
        beats: dict[str, float] = {}
        try:
            files = sorted(self.directory.glob("heartbeat-*.jsonl"))
        except OSError:
            return beats
        for path in files:
            offset, carry = self._progress.get(path, (0, ""))
            try:
                with path.open("r", encoding="utf-8") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
                    offset = fh.tell()
            except OSError:
                continue
            text = carry + chunk
            lines = text.split("\n")
            carry = lines.pop()  # "" on a clean final newline
            self._progress[path] = (offset, carry)
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                attrs = obj.get("attrs") or {}
                cell = attrs.get("cell")
                if obj.get("name") == "cell.heartbeat" and cell:
                    t = float(obj.get("t", 0.0))
                    if t >= beats.get(cell, 0.0):
                        beats[cell] = t
        return beats

    def fold_into(self, telemetry_path: str | Path) -> int:
        """Append every heartbeat file to ``telemetry_path`` (once, at
        the end of a run); returns lines appended."""
        from repro.telemetry import merge_telemetry_files

        total = 0
        for path in sorted(self.directory.glob("heartbeat-*.jsonl")):
            total += merge_telemetry_files(telemetry_path, path)
        return total


@contextmanager
def heartbeat_env(directory: str | Path, interval_s: float):
    """Export the worker heartbeat env around a pool's lifetime."""
    previous = {
        HEARTBEAT_DIR_ENV: flags.read_raw(HEARTBEAT_DIR_ENV),
        HEARTBEAT_INTERVAL_ENV: flags.read_raw(HEARTBEAT_INTERVAL_ENV),
    }
    # The blessed propagation seam: exports the heartbeat env to
    # forked pool workers, restored on exit below.
    os.environ[HEARTBEAT_DIR_ENV] = str(directory)  # repro-lint: ok E303
    os.environ[HEARTBEAT_INTERVAL_ENV] = repr(float(interval_s))  # repro-lint: ok E303
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
