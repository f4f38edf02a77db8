"""Fault-tolerant campaign execution: retries, leases, quarantine.

The resilience layer (DESIGN.md §13) makes the *scheduler* own failure
instead of the caller: a worker crash, a hung simulation, or a raising
protocol no longer aborts a campaign run.  Three pieces, shared by every
backend through the :class:`~repro.campaigns.backends.base.ExecutionContext`:

* :class:`RetryPolicy` — how many attempts a cell gets, how long to back
  off between them (exponential, with **deterministic seeded jitter**: the
  jitter is a pure function of ``(cell key, attempt)``, so two runs of
  the same campaign wait the same fractions and chaos tests replay
  exactly), and the per-cell wall-clock timeout.
* :class:`LeaseTable` — in-memory cell → worker leases with wall-clock
  deadlines.  The pool driver acquires a lease when a cell's task
  enters the pool and treats an expired lease as a hung attempt: the
  cell timeout is the one hang detector.  The table also owns the
  per-cell attempt ledger: :meth:`LeaseTable.fail` decides *retry* vs
  *quarantine* and records poison cells in the :class:`FailureLedger`.
* :class:`FailureLedger` — the ``failures.jsonl`` file next to a
  :class:`~repro.campaigns.store.ResultStore`.  Quarantined cells are
  **recorded, never fatal**: the run completes, ``repro-aedb campaign
  failures`` renders the ledger, and entries for cells that later
  complete are pruned on the next run.

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
from dataclasses import dataclass
from pathlib import Path

from repro.utils.jsonl import ensure_line_boundary

__all__ = [
    "RetryPolicy",
    "Lease",
    "LeaseTable",
    "FailureLedger",
    "RETRY",
    "QUARANTINED",
]

#: :meth:`LeaseTable.fail` verdicts.
RETRY = "retry"
QUARANTINED = "quarantined"

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
    """Retry/backoff/timeout budget for one campaign run.

    The default policy retries (3 attempts with sub-second backoff) but
    imposes no timeout — resilient to crashes and raises at zero
    steady-state cost.  :meth:`disabled` restores the
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

    def __post_init__(self) -> None:
        for name in ("base_delay_s", "backoff_factor", "max_delay_s",
                     "jitter", "cell_timeout_s"):
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
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s}"
            )

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """No retries, no timeouts (fail-fast baseline)."""
        return cls(max_attempts=1)

    # ------------------------------------------------------------------ #
    @property
    def retries_enabled(self) -> bool:
        return self.max_attempts > 1

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

    def expired(self, now: float) -> bool:
        return self.hard_deadline is not None and now > self.hard_deadline


class LeaseTable:
    """Cell → worker leases plus the per-cell attempt/quarantine ledger.

    Thread-safe.  Attempt accounting is per cell and per *attempt generation*:
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

        The hard deadline applies from acquisition (the pool driver
        keeps in-flight ≤ workers, so a leased cell is running, not
        queued).
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
        )
        with self._lock:
            self._leases[cell] = lease
        return lease

    def expired(self, now: float | None = None) -> list[Lease]:
        """Leases past their hard deadline (still held)."""
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
