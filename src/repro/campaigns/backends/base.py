"""The campaign execution-strategy seam.

A :class:`Backend` owns *how* a campaign's pending cells turn into
persisted results; the :class:`~repro.campaigns.executor.CampaignExecutor`
owns everything strategy-independent — grid expansion, resume filtering,
cache resolution, record serialisation, store writes — and hands a
backend one :class:`ExecutionContext` per run.

The contract every backend must keep (DESIGN.md §10):

* **Bit-identity.**  For the same :class:`CampaignSpec`, the records a
  backend persists must be byte-identical to every other backend's —
  records derive only from ``(cell, payloads)`` and payloads are pure
  functions of their jobs, so a backend may reorder, distribute, batch,
  or cache-resolve work freely, but must reassemble each cell's
  payloads in job-index order.  ``tests/campaigns/test_backend_identity.py``
  pins this across both shipped backends.
* **Crash-isolation.**  A failed cell must not abort the
  rest of the run; everything that completed persists, so the next
  invocation re-executes only what failed.
* **Cache discipline.**  Persistent-cache hits are resolved through
  :meth:`ExecutionContext.cached_payload` / counted through
  :meth:`ExecutionContext.record_executed`, so reports can never
  diverge between backends.

Shipped backends: :class:`~repro.campaigns.backends.inline.InlineBackend`
(serial, in-process — the debuggable reference) and
:class:`~repro.campaigns.backends.pool.PoolBackend` (one shared process
pool, one task per cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.campaigns.resilience import (
    QUARANTINED,
    LeaseTable,
    RetryPolicy,
)
from repro.telemetry import NULL, Recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns.executor import CampaignExecutor, CampaignRunReport
    from repro.campaigns.spec import CampaignCell
    from repro.campaigns.store import ResultStore
    from repro.tuning.cache import PersistentEvaluationCache

__all__ = ["Backend", "ExecutionContext"]


@runtime_checkable
class Backend(Protocol):
    """One execution strategy for a campaign's pending cells."""

    #: Stable identifier (``"inline"`` or ``"pool"``).
    name: str

    def execute(self, ctx: "ExecutionContext") -> None:
        """Run every cell in ``ctx.pending``, finishing each through
        ``ctx`` so persistence and reporting stay backend-agnostic."""
        ...  # pragma: no cover - protocol


@dataclass
class ExecutionContext:
    """Everything a backend needs for one :meth:`CampaignExecutor.run`.

    Thin by design: the heavy machinery (job expansion, record
    serialisation, store writes, cache bookkeeping) stays on the
    executor, and the context narrows it to exactly the operations a
    strategy is allowed to use — keeping every backend on the same
    persistence and accounting paths.
    """

    executor: "CampaignExecutor"
    #: Cells to execute this run (resume-filtered, spec order).
    pending: "list[CampaignCell]"
    report: "CampaignRunReport"
    #: Resolved persistent evaluation cache (None = disabled).
    cache: "PersistentEvaluationCache | None"
    #: Per-cell completion callback (or None).
    progress: Callable | None
    #: Telemetry sink for this run (DESIGN.md §12) — the shared no-op
    #: :data:`~repro.telemetry.NULL` when ``REPRO_TELEMETRY`` is off.
    #: Backends emit lifecycle events (``cell.leased``/``cell.started``)
    #: and ``campaign.cell`` spans through it; they must never let it
    #: influence scheduling or payloads (bit-identity contract above).
    recorder: Recorder = field(default=NULL)
    #: The run's lease/attempt table (DESIGN.md §13).  Owns the retry
    #: policy and the quarantine record; backends route every failed
    #: attempt through :meth:`fail_cell` so retry accounting, the
    #: ``failures.jsonl`` ledger, and the report can never diverge.
    leases: LeaseTable = field(
        default_factory=lambda: LeaseTable(RetryPolicy())
    )

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> "ResultStore | None":
        return self.executor.store

    @property
    def max_workers(self) -> int | None:
        return self.executor.max_workers

    @property
    def policy(self) -> RetryPolicy:
        """The run's retry/timeout/heartbeat budget (via the leases —
        one source of truth)."""
        return self.leases.policy

    # ------------------------------------------------------------------ #
    def jobs_for(self, cell: "CampaignCell") -> list:
        """The cell's job objects (index order)."""
        return self.executor._jobs_for(cell)

    def finish_cell(self, cell: "CampaignCell", payloads: list) -> None:
        """Serialise, persist, report, and fire progress for one cell."""
        self.executor._finish_cell(cell, payloads, self.report, self.progress)

    def cached_payload(self, job):
        """Persistent-cache hit for ``job`` or None (hits are counted)."""
        return self.executor._cached_payload(job, self.report, self.cache)

    def record_executed(self, job, payload) -> None:
        """Count one live execution; persist a simulation's result."""
        self.executor._record_executed(job, payload, self.report, self.cache)

    def resolve_job(self, job):
        """One job's payload: cache hit or in-process execution."""
        return self.executor._resolve_serial_job(job, self.report, self.cache)

    def fail_cell(
        self, cell_key: str, error: str, attempt: int | None = None
    ) -> str:
        """Record one failed attempt of a cell and emit its lifecycle
        event; returns :data:`~repro.campaigns.resilience.RETRY` or
        :data:`~repro.campaigns.resilience.QUARANTINED`.  Quarantine is
        terminal for the run but never fatal: the cell lands in the
        ledger and ``report.failed``, and everything else proceeds.
        """
        verdict = self.leases.fail(cell_key, error, attempt)
        attempts = self.leases.attempts(cell_key)
        if verdict == QUARANTINED:
            self.recorder.event(
                "cell.quarantined", cell=cell_key,
                attempts=attempts, error=error,
            )
        else:
            self.recorder.event(
                "cell.retry", cell=cell_key,
                attempts=attempts, error=error,
            )
        return verdict
