"""Process-pool campaign execution — one shared pool over all cells.

This is the strategy PR 1 shipped inside the executor, extracted behind
the :class:`~repro.campaigns.backends.base.Backend` protocol: every
pending cell's jobs are built up front and submitted to ONE persistent
:class:`~concurrent.futures.ProcessPoolExecutor`, so simulations
interleave *across* cells (no per-cell pool spin-up, no idle workers at
cell boundaries), persistent-cache hits resolve before the pool even
exists, and a :class:`~repro.manet.shared.SharedRuntimeArena` built
before the pool forks gives every worker the owner's copy of each
scenario's precomputed substrate (DESIGN.md §9).

PR 7 made the pool *survive its workers* (DESIGN.md §13).  The drain
loop became a lease-driven driver:

* a cell is **leased** when its first job enters the pool (at most
  ``workers`` jobs are in flight, so a leased job is running, not
  queued) and every completed job extends the lease — the per-cell
  timeout bounds *inactivity*, and the heartbeat monitor extends the
  liveness deadline from the ``cell.heartbeat`` lines workers stream;
* a **raising** job fails its cell's attempt: the cell's lost jobs are
  requeued with deterministic backoff, or the cell is quarantined into
  ``failures.jsonl`` once the budget is spent — never aborting the run;
* a **broken pool** (worker OOM-killed, segfault, injected crash) is
  survived: in-flight jobs requeue, the attempt is charged to the
  casualty cell only when attribution is unambiguous (all casualties
  belong to one cell — guaranteed at 1 worker, so poison-cell hunts
  terminate), and the pool is rebuilt **degraded** to half the workers,
  down to inline-equivalent single-worker execution;
* an **expired lease** (hard timeout or heartbeat silence) means a
  wedged worker the futures API cannot reclaim: the pool's processes
  are killed, innocent in-flight jobs requeue free of charge, and the
  hung cell is charged one attempt.

Payloads are pure functions of their jobs, so a retried job lands the
same bytes and completed sibling jobs of a failed attempt keep their
results — recovery re-executes only what was lost, and final stores
stay byte-identical to fault-free runs (the chaos suite pins this).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import replace

from repro.campaigns.backends.base import ExecutionContext
from repro.campaigns.resilience import (
    QUARANTINED,
    HeartbeatMonitor,
    heartbeat_env,
)
from repro.manet.shared import SharedRuntimeArena
from repro.telemetry import telemetry_enabled

__all__ = ["PoolBackend"]


class PoolBackend:
    """Batch all pending cells' jobs through one shared process pool."""

    name = "pool"

    def __init__(self, max_workers: int | None = None):
        """``max_workers=None`` defers to the executor's setting (and
        from there to the ``ProcessPoolExecutor`` default)."""
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers

    def execute(self, ctx: ExecutionContext) -> None:
        # The worker entry point is looked up through the executor module
        # at submission time, so tests (and instrumentation) can swap it.
        from repro.campaigns import executor as executor_mod

        max_workers = self.max_workers or ctx.max_workers
        # Build every job up front so the pool sees the whole campaign's
        # work at once; buckets reassemble payloads per cell in job order.
        jobs_by_cell = {cell.key: ctx.jobs_for(cell) for cell in ctx.pending}
        cell_by_key = {cell.key: cell for cell in ctx.pending}
        buckets: dict[str, dict[int, object]] = {
            key: {} for key in jobs_by_cell
        }
        # Persistent-cache hits resolve before the pool exists; cells
        # fully served from disk complete without a single worker.
        submit: list = []
        for key, jobs in jobs_by_cell.items():
            for job in jobs:
                stored = ctx.cached_payload(job)
                if stored is not None:
                    buckets[key][job.index] = stored
                else:
                    submit.append(job)
        rec = ctx.recorder
        for cell in ctx.pending:
            bucket = buckets[cell.key]
            if len(bucket) == len(jobs_by_cell[cell.key]):
                # Fully cache-served: the whole lifecycle happens here.
                rec.event("cell.leased", cell=cell.key, backend=self.name)
                rec.event("cell.started", cell=cell.key, backend=self.name,
                          cached=True)
                t0 = time.perf_counter()
                ctx.finish_cell(cell, [bucket[i] for i in sorted(bucket)])
                rec.record_span(
                    "campaign.cell", time.perf_counter() - t0,
                    cell=cell.key, backend=self.name,
                )
        if not submit:
            return  # everything came from the cache: no pool, no arena
        # One precompute per distinct pending scenario, built here before
        # the driver forks its first pool and inherited by every pool it
        # rebuilds after a breakage.
        arena = SharedRuntimeArena.create(
            [j.scenario for j in submit if isinstance(j, executor_mod._SimJob)]
        )
        try:
            _PoolDriver(
                backend_name=self.name,
                ctx=ctx,
                executor_mod=executor_mod,
                jobs=submit,
                jobs_by_cell=jobs_by_cell,
                cell_by_key=cell_by_key,
                buckets=buckets,
                max_workers=max_workers,
            ).drive()
        finally:
            if arena is not None:
                arena.close()


class _PoolDriver:
    """One campaign's drain loop over (possibly several) process pools.

    All mutable scheduling state lives here; the pool object itself is
    disposable — breakage and hangs abandon it and build a fresh one,
    while the queue, buckets and leases carry over.
    """

    #: Floor for the lease-check tick so a tight timeout cannot turn
    #: the drain loop into a busy-wait.
    MIN_TICK_S = 0.05

    def __init__(
        self, backend_name, ctx, executor_mod, jobs, jobs_by_cell,
        cell_by_key, buckets, max_workers,
    ):
        self.name = backend_name
        self.ctx = ctx
        self.rec = ctx.recorder
        self.leases = ctx.leases
        self.policy = ctx.policy
        self.executor_mod = executor_mod
        self.jobs_by_cell = jobs_by_cell
        self.cell_by_key = cell_by_key
        self.buckets = buckets
        #: FIFO of jobs waiting for a pool slot (attempt stamped at
        #: submission, so requeued entries need no rewriting).
        self.queue: list = list(jobs)
        #: Per-cell backoff gate: no job of the cell submits before t.
        self.cell_not_before: dict[str, float] = {}
        self.futures: dict = {}
        self.workers = max(1, max_workers or os.cpu_count() or 1)
        self.pool: ProcessPoolExecutor | None = None
        self.started: set[str] = set()
        self.finished: set[str] = set()
        self.cell_t0: dict[str, float] = {}
        timeouts = [
            t
            for t in (self.policy.cell_timeout_s,
                      self.policy.liveness_timeout_s)
            if t is not None
        ]
        #: None = no deadlines to police: block until a future lands.
        self.tick = (
            max(self.MIN_TICK_S, min(timeouts) / 4.0) if timeouts else None
        )
        self.monitor: HeartbeatMonitor | None = None
        self.hb_dir: str | None = None

    # ------------------------------------------------------------------ #
    def drive(self) -> None:
        hb = self.policy.heartbeat_s
        if hb is not None:
            self.hb_dir = tempfile.mkdtemp(prefix="repro-aedb-hb-")
            self.monitor = HeartbeatMonitor(self.hb_dir)
        try:
            if hb is not None:
                with heartbeat_env(self.hb_dir, hb):
                    self._drain()
            else:
                self._drain()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
            if self.hb_dir is not None:
                if (
                    self.monitor is not None
                    and telemetry_enabled()
                    and self.ctx.store is not None
                ):
                    self.monitor.fold_into(self.ctx.store.telemetry_path)
                shutil.rmtree(self.hb_dir, ignore_errors=True)

    def _drain(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        while self.queue or self.futures:
            now = time.monotonic()
            self._submit_ready(now)
            if not self.futures:
                if not self.queue:
                    break  # everything left was quarantined and dropped
                # All queued cells are inside their backoff window.
                gate = min(
                    self.cell_not_before.get(j.cell_key, now)
                    for j in self.queue
                )
                time.sleep(min(max(gate - now, 0.0) + 1e-3, 0.25))
                continue
            done, _ = wait(
                set(self.futures),
                timeout=self.tick,
                return_when=FIRST_COMPLETED,
            )
            self._drain_done(done)
            if self.tick is not None:
                self._police_leases(time.monotonic())
        self.pool.shutdown(wait=True)
        self.pool = None

    # ------------------------------------------------------------------ #
    def _submit_ready(self, now: float) -> None:
        """Submit queued jobs while pool slots are free.

        In-flight is capped at the worker count on purpose: a submitted
        job is *running*, so lease deadlines measure worker time, not
        queue time (a job stuck behind a long queue must not count
        against its cell's timeout).
        """
        if not self.queue:
            return
        held: list = []
        while self.queue and len(self.futures) < self.workers:
            job = self.queue.pop(0)
            key = job.cell_key
            if self.leases.is_quarantined(key):
                continue  # budget spent: drop the cell's remaining work
            if self.cell_not_before.get(key, 0.0) > now:
                held.append(job)
                continue
            if self.leases.holds(key):
                attempt = self.leases.attempt_of(key)
            else:
                lease = self.leases.acquire(key, worker="pool", now=now)
                attempt = lease.attempt
                if key not in self.cell_t0:
                    self.cell_t0[key] = time.perf_counter()
                self.rec.event("cell.leased", cell=key, backend=self.name,
                               attempt=attempt)
            job = replace(job, attempt=attempt)
            try:
                future = self.pool.submit(
                    self.executor_mod._execute_job, job
                )
            except BrokenExecutor as exc:
                held.append(job)
                self.queue = held + self.queue
                casualties = list(self.futures.values())
                self.futures = {}
                self._handle_breakage(casualties, exc)
                return
            self.futures[future] = job
        self.queue = held + self.queue

    # ------------------------------------------------------------------ #
    def _drain_done(self, done) -> None:
        casualties: list = []
        broken: BaseException | None = None
        for future in done:
            job = self.futures.pop(future)
            try:
                payload = future.result()
            except BrokenExecutor as exc:
                # The pool died under this job; siblings in the same
                # ``done`` batch may still hold *successful* results
                # harvested before the break — keep them, they're paid
                # for (and payloads are pure, so keeping them is safe).
                casualties.append(job)
                broken = exc
                continue
            except Exception as exc:  # noqa: BLE001 - §13: never fatal
                self._job_failed(job, exc)
                continue
            self._job_done(job, payload)
        if broken is not None:
            casualties.extend(self.futures.values())
            self.futures = {}
            self._handle_breakage(casualties, broken)

    def _job_done(self, job, payload) -> None:
        key = job.cell_key
        self.ctx.record_executed(job, payload)
        self.leases.touch(key)
        if self.leases.is_quarantined(key):
            return  # late result of a quarantined cell: cached, not kept
        if key not in self.started:
            self.started.add(key)
            self.rec.event("cell.started", cell=key, backend=self.name)
        bucket = self.buckets[key]
        bucket[job.index] = payload
        if (
            key not in self.finished
            and len(bucket) == len(self.jobs_by_cell[key])
        ):
            self.finished.add(key)
            self.leases.release(key)
            self.ctx.finish_cell(
                self.cell_by_key[key], [bucket[i] for i in sorted(bucket)]
            )
            self.rec.record_span(
                "campaign.cell",
                time.perf_counter() - self.cell_t0.get(
                    key, time.perf_counter()
                ),
                cell=key, backend=self.name,
            )

    def _job_failed(self, job, exc: BaseException) -> None:
        key = job.cell_key
        if self.leases.is_quarantined(key):
            return  # a sibling already spent the budget
        verdict = self.ctx.fail_cell(key, repr(exc), attempt=job.attempt)
        if verdict == QUARANTINED:
            return  # queued siblings are dropped at submission time
        self.cell_not_before[key] = time.monotonic() + self.policy.delay_for(
            key, job.attempt
        )
        self.queue.append(job)

    # ------------------------------------------------------------------ #
    def _handle_breakage(self, casualties: list, exc: BaseException) -> None:
        """Survive a dead pool: requeue, attribute, degrade, rebuild.

        The attempt is charged only when every casualty belongs to one
        cell — with several cells in flight the killer is ambiguous and
        everyone requeues free.  Degrading to half the workers converges
        on 1, where attribution is always unambiguous, so a genuinely
        poisonous cell is quarantined after at most
        ``log2(workers) + max_attempts`` pool rebuilds.
        """
        suspects = {j.cell_key for j in casualties}
        requeue: list = []
        for job in casualties:
            if len(suspects) == 1 and job.cell_key in suspects:
                continue  # handled below via fail_cell
            requeue.append(job)
        if len(suspects) == 1:
            key = next(iter(suspects))
            attempt = max(j.attempt for j in casualties)
            verdict = self.ctx.fail_cell(key, repr(exc), attempt=attempt)
            if verdict != QUARANTINED:
                self.cell_not_before[key] = (
                    time.monotonic()
                    + self.policy.delay_for(key, attempt)
                )
                requeue.extend(j for j in casualties if j.cell_key == key)
        else:
            for key in suspects:
                self.leases.release(key)
        if requeue:
            self.leases.count_requeue(
                len({j.cell_key for j in requeue})
            )
            self.queue = requeue + self.queue
        old = self.workers
        if len(suspects) > 1:
            # Ambiguous breakage may mean resource pressure (OOM), not a
            # poison cell: halve the blast radius before trying again.
            self.workers = max(1, self.workers // 2)
        self.rec.event(
            "pool.degraded",
            error=repr(exc),
            workers_before=old,
            workers_after=self.workers,
            requeued=len(requeue),
        )
        self._rebuild_pool()

    def _police_leases(self, now: float) -> None:
        """Detect hangs: hard-deadline and heartbeat-silence expiry."""
        if self.monitor is not None:
            for cell in self.monitor.poll():
                self.leases.beat(cell)
        expired = self.leases.expired(now)
        if not expired:
            return
        hung = {lease.cell: lease for lease in expired}
        # The futures API cannot reclaim a wedged worker process: kill
        # the pool's processes and rebuild.  Innocent in-flight jobs
        # requeue free of charge; the hung cells are charged an attempt.
        casualties = list(self.futures.values())
        self.futures = {}
        self._kill_pool()
        innocents: list = []
        for job in casualties:
            if job.cell_key not in hung:
                # Release so resubmission re-acquires with a fresh
                # deadline (queue time must not count against the cell)
                # — attempts only advance through fail_cell, so the
                # re-acquired lease keeps the same attempt number.
                self.leases.release(job.cell_key)
                innocents.append(job)
        for key, lease in sorted(hung.items()):
            self.rec.event(
                "cell.hung", cell=key, backend=self.name,
                attempt=lease.attempt,
            )
            verdict = self.ctx.fail_cell(
                key,
                f"hung: no progress or heartbeat within the lease "
                f"deadline (attempt {lease.attempt})",
                attempt=lease.attempt,
            )
            if verdict != QUARANTINED:
                self.cell_not_before[key] = now + self.policy.delay_for(
                    key, lease.attempt
                )
                innocents.extend(
                    j for j in casualties if j.cell_key == key
                )
        if innocents:
            self.leases.count_requeue(
                len({j.cell_key for j in innocents})
            )
            self.queue = innocents + self.queue
        self._rebuild_pool()

    def _kill_pool(self) -> None:
        if self.pool is None:
            return
        procs = getattr(self.pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already-dead children
                pass
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None

    def _rebuild_pool(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
