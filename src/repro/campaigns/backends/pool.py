"""Process-pool campaign execution — one pool task per cell.

Every pending cell with uncached jobs becomes ONE task,
``executor._execute_cell(jobs)``, for a persistent
:class:`~concurrent.futures.ProcessPoolExecutor`.  The worker that
simulates a cell builds that cell's scenario runtimes from its own
per-process memo (DESIGN.md §8), so runtime builds spread across the
workers and the owner builds none.  Persistent-cache hits resolve per
job in the owner before the pool exists; a cell served entirely from
disk never reaches a worker (DESIGN.md §9–§10).

The pool *survives its workers* (DESIGN.md §13).  The drain loop is a
lease-driven driver:

* a cell is **leased** when its task enters the pool (at most
  ``workers`` tasks are in flight, so a leased task is running, not
  queued); ``cell_timeout_s`` caps the wall clock of one attempt, and
  the heartbeat monitor extends the liveness deadline from the
  ``cell.heartbeat`` lines workers stream;
* a **raising** task fails its cell's attempt: the cell is requeued
  with deterministic backoff, or quarantined into ``failures.jsonl``
  once the budget is spent — never aborting the run;
* a **broken pool** (worker OOM-killed, segfault, injected crash) is
  survived: in-flight cells requeue, the attempt is charged only when
  one cell was in flight (guaranteed at 1 worker, so poison-cell hunts
  terminate), and an ambiguous breakage rebuilds the pool **degraded**
  to half the workers, down to inline-equivalent single-worker
  execution;
* an **expired lease** (hard timeout or heartbeat silence) means a
  wedged worker the futures API cannot reclaim: the pool's processes
  are killed, innocent in-flight cells requeue free of charge, and the
  hung cell is charged one attempt.

A failed attempt re-runs all of its cell's uncached jobs.  Payloads are
pure functions of their jobs, so the retry lands the same bytes and
final stores stay byte-identical to fault-free runs (the chaos suite
pins this).
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
from repro.telemetry import telemetry_enabled

__all__ = ["PoolBackend"]


class PoolBackend:
    """Run each pending cell as one task of a shared process pool."""

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

        rec = ctx.recorder
        #: Per cell with uncached jobs: its cache hits by job index, and
        #: the jobs its one pool task must run.
        hits: dict[str, dict[int, object]] = {}
        todo: dict[str, list] = {}
        for cell in ctx.pending:
            cell_hits: dict[int, object] = {}
            misses: list = []
            for job in ctx.jobs_for(cell):
                stored = ctx.cached_payload(job)
                if stored is None:
                    misses.append(job)
                else:
                    cell_hits[job.index] = stored
            if misses:
                hits[cell.key] = cell_hits
                todo[cell.key] = misses
                continue
            # Fully cache-served: the whole lifecycle happens here.
            rec.event("cell.leased", cell=cell.key, backend=self.name)
            rec.event("cell.started", cell=cell.key, backend=self.name,
                      cached=True)
            t0 = time.perf_counter()
            ctx.finish_cell(cell, [cell_hits[i] for i in sorted(cell_hits)])
            rec.record_span(
                "campaign.cell", time.perf_counter() - t0,
                cell=cell.key, backend=self.name,
            )
        if todo:
            _PoolDriver(
                backend_name=self.name,
                ctx=ctx,
                executor_mod=executor_mod,
                todo=todo,
                hits=hits,
                max_workers=self.max_workers or ctx.max_workers,
            ).drive()


class _PoolDriver:
    """One campaign's drain loop over (possibly several) process pools.

    All mutable scheduling state lives here; the pool object itself is
    disposable — breakage and hangs abandon it and build a fresh one,
    while the queue and leases carry over.
    """

    #: Floor for the lease-check tick so a tight timeout cannot turn
    #: the drain loop into a busy-wait.
    MIN_TICK_S = 0.05

    def __init__(self, backend_name, ctx, executor_mod, todo, hits,
                 max_workers):
        self.name = backend_name
        self.ctx = ctx
        self.rec = ctx.recorder
        self.leases = ctx.leases
        self.policy = ctx.policy
        self.executor_mod = executor_mod
        self.cell_by_key = {cell.key: cell for cell in ctx.pending}
        self.todo = todo
        self.hits = hits
        #: FIFO of cell keys waiting for a pool slot.
        self.queue: list[str] = list(todo)
        #: Per-cell backoff gate: the cell does not submit before t.
        self.not_before: dict[str, float] = {}
        #: In-flight tasks: future -> (cell key, attempt).
        self.futures: dict = {}
        # Fewer cells than workers: one worker per cell, no idle forks.
        self.workers = max(
            1, min(max_workers or os.cpu_count() or 1, len(todo))
        )
        self.pool: ProcessPoolExecutor | None = None
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
                # Every queued cell is inside its backoff window.
                gate = min(self.not_before.get(k, now) for k in self.queue)
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
        """Submit queued cells while pool slots are free.

        In-flight is capped at the worker count on purpose: a submitted
        task is *running*, so lease deadlines measure worker time, not
        queue time (a cell stuck behind a long queue must not count
        against its timeout).
        """
        held: list[str] = []
        while self.queue and len(self.futures) < self.workers:
            key = self.queue.pop(0)
            if self.not_before.get(key, 0.0) > now:
                held.append(key)
                continue
            lease = self.leases.acquire(key, worker="pool", now=now)
            self.cell_t0.setdefault(key, time.perf_counter())
            self.rec.event("cell.leased", cell=key, backend=self.name,
                           attempt=lease.attempt)
            self.rec.event("cell.started", cell=key, backend=self.name)
            jobs = [replace(job, attempt=lease.attempt)
                    for job in self.todo[key]]
            try:
                future = self.pool.submit(
                    self.executor_mod._execute_cell, jobs
                )
            except BrokenExecutor as exc:
                self.leases.release(key)
                self.queue = held + [key] + self.queue
                casualties = list(self.futures.values())
                self.futures = {}
                self._handle_breakage(casualties, exc)
                return
            self.futures[future] = (key, lease.attempt)
        self.queue = held + self.queue

    def _drain_done(self, done) -> None:
        casualties: list = []
        broken: BaseException | None = None
        for future in done:
            key, attempt = self.futures.pop(future)
            try:
                payloads = future.result()
            except BrokenExecutor as exc:
                # The pool died under this task; siblings in the same
                # ``done`` batch may still hold *successful* results
                # harvested before the break — keep them, they're paid
                # for (and payloads are pure, so keeping them is safe).
                casualties.append((key, attempt))
                broken = exc
                continue
            except Exception as exc:  # noqa: BLE001 - §13: never fatal
                if self._charge(key, attempt, repr(exc)):
                    self.queue.append(key)
                continue
            self._cell_done(key, payloads)
        if broken is not None:
            casualties.extend(self.futures.values())
            self.futures = {}
            self._handle_breakage(casualties, broken)

    def _cell_done(self, key: str, payloads: list) -> None:
        self.leases.release(key)
        bucket = self.hits[key]
        for job, payload in zip(self.todo[key], payloads):
            self.ctx.record_executed(job, payload)
            bucket[job.index] = payload
        self.ctx.finish_cell(
            self.cell_by_key[key], [bucket[i] for i in sorted(bucket)]
        )
        self.rec.record_span(
            "campaign.cell", time.perf_counter() - self.cell_t0[key],
            cell=key, backend=self.name,
        )

    def _charge(
        self, key: str, attempt: int, error: str, now: float | None = None
    ) -> bool:
        """Charge one failed attempt of ``key``; True when the cell may
        run again (its backoff gate is then set), False once quarantined."""
        if self.ctx.fail_cell(key, error, attempt=attempt) == QUARANTINED:
            return False
        now = time.monotonic() if now is None else now
        self.not_before[key] = now + self.policy.delay_for(key, attempt)
        return True

    # ------------------------------------------------------------------ #
    def _handle_breakage(self, casualties: list, exc: BaseException) -> None:
        """Survive a dead pool: requeue, attribute, degrade, rebuild.

        The attempt is charged only when one cell was in flight — with
        several, the killer is ambiguous and every cell requeues free.
        Degrading to half the workers converges on 1, where attribution
        is always unambiguous, so a genuinely poisonous cell is
        quarantined after at most ``log2(workers) + max_attempts`` pool
        rebuilds.
        """
        requeue = [key for key, _ in casualties]
        if len(casualties) == 1:
            key, attempt = casualties[0]
            if not self._charge(key, attempt, repr(exc)):
                requeue = []
        else:
            for key in requeue:
                self.leases.release(key)
        if requeue:
            self.leases.count_requeue(len(requeue))
            self.queue = requeue + self.queue
        old = self.workers
        if len(casualties) > 1:
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
        # the pool's processes and rebuild.  Innocent in-flight cells
        # requeue free of charge; the hung cells are charged an attempt.
        casualties = list(self.futures.values())
        self.futures = {}
        self._kill_pool()
        requeue: list[str] = []
        for key, _ in casualties:
            if key not in hung:
                # Release so resubmission re-acquires with a fresh
                # deadline (queue time must not count against the cell)
                # — attempts only advance through fail_cell, so the
                # re-acquired lease keeps the same attempt number.
                self.leases.release(key)
                requeue.append(key)
        for key, lease in sorted(hung.items()):
            self.rec.event(
                "cell.hung", cell=key, backend=self.name,
                attempt=lease.attempt,
            )
            if self._charge(
                key,
                lease.attempt,
                f"hung: attempt {lease.attempt} passed its timeout or "
                f"heartbeat deadline",
                now,
            ):
                requeue.append(key)
        if requeue:
            self.leases.count_requeue(len(requeue))
            self.queue = requeue + self.queue
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
