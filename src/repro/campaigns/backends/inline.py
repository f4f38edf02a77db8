"""Serial in-process campaign execution — the reference backend."""

from __future__ import annotations

import time
from dataclasses import replace

from repro.campaigns.backends.base import ExecutionContext
from repro.campaigns.resilience import QUARANTINED, recorder_heartbeat

__all__ = ["InlineBackend"]


class InlineBackend:
    """Run every job in-process, in spec order.

    No pool, no subprocesses: the cheapest path for tiny sweeps, the
    mode the experiment runner uses to reproduce its historical
    single-threaded behaviour exactly, and the debuggable reference the
    pool backend is bit-compared against (a breakpoint lands in the same
    process; tracebacks are undecorated).

    Resilience here is the in-process slice of DESIGN.md §13: a raising
    cell is retried with backoff up to the policy's budget, then
    quarantined (recorded, never fatal) — but crashes and hangs cannot
    be survived without process isolation, so ``cell_timeout_s`` is not
    enforced and a worker-killing fault kills the run.  Heartbeats, when
    enabled, go straight to the active recorder from a daemon thread.
    """

    name = "inline"

    def execute(self, ctx: ExecutionContext) -> None:
        rec = ctx.recorder
        policy = ctx.policy
        for cell in ctx.pending:
            while True:
                lease = ctx.leases.acquire(cell.key, worker="inline")
                rec.event("cell.leased", cell=cell.key, backend=self.name,
                          attempt=lease.attempt)
                rec.event("cell.started", cell=cell.key, backend=self.name)
                try:
                    with rec.span("campaign.cell", cell=cell.key,
                                  backend=self.name):
                        with recorder_heartbeat(
                            cell.key, policy.heartbeat_s, rec
                        ):
                            payloads = [
                                ctx.resolve_job(
                                    replace(job, attempt=lease.attempt)
                                )
                                for job in ctx.jobs_for(cell)
                            ]
                        ctx.finish_cell(cell, payloads)
                    ctx.leases.release(cell.key)
                    break
                except Exception as exc:  # noqa: BLE001 - §13: never fatal
                    verdict = ctx.fail_cell(
                        cell.key, repr(exc), attempt=lease.attempt
                    )
                    if verdict == QUARANTINED:
                        break
                    time.sleep(policy.delay_for(cell.key, lease.attempt))
