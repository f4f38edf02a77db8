"""Sharded campaign execution: partition cells, run shards, merge back.

A campaign's pending cells are partitioned into N **content-keyed shard
specs** (a cell's shard is a pure function of its content key, so any
run partitioning the same spec derives the same shards).  Each shard is
one :func:`run_shard` call in a forked
:class:`~concurrent.futures.ProcessPoolExecutor` worker, against **its
own** :class:`~repro.campaigns.store.ResultStore` directory under the
parent store, with its own evaluation-cache sidecar handle (single
writer per file) warmed read-only from the parent's cache.  The shard
stores are then merged back into the parent store with dedup-by-key and
conflict detection (:meth:`ResultStore.merge_from`).

The worker's summary stamps the digest of the store it wrote; the
parent compares it with the store it reads before merging, so a store
altered or torn after the worker finished requeues instead of merging
(DESIGN.md §15).

Failure handling works at two granularities (DESIGN.md §13).  *Inside*
a shard, the in-shard executor owns cell-level retries and quarantines
under the parent's :class:`~repro.campaigns.resilience.RetryPolicy`;
its quarantines travel back in the shard summary (and its
``failures.jsonl`` is folded into the parent's ledger with the
telemetry stream).  A shard *worker death* is recovered within the same
run: the dead shard's completed cells are already on disk in its store
and merge back like any crashed campaign's, and its genuinely lost
cells are charged one attempt each and **requeued onto a recovery pass
over the surviving shard count** — repartitioned content-keyed, with
the parent's attempt accounting forwarded so a cell that keeps killing
its shard exhausts the same budget it would anywhere else and lands in
the ledger instead of looping.  Requeues are counted in telemetry
(``campaign.requeued_cells``, ``shard.requeue`` events); nothing is
dropped silently, and nothing aborts the run.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.campaigns.backends.base import ExecutionContext
from repro.campaigns.resilience import QUARANTINED, FailureLedger, RetryPolicy
from repro.campaigns.spec import CampaignCell, CampaignSpec, canonical_json
from repro.campaigns.store import ResultStore

__all__ = [
    "ShardBackend",
    "ShardSpec",
    "partition_cells",
    "run_shard",
    "shard_index_for",
]

#: Subdirectory of the parent store that holds in-flight shard stores.
SHARDS_DIR = "shards"


def shard_index_for(cell_key: str, n_shards: int) -> int:
    """The shard a cell belongs to — a pure function of its content key.

    Hash-based (not round-robin over expansion order) so the assignment
    is stable under any reordering or subsetting of the cell list: two
    parties partitioning overlapping pending sets agree on every shared
    cell's shard.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    digest = hashlib.sha1(cell_key.encode("utf-8")).hexdigest()
    return int(digest, 16) % n_shards


@dataclass(frozen=True)
class ShardSpec:
    """One shard's worth of a campaign — self-describing and content-keyed."""

    index: int
    n_shards: int
    cells: tuple[CampaignCell, ...]

    @property
    def cell_keys(self) -> tuple[str, ...]:
        return tuple(cell.key for cell in self.cells)

    @property
    def key(self) -> str:
        """Readable slug + hash of the shard's full contents.

        Names the shard's store directory, so a leftover directory from
        a crashed run is resumed only when the partition (same pending
        cells, same shard count) is exactly reproduced — a changed
        partition gets fresh directories and stale ones are swept on the
        next successful merge.  Recovery passes repartition over a
        different shard count, so their directories never collide with
        the round that lost the cells.
        """
        digest = hashlib.sha1(
            canonical_json(
                {
                    "index": self.index,
                    "n_shards": self.n_shards,
                    "cells": list(self.cell_keys),
                }
            ).encode("utf-8")
        ).hexdigest()[:10]
        return f"shard-{self.index:02d}of{self.n_shards:02d}-{digest}"


def partition_cells(
    cells: list[CampaignCell], n_shards: int
) -> list[ShardSpec]:
    """Partition cells into ``n_shards`` content-keyed shards.

    Total and disjoint by construction (every cell lands in exactly one
    shard via :func:`shard_index_for`); cells keep their input order
    within a shard; empty shards are returned too (callers skip them)
    so shard indices always run 0..n_shards-1.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    buckets: list[list[CampaignCell]] = [[] for _ in range(n_shards)]
    for cell in cells:
        buckets[shard_index_for(cell.key, n_shards)].append(cell)
    return [
        ShardSpec(index=i, n_shards=n_shards, cells=tuple(bucket))
        for i, bucket in enumerate(buckets)
    ]


def run_shard(
    spec_json: str,
    cell_keys: tuple[str, ...],
    shard_index: int,
    store_dir: str,
    warm_path: str | None,
    use_cache: bool,
    mls_engine: str | None,
    policy: RetryPolicy,
    initial_attempts: dict[str, int],
) -> dict:
    """The worker side: run one shard's cells into ``store_dir``.

    A serial in-shard :class:`~repro.campaigns.executor.CampaignExecutor`
    against the shard's own store, its cache sidecar warmed read-only
    from the parent's cache at ``warm_path`` — one writer per file with
    any number of concurrent shards.  Parallelism comes from running
    shards concurrently, not from nesting pools.  Re-running it on the
    same directory resumes: completed cells are skipped.  The summary
    carries only keys, counters and the store's
    :meth:`~ResultStore.content_digest`; records live in the store files.
    """
    from repro.campaigns.executor import CampaignExecutor
    from repro.tuning.cache import PersistentEvaluationCache

    store = ResultStore(store_dir)
    cache = None
    if use_cache:
        cache = PersistentEvaluationCache(store.eval_cache_path)
        if warm_path is not None:
            cache.warm_from(warm_path)
    executor = CampaignExecutor(
        CampaignSpec.from_json(spec_json),
        store,
        serial=True,
        mls_engine=mls_engine,
        eval_cache=cache,
        only_cells=cell_keys,
        # With REPRO_TELEMETRY set (inherited from the parent), the
        # in-shard run streams to the shard store's telemetry.jsonl,
        # every line tagged with this shard's index; the parent folds
        # the file into its own stream after the merge (DESIGN.md §12).
        telemetry_attrs={"shard": shard_index},
        retry_policy=policy,
        initial_attempts=initial_attempts,
    )
    # The parent emits the campaign-wide roll-up counters after the
    # merge; a shard re-emitting its slice would double-count them in
    # the folded stream.
    executor._emit_rollup_counters = False
    try:
        report = executor.run()
    finally:
        if cache is not None:
            cache.close()
    return {
        "executed": [r.cell.key for r in report.executed],
        "resumed": [cell.key for cell in report.skipped],
        "failed": [(f.cell_key, f.attempts, f.error) for f in report.failed],
        "cache_hits": report.cache_hits,
        "simulations_executed": report.simulations_executed,
        "store_digest": store.content_digest(),
    }


# --------------------------------------------------------------------- #
class ShardBackend:
    """Partition cells into per-store shards; run; merge; recover."""

    def __init__(
        self,
        n_shards: int,
        max_workers: int | None = None,
        keep_shards: bool = False,
    ):
        """``n_shards`` fixes the partition (and the parallelism: one
        forked worker per non-empty shard, capped by ``max_workers`` or
        the executor's setting).  ``keep_shards=True`` leaves the shard
        stores under
        ``<store>/shards`` after a successful merge — the inputs the
        standalone ``repro-aedb campaign merge`` command operates on.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.n_shards = int(n_shards)
        self.max_workers = max_workers
        self.keep_shards = keep_shards
        self.name = f"shard:{self.n_shards}"

    # ------------------------------------------------------------------ #
    @staticmethod
    def _fully_cached(ctx: ExecutionContext, jobs: list) -> list | None:
        """All-jobs-cached payloads for a cell, or None (probe only).

        Unlike the pool backend, the unit shipped to a worker is a whole
        cell, so the parent pre-resolves only cells it can finish
        *entirely* from its cache; partially-cached cells ship wholesale
        and the shard serves the cached part from its warm start.  The
        probe does not touch report counters — hits are counted when the
        cell is actually finished.
        """
        from repro.campaigns import executor as executor_mod

        if ctx.cache is None:
            return None
        payloads = []
        for job in jobs:
            if not isinstance(job, executor_mod._SimJob):
                return None  # tune jobs are never cached
            stored = ctx.cache.get_metrics(job.scenario, job.params)
            if stored is None:
                return None
            payloads.append(stored)
        return payloads

    def execute(self, ctx: ExecutionContext) -> None:
        if ctx.scale_override is not None:
            raise ValueError(
                "shard backends cannot ship ad-hoc scale objects; "
                "name the scale in the spec (CampaignSpec(scale=...))"
            )
        # 1. Parent-cache pre-filter: cells fully served from the cache
        #    complete here, without a shard (and without a subprocess) —
        #    a cached re-run spawns nothing and simulates nothing.
        rec = ctx.recorder
        remaining: list[CampaignCell] = []
        for cell in ctx.pending:
            payloads = self._fully_cached(ctx, ctx.jobs_for(cell))
            if payloads is not None:
                rec.event("cell.leased", cell=cell.key, backend=self.name)
                rec.event("cell.started", cell=cell.key, backend=self.name,
                          cached=True)
                t0 = time.perf_counter()
                ctx.report.cache_hits += len(payloads)
                ctx.finish_cell(cell, payloads)
                rec.record_span(
                    "campaign.cell", time.perf_counter() - t0,
                    cell=cell.key, backend=self.name,
                )
            else:
                remaining.append(cell)
        if not remaining:
            return
        # Shard stores live under the parent store; a storeless run gets
        # temporary ones, so the run's cache (if any) still accumulates
        # the new results — same contract as inline/pool.
        scratch = (
            nullcontext(ctx.store.root / SHARDS_DIR)
            if ctx.store is not None
            else tempfile.TemporaryDirectory(prefix="repro-aedb-shards-")
        )
        # 2..4 Dispatch/merge/report rounds: the first round covers all
        #    remaining cells over the full shard count; each dead shard
        #    triggers a recovery round over the survivors with the lost
        #    (retryable) cells repartitioned.
        reported: set[str] = set()
        todo = remaining
        shard_count = self.n_shards
        round_no = 0
        with scratch as root:
            shards_root = Path(root)
            while todo:
                shards = [
                    s for s in partition_cells(todo, shard_count) if s.cells
                ]
                results, failures = self._dispatch_round(
                    ctx, shards, shards_root, round_no
                )
                self._merge_round(ctx, shards, shards_root)
                self._report_round(ctx, shards, results, reported)
                if not failures:
                    break
                failed_shards = [s for s in shards if s.index in failures]
                retryable = self._requeue_lost(
                    ctx, failed_shards, failures, reported
                )
                if not retryable:
                    break  # every lost cell is quarantined: recovered
                survivors = max(1, shard_count - len(failed_shards))
                ctx.leases.count_requeue(len(retryable))
                rec.event(
                    "shard.requeue",
                    round=round_no + 1,
                    n_cells=len(retryable),
                    n_shards=survivors,
                )
                time.sleep(
                    max(
                        ctx.policy.delay_for(
                            c.key, ctx.leases.attempts(c.key)
                        )
                        for c in retryable
                    )
                )
                todo = retryable
                shard_count = survivors
                round_no += 1
        # 5. Sweep the shard scratch space once every pending cell is
        #    accounted for (complete or quarantined) — a partial
        #    recovery keeps its directories for the next invocation.
        if (
            ctx.store is not None
            and not self.keep_shards
            and all(
                c.key in reported or ctx.leases.is_quarantined(c.key)
                for c in remaining
            )
        ):
            shutil.rmtree(ctx.store.root / SHARDS_DIR, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def _dispatch_round(self, ctx, shards, shards_root, round_no):
        """Run one :func:`run_shard` per shard; ``(results by index,
        exceptions)``.

        Shards run in a process pool submitted from this (main) thread —
        forking from a thread is never safe — and each writes its store
        in place under ``shards_root``.  Each result is checked and read
        in the same ``try`` as ``future.result()``, so a bad store costs
        only its shard.
        """
        rec = ctx.recorder
        attempts = ctx.leases.attempts
        max_workers = self.max_workers or ctx.max_workers
        n_workers = min(len(shards), max_workers or len(shards))
        spec_json = ctx.spec.to_json()
        warm_path = str(ctx.cache.path) if ctx.cache is not None else None
        results: dict[int, tuple] = {}
        failures: dict[int, Exception] = {}
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {}
            for shard in shards:
                # The parent's lease: cell → shard assignment.  The
                # worker re-emits its own (inline-tagged) lifecycle
                # into the shard stream, merged back below.
                for key in shard.cell_keys:
                    rec.event("cell.leased", cell=key,
                              backend=self.name, shard=shard.index)
                rec.event("shard.dispatched", shard=shard.index,
                          n_cells=len(shard.cells), round=round_no)
                future = pool.submit(
                    run_shard,
                    spec_json,
                    shard.cell_keys,
                    shard.index,
                    str(shards_root / shard.key),
                    warm_path,
                    ctx.cache is not None,
                    ctx.mls_engine,
                    ctx.policy,
                    {
                        key: attempts(key)
                        for key in shard.cell_keys
                        if attempts(key) > 0
                    },
                )
                futures[future] = shard
            for future in as_completed(futures):
                shard = futures[future]
                try:
                    results[shard.index] = self._collect(
                        shard, shards_root / shard.key, future.result()
                    )
                    rec.event("shard.finished", shard=shard.index,
                              round=round_no)
                except Exception as exc:  # noqa: BLE001
                    # A dead shard loses only its *uncompleted* cells,
                    # and only until the recovery round — never the run.
                    failures[shard.index] = exc
                    rec.event("shard.failed", shard=shard.index,
                              round=round_no, error=repr(exc))
        return results, failures

    @staticmethod
    def _collect(shard, dest, summary) -> tuple:
        """``(summary, cell results)`` for a finished shard.

        The store must digest as the worker's summary says it did: an
        altered or torn store is deleted and raised as a lost worker, so
        the shard requeues instead of merging bad bytes.
        """
        store = ResultStore(dest)
        if store.content_digest() != summary["store_digest"]:
            shutil.rmtree(dest, ignore_errors=True)
            raise RuntimeError(
                f"shard {shard.key}: store does not match the worker's "
                "digest"
            )
        from repro.campaigns.executor import CellResult

        done = {*summary["executed"], *summary["resumed"]}
        return summary, [
            CellResult(cell=cell, records=store.read_cell(cell), payloads=[])
            for cell in shard.cells
            if cell.key in done
        ]

    @staticmethod
    def _merge_round(ctx, shards, shards_root) -> None:
        """Fold every shard store back — results, telemetry, failures.

        Includes dead shards' stores: their completed cells persist
        exactly like a crashed campaign's, so recovery re-executes only
        what was genuinely lost.  Shard sidecar entries go to the run's
        *actual* cache file: the store sidecar under ``eval_cache="auto"``,
        the shared file under an explicit ``--cache`` (where inline and
        pool would have appended them).
        """
        from repro.telemetry import merge_telemetry_files

        for shard in shards:
            shard_store = ResultStore(shards_root / shard.key)
            if ctx.store is not None:
                # Fold the shard's observation streams (if any) into
                # the parent's.  Idempotent per shard key: counter
                # lines are deltas and ledger entries per-quarantine,
                # so the fold layer dedups re-merges — a resumed run
                # re-merging a leftover shard directory, or a recovery
                # round reusing one, folds each line exactly once.
                merge_telemetry_files(
                    ctx.store.telemetry_path,
                    shard_store.telemetry_path,
                    source_id=shard.key,
                )
                if shard_store.failures_path.exists():
                    FailureLedger(ctx.store.failures_path).fold_from(
                        shard_store.failures_path
                    )
            if not shard_store.spec_path.exists():
                continue  # shard died before writing anything
            if ctx.store is not None:
                ctx.store.merge_from(
                    shard_store,
                    eval_dest=(
                        Path(ctx.cache.path)
                        if ctx.cache is not None
                        else None
                    ),
                )
            elif ctx.cache is not None:
                ResultStore.merge_eval_files(
                    Path(ctx.cache.path),
                    shard_store.eval_cache_path,
                )

    @staticmethod
    def _report_round(ctx, shards, results, reported: set[str]) -> None:
        """Adopt shard outcomes into the run's report and lease table.

        (Spec order is restored centrally by the executor.)
        """
        for shard in shards:
            if shard.index not in results:
                continue
            summary, cell_results = results[shard.index]
            ctx.report.cache_hits += int(summary["cache_hits"])
            ctx.report.simulations_executed += int(
                summary["simulations_executed"]
            )
            for key, attempts, error in summary["failed"]:
                # Already in the shard's ledger (folded into the
                # parent's above) — adopt without re-recording.
                ctx.leases.adopt_quarantine(key, attempts, error)
                ctx.recorder.event(
                    "cell.quarantined", cell=key, attempts=attempts,
                    error=error, shard=shard.index,
                )
            for result in cell_results:
                if result.cell.key not in reported:
                    reported.add(result.cell.key)
                    ctx.report_cell(result)

    @staticmethod
    def _requeue_lost(ctx, failed_shards, failures, reported: set[str]):
        """Charge one attempt per genuinely lost cell; return the
        retryable ones (quarantined cells stay in the ledger)."""
        from repro.campaigns.executor import CellResult

        retryable = []
        for shard in failed_shards:
            exc = failures[shard.index]
            for cell in shard.cells:
                if ctx.leases.is_quarantined(cell.key):
                    continue
                if ctx.store is not None and ctx.store.is_complete(cell):
                    # Completed inside the dead shard before it died and
                    # merged back above — done, not lost.
                    if cell.key not in reported:
                        reported.add(cell.key)
                        ctx.report_cell(
                            CellResult(
                                cell=cell,
                                records=ctx.store.read_cell(cell),
                                payloads=[],
                            )
                        )
                    continue
                verdict = ctx.fail_cell(
                    cell.key,
                    f"shard {shard.index} worker died: {exc!r}",
                )
                if verdict != QUARANTINED:
                    retryable.append(cell)
        return retryable
