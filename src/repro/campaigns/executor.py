"""Campaign execution: resume filtering, job/record plumbing, backends.

The executor expands a :class:`CampaignSpec`, skips every cell the
:class:`ResultStore` already holds, and hands the remaining work to a
pluggable execution **backend** (:mod:`repro.campaigns.backends`,
DESIGN.md §10):

* ``backend="inline"`` runs every job in-process in spec order — the
  mode the experiment runner uses to reproduce its historical
  single-threaded behaviour exactly, and the cheapest path for tiny
  sweeps (``serial=True`` is the legacy spelling);
* ``backend="pool"`` (the default) runs each cell as one task of ONE
  persistent process pool: the task carries the cell's uncached
  ``(scenario, params)`` simulation jobs (or its one whole-optimiser
  job), so the worker that simulates a cell also builds that cell's
  scenario runtimes, and cells run side by side on the workers.

Whatever the backend, each cell's results persist the moment its last
job lands, so an interrupted campaign keeps everything finished so far
and the next invocation re-runs only the missing cells.  Results are
deterministic and **backend-independent**: job payloads are reassembled
in job order, and every record derives only from ``(cell, payloads)`` —
never from wall-clock or scheduling order (tune records carry a
``runtime_s`` diagnostic, which is the one intentionally
non-reproducible field).  ``tests/campaigns/test_backend_identity.py``
pins both backends to byte-identical stores.

A :class:`~repro.tuning.cache.PersistentEvaluationCache` sidecar next
to the store (``evaluations.jsonl``, DESIGN.md §9) sits under both
backends: it records every simulation result, so re-running a grid —
or a *different* campaign whose cells overlap on (scenario, params,
seed) — serves those simulations from disk without touching a worker.
Cached results are the exact stored metrics, so resumed and fresh runs
stay bit-identical.

With ``REPRO_TELEMETRY`` set, an observation-only layer streams
``telemetry.jsonl`` next to the store (DESIGN.md §12): per-cell
lifecycle events (``cell.queued`` → ``cell.leased`` → ``cell.started``
→ ``cell.finished``, tagged with the backend id), ``campaign.cell``
timing spans, and the ``campaign.cache_hits`` /
``campaign.simulations_executed`` counters that ``campaign status``
surfaces.  Telemetry never perturbs results;
stores stay byte-identical with it off, on, or deep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.campaigns import faults
from repro.campaigns.resilience import FailureLedger, LeaseTable, RetryPolicy
from repro.campaigns.spec import EVALUATE, CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore
from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics, aggregate_metrics
from repro.manet.runtime import get_runtime
from repro.manet.scenarios import NetworkScenario
from repro.manet.simulator import BroadcastSimulator, resolve_compiled_mode
from repro.telemetry import (
    NULL,
    JsonlRecorder,
    Recorder,
    get_recorder,
    telemetry_enabled,
    telemetry_mode,
    using,
)
from repro.tuning.cache import PersistentEvaluationCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns.backends.base import Backend

__all__ = [
    "CampaignExecutor",
    "CampaignRunReport",
    "CellResult",
    "CellFailure",
]


# --------------------------------------------------------------------- #
# Job shapes (module-level, picklable).
@dataclass(frozen=True)
class _SimJob:
    cell_key: str
    index: int
    scenario: NetworkScenario
    params: AEDBParams
    #: The compiled-core mode the executor captured when it was built.
    compiled: str
    #: The ``REPRO_TELEMETRY`` mode, captured alongside ``compiled``.
    telemetry: str
    #: Which attempt of the owning cell this job belongs to (1-based).
    #: Stamped by the backend at submission; payloads never depend on it
    #: (bit-identity), but the fault plane does.
    attempt: int = 1


@dataclass(frozen=True)
class _TuneJob:
    cell_key: str
    index: int
    algorithm: str
    density: float
    mobility_model: str
    area_side_m: float
    n_networks: int
    n_nodes: int | None
    master_seed: int
    seed: int
    scale: object  # ExperimentScale (kept untyped to avoid an import cycle)
    mls_engine: str | None
    #: Attempt number of the owning cell (see :class:`_SimJob`).
    attempt: int = 1


def _execute_job(job):
    """One simulation or one optimiser run (inline, or in a pool worker).

    Simulation jobs resolve their
    :class:`~repro.manet.runtime.ScenarioRuntime` from the per-process
    LRU (DESIGN.md §8), so the jobs of a cell — and cells that reference
    the same scenario — share one precomputed beacon grid per process.
    Results are bit-identical to the recompute path.

    The fault plane (DESIGN.md §13) fires first, at the cost of one
    flag read when ``REPRO_FAULTS`` is unset: it may crash, hang, or
    raise the job, and the pool driver's cell timeout catches the hang.
    """
    faults.fire("worker", job.cell_key, job.attempt)
    if isinstance(job, _SimJob):
        return BroadcastSimulator(
            job.scenario, job.params,
            runtime=get_runtime(job.scenario),
            compiled=job.compiled, _telemetry=job.telemetry,
        ).run()
    return _run_tune_job(job)


def _execute_cell(jobs):
    """Pool worker entry point: one cell's uncached jobs, in job order.

    Each job goes through :func:`_execute_job`, looked up as a module
    global at call time, so a patched job function (tests,
    instrumentation) reaches the workers too.
    """
    return [_execute_job(job) for job in jobs]


def _run_tune_job(job: _TuneJob):
    # Local imports: evaluate-only campaigns never pay for the optimiser
    # stack, and module-level imports here would cycle with
    # repro.experiments.runner.
    from repro.experiments.runner import make_algorithm
    from repro.manet.config import SimulationConfig
    from repro.tuning import make_tuning_problem

    problem = make_tuning_problem(
        job.density,
        n_networks=job.n_networks,
        master_seed=job.master_seed,
        n_nodes=job.n_nodes,
        sim=SimulationConfig(area_side_m=job.area_side_m),
        mobility_model=job.mobility_model,
    )
    alg = make_algorithm(job.algorithm, problem, job.scale, job.seed,
                         job.mls_engine)
    return alg.run()


# --------------------------------------------------------------------- #
def _metrics_dict(metrics: BroadcastMetrics) -> dict:
    return {
        "coverage": metrics.coverage,
        "energy_dbm": metrics.energy_dbm,
        "forwardings": metrics.forwardings,
        "broadcast_time_s": metrics.broadcast_time_s,
        "n_nodes": metrics.n_nodes,
    }


def _plain(value):
    """Best-effort conversion to JSON-encodable data (records only)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _records_for(cell: CampaignCell, payloads: list) -> list[dict]:
    """Serialise a cell's job payloads (job order) into store records."""
    if cell.algorithm == EVALUATE:
        records = []
        n_scen = cell.n_networks
        for i, params in enumerate(cell.param_sets()):
            runs = payloads[i * n_scen:(i + 1) * n_scen]
            records.append({
                "kind": "record",
                "index": i,
                "params": [float(v) for v in params.as_array()],
                "aggregate": _metrics_dict(aggregate_metrics(runs)),
                "per_network": [_metrics_dict(m) for m in runs],
            })
        return records
    from repro.experiments.io import front_to_jsonable

    result = payloads[0]
    return [{
        "kind": "record",
        "index": 0,
        "algorithm": cell.algorithm,
        "evaluations": int(result.evaluations),
        "runtime_s": float(result.runtime_s),
        "front": front_to_jsonable(result.front),
        "info": _plain(result.info),
    }]


# --------------------------------------------------------------------- #
@dataclass
class CellResult:
    """One executed cell: its records and the live job payloads."""

    cell: CampaignCell
    #: Store-shaped records (what :class:`ResultStore` persisted).
    records: list[dict]
    #: In-process payloads in job order — :class:`BroadcastMetrics` for
    #: evaluate cells, one ``AlgorithmResult`` for tune cells.
    payloads: list


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: it exhausted its retry budget this run."""

    cell_key: str
    attempts: int
    error: str


@dataclass
class CampaignRunReport:
    """What one :meth:`CampaignExecutor.run` invocation did."""

    spec: CampaignSpec
    executed: list[CellResult] = field(default_factory=list)
    skipped: list[CampaignCell] = field(default_factory=list)
    #: Simulation jobs served from the persistent evaluation cache.
    cache_hits: int = 0
    #: Broadcast simulations actually run: one per executed simulation
    #: job (cache hits excluded) plus every simulation inside tune jobs.
    simulations_executed: int = 0
    #: Cells quarantined this run (recorded in ``failures.jsonl``,
    #: never fatal — the run completes around them, DESIGN.md §13).
    failed: list[CellFailure] = field(default_factory=list)
    #: Failed attempts that were retried (quarantines excluded).
    retries: int = 0
    #: Cells put back on the queue after a worker loss.
    requeues: int = 0

    @property
    def executed_keys(self) -> list[str]:
        return [r.cell.key for r in self.executed]

    @property
    def failed_keys(self) -> list[str]:
        return [f.cell_key for f in self.failed]

    @property
    def n_simulations(self) -> int:
        """Direct simulation jobs *resolved* this run, cached or not
        (tune cells count their own inside)."""
        return sum(r.cell.n_simulations for r in self.executed)


class CampaignExecutor:
    """Run a campaign's pending cells through a pluggable backend."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore | None = None,
        max_workers: int | None = None,
        serial: bool = False,
        scale=None,
        mls_engine: str | None = None,
        eval_cache="auto",
        backend: "Backend | str | None" = None,
        retry_policy: RetryPolicy | None = None,
    ):
        """``store=None`` runs in memory (results only in the report).

        ``scale`` overrides the spec's named preset with a concrete
        :class:`~repro.experiments.config.ExperimentScale` (the runner
        passes ad-hoc scales that have no registry name);
        ``mls_engine`` is forwarded to AEDB-MLS tune cells; a name that
        is not an engine raises ``ValueError`` here, before any cell runs.

        ``eval_cache`` selects the persistent per-simulation cache:
        ``"auto"`` (default) uses the store's ``evaluations.jsonl``
        sidecar (no cache when running storeless), ``None``/``False``
        disables it, a path points at a cache shared across campaigns,
        and a :class:`~repro.tuning.cache.PersistentEvaluationCache` is
        used as-is.

        ``backend`` selects the execution strategy
        (:mod:`repro.campaigns.backends`): a :class:`Backend` instance
        or one of ``"inline"``, ``"pool"``.  When None, ``serial`` keeps
        its historical meaning (``True`` = inline) and otherwise the
        spec's ``backend`` hint — or pool — applies.  An explicit
        backend wins over both.

        ``retry_policy`` is the run's failure budget (DESIGN.md §13):
        None means the default :class:`RetryPolicy` (3 attempts,
        sub-second backoff, no timeout);
        :meth:`RetryPolicy.disabled` restores fail-fast single-attempt
        behaviour.
        """
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if mls_engine is not None:
            from repro.core.config import ENGINE_NAMES

            if mls_engine not in ENGINE_NAMES:
                raise ValueError(
                    f"mls_engine must be one of {ENGINE_NAMES}, got {mls_engine!r}"
                )
        self.spec = spec
        self.store = store
        self.max_workers = max_workers
        self.serial = serial
        self._scale_override = scale
        self.mls_engine = mls_engine
        self._eval_cache_spec = eval_cache
        self.backend = backend
        self.retry_policy = retry_policy or RetryPolicy()
        # Read once: every simulation job of this executor runs on the
        # same engine (DESIGN.md §14) and telemetry mode (§12).
        self._compiled_mode = resolve_compiled_mode()
        self._telemetry_mode = telemetry_mode()

    def _resolve_eval_cache(
        self,
    ) -> tuple[PersistentEvaluationCache | None, bool]:
        """``(cache, owned)`` — caller-provided instances are not closed
        by :meth:`run`; ones built here (a full sidecar reload plus an
        append handle) are released at the end of the run."""
        spec = self._eval_cache_spec
        if spec is None or spec is False:
            return None, False
        if isinstance(spec, PersistentEvaluationCache):
            return spec, False
        if spec == "auto":
            if self.store is None:
                return None, False
            return PersistentEvaluationCache(self.store.eval_cache_path), True
        return PersistentEvaluationCache(Path(spec)), True

    def _resolve_recorder(self) -> tuple[Recorder, bool]:
        """``(recorder, owned)`` for this run (DESIGN.md §12).

        Telemetry off: the shared :data:`~repro.telemetry.NULL` no-op.
        Telemetry on with a store: a :class:`JsonlRecorder` streaming
        ``telemetry.jsonl`` next to it (owned — closed after the run).
        Telemetry on storeless: whatever recorder is already active
        (``using(...)`` or the ambient in-memory one) — not owned.
        """
        if not telemetry_enabled():
            return NULL, False
        if self.store is not None:
            return JsonlRecorder(self.store.telemetry_path), True
        return get_recorder(), False

    # ------------------------------------------------------------------ #
    def _scale_for(self, cell: CampaignCell):
        if self._scale_override is not None:
            return self._scale_override
        from repro.experiments.config import get_scale

        return get_scale(cell.scale or None)

    def _jobs_for(self, cell: CampaignCell) -> list:
        if cell.algorithm == EVALUATE:
            scenarios = cell.scenarios()
            return [
                _SimJob(cell.key, i * len(scenarios) + j, scenario, params,
                        self._compiled_mode, self._telemetry_mode)
                for i, params in enumerate(cell.param_sets())
                for j, scenario in enumerate(scenarios)
            ]
        return [
            _TuneJob(
                cell_key=cell.key,
                index=0,
                algorithm=cell.algorithm,
                density=cell.density_per_km2,
                mobility_model=cell.mobility_model,
                area_side_m=cell.area_side_m,
                n_networks=cell.n_networks,
                n_nodes=cell.n_nodes,
                master_seed=cell.scenario_seed,
                seed=cell.algorithm_seed,
                scale=self._scale_for(cell),
                mls_engine=self.mls_engine,
            )
        ]

    def _resolve_backend(self) -> "Backend":
        """The execution strategy for this run (lazy import: no cycle).

        Precedence: an explicit executor/CLI ``backend`` > ``serial=True``
        (inline) > the spec's ``backend`` hint > pool.  ``serial`` must
        outrank the spec hint: "run in-process" (the experiment runner,
        ``--serial``) must hold even for a spec whose hint says ``"pool"``.
        """
        from repro.campaigns.backends import resolve_backend

        if self.backend is not None:
            return resolve_backend(self.backend)
        if self.serial:
            return resolve_backend("inline")
        return resolve_backend(self.spec.backend or "pool")

    # ------------------------------------------------------------------ #
    def run(self, progress=None) -> CampaignRunReport:
        """Execute every pending cell; return what happened.

        ``progress(cell_result)`` fires as each cell completes (spec
        order on the inline backend; completion order otherwise).
        ``report.executed`` is always in spec order, whatever the
        backend's scheduling did.
        """
        from repro.campaigns.backends.base import ExecutionContext

        cells = self.spec.cells()
        self._check_algorithms(cells)
        backend = self._resolve_backend()
        ledger = None
        if self.store is not None:
            self.store.save_spec(self.spec)
            ledger = FailureLedger(self.store.failures_path)
            pending = []
            for c in cells:
                # heal_cell repairs the one recoverable damage shape —
                # junk torn onto a complete file's tail by a crash
                # mid-copy — so resume re-executes only genuinely
                # unfinished cells (DESIGN.md §13).
                if self.store.is_complete(c) or self.store.heal_cell(c):
                    continue
                pending.append(c)
        else:
            pending = list(cells)
        report = CampaignRunReport(
            spec=self.spec,
            skipped=[c for c in cells if c not in pending],
        )
        if not pending:
            if ledger is not None:
                ledger.prune({c.key for c in cells})
            return report
        cache, owned = self._resolve_eval_cache()
        recorder, rec_owned = self._resolve_recorder()
        leases = LeaseTable(self.retry_policy, ledger)
        ctx = ExecutionContext(
            executor=self,
            pending=pending,
            report=report,
            cache=cache,
            progress=progress,
            recorder=recorder,
            leases=leases,
        )
        recorder.event(
            "campaign.run.started",
            backend=backend.name,
            n_pending=len(pending),
            n_skipped=len(report.skipped),
        )
        for cell in pending:
            recorder.event("cell.queued", cell=cell.key,
                           backend=backend.name)
        try:
            # ``using`` makes this run's sink the process-wide active
            # recorder, so the cache/evaluator/simulator layers reach
            # it through get_recorder() without any plumbing.
            with using(recorder):
                with recorder.span("campaign.run", backend=backend.name):
                    backend.execute(ctx)
        finally:
            # Spec order regardless of completion order — also on the
            # failure path, so a partial report stays deterministic.
            order = {cell.key: i for i, cell in enumerate(pending)}
            report.executed.sort(key=lambda r: order[r.cell.key])
            report.failed = [
                CellFailure(cell_key=key, attempts=att, error=err)
                for key, (att, err) in sorted(
                    leases.quarantined.items(),
                    key=lambda kv: order.get(kv[0], len(order)),
                )
            ]
            report.retries = max(
                0, leases.failures - len(leases.quarantined)
            )
            report.requeues = leases.requeues
            if ledger is not None:
                # Entries for cells that have since completed are stale
                # (a retried run recovered them); drop them so
                # ``campaign failures`` reports only live quarantines.
                ledger.prune(
                    {c.key for c in cells if self.store.is_complete(c)}
                )
            if owned and cache is not None:
                cache.close()
            recorder.count("campaign.cache_hits", report.cache_hits)
            recorder.count(
                "campaign.simulations_executed",
                report.simulations_executed,
            )
            if report.retries:
                recorder.count("campaign.retries", report.retries)
            if report.requeues:
                recorder.count("campaign.requeued_cells", report.requeues)
            if report.failed:
                recorder.count("campaign.quarantined_cells",
                               len(report.failed))
            recorder.event(
                "campaign.run.finished",
                backend=backend.name,
                executed=len(report.executed),
                cache_hits=report.cache_hits,
                simulations_executed=report.simulations_executed,
                quarantined=len(report.failed),
            )
            if rec_owned:
                recorder.close()
            else:
                recorder.flush()
        return report

    @staticmethod
    def _check_algorithms(cells) -> None:
        # Validate before anything touches the store: a bad algorithm
        # name must not leave a poisoned spec.json behind.
        tune = {c.algorithm for c in cells if c.algorithm != EVALUATE}
        if not tune:
            return
        from repro.experiments.runner import ALGORITHMS

        unknown = sorted(tune - set(ALGORITHMS))
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown}; "
                f"known: {(EVALUATE,) + ALGORITHMS}"
            )

    def _finish_cell(
        self, cell: CampaignCell, payloads: list,
        report: CampaignRunReport, progress,
    ) -> None:
        records = _records_for(cell, payloads)
        if self.store is not None:
            self.store.write_cell(cell, records)
        result = CellResult(cell=cell, records=records, payloads=payloads)
        report.executed.append(result)
        get_recorder().event(
            "cell.finished", cell=cell.key, n_records=len(records)
        )
        if progress is not None:
            progress(result)

    # Every backend shares the cache bookkeeping through exactly these
    # hooks (via ExecutionContext), so reports can never diverge.
    @staticmethod
    def _cached_payload(job, report, cache):
        """A persistent-cache hit for ``job``, or None (= must execute)."""
        if isinstance(job, _SimJob) and cache is not None:
            stored = cache.get_metrics(job.scenario, job.params)
            if stored is not None:
                report.cache_hits += 1
                return stored
        return None

    @staticmethod
    def _record_executed(job, payload, report, cache) -> None:
        """Count one live execution's simulations; persist a simulation's
        result."""
        if isinstance(job, _SimJob):
            report.simulations_executed += 1
            if cache is not None:
                cache.put_metrics(job.scenario, job.params, payload)
        else:
            # Tune problems run uncached: every evaluation simulates each
            # network of the cell's set once.
            report.simulations_executed += int(payload.evaluations) * job.n_networks

    def _resolve_serial_job(self, job, report, cache):
        """One job's payload: persistent-cache hit or live execution."""
        stored = self._cached_payload(job, report, cache)
        if stored is not None:
            return stored
        payload = _execute_job(job)
        self._record_executed(job, payload, report, cache)
        return payload
