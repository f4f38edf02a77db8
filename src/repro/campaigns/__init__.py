"""Declarative scenario-space campaigns.

This package is the layer above a single
:class:`~repro.tuning.evaluation.NetworkSetEvaluator`: instead of
hand-rolling loops over densities and seeds (as the early examples and
benchmarks did), you *declare* the scenario space and let one executor
drive it through a shared worker pool with resumable on-disk results.

Quick guide
===========

1. **Declare the grid.**  A :class:`CampaignSpec` is a frozen description
   of everything to run — no code, just axes::

       from repro.campaigns import CampaignSpec

       spec = CampaignSpec(
           name="mobility-sweep",
           densities=(100, 300),
           mobility_models=("random-walk", "gauss-markov"),
           n_seeds=3,                 # 2 x 2 x 3 = 12 cells
           n_networks=5,
       )

   ``spec.cells()`` expands the grid into self-describing
   :class:`CampaignCell` units (all seeds pre-derived from
   ``master_seed``), so the same spec always names the same work.

2. **Run it.**  :class:`CampaignExecutor` skips completed cells and
   runs everything else through one persistent process pool, one task
   per cell — the worker that simulates a cell builds that cell's
   scenario runtimes itself::

       from repro.campaigns import CampaignExecutor, ResultStore

       store = ResultStore("runs/mobility-sweep")
       report = CampaignExecutor(spec, store, max_workers=8).run()
       print(f"{len(report.executed)} cells run, "
             f"{len(report.skipped)} resumed from disk")

3. **Resume for free.**  Results land as ``cells/<content-key>.jsonl``
   the moment each cell finishes.  Kill the campaign, run the same
   command again: only the missing cells execute.  Change the spec and
   the content keys change with it — stale results are never reused.

4. **Inspect.**  ``repro-aedb campaign run|status|report`` is the CLI
   face of the same objects; :func:`render_report` and
   :func:`render_status` produce the text views.

The persistent evaluation cache (DESIGN.md §9)
==============================================

Every finished simulation is appended to the store's
``evaluations.jsonl`` sidecar
(:class:`~repro.tuning.cache.PersistentEvaluationCache`), keyed on the
full ``(scenario, params)`` content, and served back bit for bit.
Re-running a completed grid into a *fresh* store — or running a
different campaign whose cells overlap — executes zero simulations::

    store_b = ResultStore("runs/other-dir")
    report = CampaignExecutor(
        spec, store_b,
        eval_cache="runs/mobility-sweep/evaluations.jsonl",
    ).run()
    assert report.simulations_executed == 0   # all served from disk

``eval_cache=None`` disables it; ``repro-aedb cache stats|flush``
maintains it.

Workloads
=========

``algorithms=("evaluate",)`` (default) scores fixed parameter vectors
(``spec.params``) across the grid — pure simulation, maximally
batchable.  Naming optimisers instead (``("NSGAII", "AEDB-MLS")``) makes
each cell one seeded tuning run; the experiment runner's
``run_campaign`` is expressed exactly this way, reproducing its
historical seeds bit-for-bit.

Execution backends (DESIGN.md §10)
==================================

*How* the cells run is a pluggable strategy behind the
:class:`~repro.campaigns.backends.Backend` protocol —
``CampaignExecutor(..., backend=...)`` or ``repro-aedb campaign run
--backend {inline,pool}``:

* ``inline`` — serial, in-process; the debuggable reference;
* ``pool`` (default) — one shared process pool, one task per cell.

Both backends produce **byte-identical** stores for the same spec —
the invariant ``tests/campaigns/test_backend_identity.py`` pins — so
backend choice is purely an execution/deployment decision.

Failure semantics (DESIGN.md §13)
=================================

The scheduler owns failure, not the caller.  Every run carries a
:class:`~repro.campaigns.resilience.RetryPolicy` (``repro-aedb campaign
run --retries/--cell-timeout``): failed attempts retry with
deterministic backoff, the pool backend survives broken pools and
wedged workers (leases whose deadline is the cell timeout), and a
cell that exhausts its budget is **quarantined** into the store's
``failures.jsonl`` (``repro-aedb campaign failures``) instead of
aborting anything.  Recovered runs stay byte-identical to fault-free
ones; ``tests/campaigns/test_chaos.py`` proves every path against the
deterministic fault plane in :mod:`repro.campaigns.faults`.
"""

from repro.campaigns.backends import (
    Backend,
    InlineBackend,
    PoolBackend,
    resolve_backend,
)
from repro.campaigns.executor import (
    CampaignExecutor,
    CampaignRunReport,
    CellFailure,
    CellResult,
)
from repro.campaigns.faults import FaultPlane, InjectedFault
from repro.campaigns.report import (
    render_failures,
    render_report,
    render_status,
)
from repro.campaigns.resilience import (
    FailureLedger,
    LeaseTable,
    RetryPolicy,
)
from repro.campaigns.spec import (
    DEFAULT_PARAMS,
    EVALUATE,
    CampaignCell,
    CampaignSpec,
)
from repro.campaigns.store import CampaignStatus, ResultStore

__all__ = [
    "CampaignSpec",
    "CampaignCell",
    "CampaignExecutor",
    "CampaignRunReport",
    "CellResult",
    "ResultStore",
    "CampaignStatus",
    "Backend",
    "InlineBackend",
    "PoolBackend",
    "resolve_backend",
    "render_report",
    "render_status",
    "render_failures",
    "EVALUATE",
    "DEFAULT_PARAMS",
    "RetryPolicy",
    "LeaseTable",
    "FailureLedger",
    "CellFailure",
    "FaultPlane",
    "InjectedFault",
]
