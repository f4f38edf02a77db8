"""Multi-network fitness evaluation.

"The quality of the solution is not tested in one single network but in
10 different networks, and the fitness value of each objective is defined
as the average value of the 10 runs.  These 10 networks are always the
same for evaluating every solution."  (paper, Sect. V)

:class:`NetworkSetEvaluator` owns that fixed network set and turns an
:class:`~repro.manet.aedb.AEDBParams` into averaged
:class:`~repro.manet.metrics.BroadcastMetrics`.

:class:`ParallelNetworkSetEvaluator` fans the per-network simulations
out to a process pool (each run is a pure function of
``(scenario, params)``, so the fan-out is embarrassingly parallel and
bit-for-bit identical to the serial evaluator).  Worth it when the
per-simulation cost dominates the process round-trip — the paper-scale
75-node networks, not the tiny test fixtures; the break-even is
measured in ``benchmarks/bench_simulator.py``.

:meth:`NetworkSetEvaluator.evaluate_many` is the batched entry point:
the parallel evaluator pushes *all* configurations' simulations through
one ``pool.map`` instead of one fan-out per configuration, which keeps
every worker busy across configuration boundaries — the primitive the
campaign executor builds on.  The worker pool is persistent across
batches and is reclaimed by :meth:`close`, the context manager, or (via
``weakref.finalize``) garbage collection and interpreter exit, so an
unclosed evaluator no longer orphans worker processes.

Two optional layers plug into both evaluators (DESIGN.md §9):

* a :class:`~repro.manet.shared.SharedRuntimeArena` is created
  automatically by the parallel evaluator before its pool forks, so the
  workers inherit one copy of each scenario's substrate instead of
  privately rebuilding it per process;
* ``persistent=`` accepts a
  :class:`~repro.tuning.cache.PersistentEvaluationCache`, short-cutting
  any ``(scenario, params)`` simulation already recorded on disk —
  across processes, runs, and campaigns.  The cache file is
  single-writer: whoever constructs the evaluator owns the handle.  A
  process that must *read* another party's cache without contending for
  its file — a campaign shard worker warm-starting from the parent
  campaign's sidecar (DESIGN.md §10) — opens its own cache and preloads
  via :meth:`~repro.tuning.cache.PersistentEvaluationCache.warm_from`.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics, aggregate_metrics
from repro.manet.runtime import get_runtime
from repro.manet.scenarios import NetworkScenario, make_scenarios
from repro.manet.shared import SharedRuntimeArena, attach_runtime
from repro.manet.simulator import BroadcastSimulator, resolve_compiled_mode
from repro.telemetry import get_recorder
from repro.tuning.cache import EvaluationCache, PersistentEvaluationCache

__all__ = ["NetworkSetEvaluator", "ParallelNetworkSetEvaluator"]


def _simulate_one(
    scenario: NetworkScenario, params: AEDBParams, compiled: str
) -> BroadcastMetrics:
    """Module-level worker (must be picklable for process pools).

    The worker reads the runtime the evaluator prepared before the pool
    forked (one precompute for the whole pool); a scenario the table
    does not hold resolves from the worker's own per-process LRU.
    Either way the metrics are bit-identical.  ``compiled`` is the
    evaluator's captured compiled-core mode.
    """
    return BroadcastSimulator(
        scenario, params, runtime=attach_runtime(scenario), compiled=compiled
    ).run()


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer target (module-level so it holds no evaluator ref)."""
    pool.shutdown()


class NetworkSetEvaluator:
    """Average AEDB broadcast metrics over a fixed scenario set."""

    def __init__(
        self,
        scenarios: list[NetworkScenario],
        cache: EvaluationCache | None = None,
        persistent: PersistentEvaluationCache | None = None,
    ):
        if not scenarios:
            raise ValueError("scenario set must be non-empty")
        n_nodes = {s.n_nodes for s in scenarios}
        if len(n_nodes) != 1:
            raise ValueError(
                f"scenario set mixes node counts: {sorted(n_nodes)}"
            )
        self.scenarios = list(scenarios)
        self.cache = cache
        #: Optional on-disk per-simulation memo, shared across processes
        #: and runs (PersistentEvaluationCache, DESIGN.md §9).
        self.persistent = persistent
        #: Simulations actually executed (cache hits excluded).
        self.simulations_run = 0
        #: The compiled-core mode (DESIGN.md §14), read from
        #: ``REPRO_COMPILED`` once here and handed to every simulator,
        #: so one evaluator never straddles engines.
        self.compiled_mode = resolve_compiled_mode()

    # ------------------------------------------------------------------ #
    @classmethod
    def for_density(
        cls,
        density_per_km2: float,
        n_networks: int = 10,
        master_seed: int = 0xAEDB,
        n_nodes: int | None = None,
        sim=None,
        cache: EvaluationCache | None = None,
        mobility_model: str = "random-walk",
        persistent: PersistentEvaluationCache | None = None,
    ) -> "NetworkSetEvaluator":
        """Build the paper's evaluation set for one density."""
        return cls(
            make_scenarios(
                density_per_km2,
                n_networks=n_networks,
                master_seed=master_seed,
                n_nodes=n_nodes,
                sim=sim,
                mobility_model=mobility_model,
            ),
            cache=cache,
            persistent=persistent,
        )

    # ------------------------------------------------------------------ #
    @property
    def n_networks(self) -> int:
        """Number of evaluation networks."""
        return len(self.scenarios)

    @property
    def n_nodes(self) -> int:
        """Devices per network."""
        return self.scenarios[0].n_nodes

    def _simulate_all(self, params: AEDBParams) -> BroadcastMetrics:
        with get_recorder().span("eval.evaluate", n_networks=self.n_networks):
            return self._simulate_all_inner(params)

    def _simulate_all_inner(self, params: AEDBParams) -> BroadcastMetrics:
        runs = []
        for scenario in self.scenarios:
            stored = (
                self.persistent.get_metrics(scenario, params)
                if self.persistent is not None
                else None
            )
            if stored is None:
                # The shared runtime (per-process bounded LRU) makes
                # every evaluation after the first on a scenario skip
                # the whole parameter-independent substrate; results
                # are bit-identical to the recompute path.
                stored = BroadcastSimulator(
                    scenario, params, runtime=get_runtime(scenario),
                    compiled=self.compiled_mode,
                ).run()
                self.simulations_run += 1
                if self.persistent is not None:
                    self.persistent.put_metrics(scenario, params, stored)
            runs.append(stored)
        return aggregate_metrics(runs)

    def evaluate(self, params: AEDBParams) -> BroadcastMetrics:
        """Averaged metrics for one configuration (cached if enabled)."""
        if self.cache is None:
            return self._simulate_all(params)
        result = self.cache.get_or_compute(
            params.as_array(), lambda: self._simulate_all(params)
        )
        assert isinstance(result, BroadcastMetrics)
        return result

    def evaluate_many(
        self, params_list: list[AEDBParams]
    ) -> list[BroadcastMetrics]:
        """Averaged metrics for a batch of configurations, input order.

        The serial baseline simply loops; the parallel evaluator
        overrides this with a single flattened pool fan-out.
        """
        plist = list(params_list)
        with get_recorder().span("eval.batch", n_params=len(plist)):
            return [self.evaluate(p) for p in plist]

    def evaluate_vector(self, vector: np.ndarray) -> BroadcastMetrics:
        """Averaged metrics for a raw parameter vector (clipped)."""
        return self.evaluate(AEDBParams.from_array(vector).clipped())


class ParallelNetworkSetEvaluator(NetworkSetEvaluator):
    """Evaluator that simulates the network set on a process pool.

    Drop-in for :class:`NetworkSetEvaluator` — identical results
    (simulations are pure functions of their inputs and are aggregated
    in scenario order), different wall-clock.  The pool is created
    lazily on first use, reused across :meth:`evaluate` /
    :meth:`evaluate_many` calls, and shut down by :meth:`close`, the
    context manager, or a ``weakref.finalize`` hook when the evaluator
    is garbage-collected or the interpreter exits.

    A :class:`~repro.manet.shared.SharedRuntimeArena` over the scenario
    set is built before the pool, so the forked workers inherit one
    precomputed substrate instead of each rebuilding their own.
    """

    def __init__(
        self,
        scenarios: list[NetworkScenario],
        cache: EvaluationCache | None = None,
        max_workers: int | None = None,
        persistent: PersistentEvaluationCache | None = None,
    ):
        super().__init__(scenarios, cache=cache, persistent=persistent)
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None
        self._arena: SharedRuntimeArena | None = None
        self._arena_tried = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            # Reclaims the workers when the evaluator is collected or the
            # interpreter exits, whichever comes first — close() makes it
            # a no-op.  The callback must not reference self (it would
            # keep the evaluator alive forever).
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def _ensure_arena(self) -> SharedRuntimeArena | None:
        # Created (once) before the pool, so every worker forks with the
        # prepared runtimes already in the table.
        if not self._arena_tried:
            self._arena_tried = True
            self._arena = SharedRuntimeArena.create(self.scenarios)
        return self._arena

    def _pooled_runs(
        self, pairs: list[tuple[NetworkScenario, AEDBParams]]
    ) -> list[BroadcastMetrics]:
        """Resolve ``(scenario, params)`` simulations, pair order.

        Persistent-cache hits never reach the pool; the remainder goes
        through ONE ``pool.map``.
        """
        out: list[BroadcastMetrics | None] = [None] * len(pairs)
        todo: list[int] = []
        for i, (scenario, params) in enumerate(pairs):
            stored = (
                self.persistent.get_metrics(scenario, params)
                if self.persistent is not None
                else None
            )
            if stored is not None:
                out[i] = stored
            else:
                todo.append(i)
        if todo:
            self._ensure_arena()
            pool = self._ensure_pool()
            with get_recorder().span("eval.pool_map", n_jobs=len(todo)):
                runs = list(
                    pool.map(
                        _simulate_one,
                        [pairs[i][0] for i in todo],
                        [pairs[i][1] for i in todo],
                        [self.compiled_mode] * len(todo),
                    )
                )
            self.simulations_run += len(runs)
            for i, metrics in zip(todo, runs):
                out[i] = metrics
                if self.persistent is not None:
                    self.persistent.put_metrics(
                        pairs[i][0], pairs[i][1], metrics
                    )
        assert all(m is not None for m in out)
        return out  # type: ignore[return-value]

    def _simulate_all(self, params: AEDBParams) -> BroadcastMetrics:
        with get_recorder().span("eval.evaluate", n_networks=self.n_networks):
            return aggregate_metrics(
                self._pooled_runs([(s, params) for s in self.scenarios])
            )

    def evaluate_many(
        self, params_list: list[AEDBParams]
    ) -> list[BroadcastMetrics]:
        """Batched evaluation through ONE pool fan-out.

        All uncached configurations' per-network simulations are
        flattened into a single ``pool.map``, so workers stay busy across
        configuration boundaries (the per-configuration fan-out of
        :meth:`evaluate` leaves them idle at every aggregation barrier).
        Duplicate vectors within the batch simulate once.
        """
        plist = list(params_list)
        with get_recorder().span("eval.batch", n_params=len(plist)):
            return self._evaluate_many_inner(plist)

    def _evaluate_many_inner(
        self, plist: list[AEDBParams]
    ) -> list[BroadcastMetrics]:
        out: list[BroadcastMetrics | None] = [None] * len(plist)
        # Group indices by parameter vector — under the cache's rounded
        # key when caching, so batch dedup agrees with the serial path's
        # get_or_compute keying — and resolve cache hits up front.
        todo: dict[tuple[float, ...], list[int]] = {}
        for i, params in enumerate(plist):
            arr = params.as_array()
            cached = self.cache.get(arr) if self.cache is not None else None
            if cached is not None:
                assert isinstance(cached, BroadcastMetrics)
                out[i] = cached
            else:
                key = (
                    self.cache.key_for(arr)
                    if self.cache is not None
                    else tuple(arr)
                )
                todo.setdefault(key, []).append(i)
        if todo:
            unique = [plist[indices[0]] for indices in todo.values()]
            n_scen = len(self.scenarios)
            runs = self._pooled_runs(
                [(s, p) for p in unique for s in self.scenarios]
            )
            for j, indices in enumerate(todo.values()):
                metrics = aggregate_metrics(runs[j * n_scen:(j + 1) * n_scen])
                if self.cache is not None:
                    self.cache.put(unique[j].as_array(), metrics)
                for i in indices:
                    out[i] = metrics
        assert all(m is not None for m in out)
        return out  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the worker pool down and release the arena (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()  # runs _shutdown_pool exactly once
            self._finalizer = None
        self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._arena_tried = False

    def __enter__(self) -> "ParallelNetworkSetEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
