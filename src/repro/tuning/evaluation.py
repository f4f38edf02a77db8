"""Multi-network fitness evaluation.

"The quality of the solution is not tested in one single network but in
10 different networks, and the fitness value of each objective is defined
as the average value of the 10 runs.  These 10 networks are always the
same for evaluating every solution."  (paper, Sect. V)

:class:`NetworkSetEvaluator` owns that fixed network set and turns an
:class:`~repro.manet.aedb.AEDBParams` into averaged
:class:`~repro.manet.metrics.BroadcastMetrics`.

:meth:`NetworkSetEvaluator.evaluate_many` is the batched entry point
(one configuration after another, input order).  Every simulation
takes its scenario's runtime from the per-process memo (DESIGN.md §8),
so evaluations after the first on a network skip the
parameter-independent substrate.

``persistent=`` accepts a
:class:`~repro.tuning.cache.PersistentEvaluationCache` (DESIGN.md §9),
short-cutting any ``(scenario, params)`` simulation already recorded on
disk — across processes, runs, and campaigns.  The cache file is
single-writer: whoever constructs the evaluator owns the handle.
"""

from __future__ import annotations

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics, aggregate_metrics
from repro.manet.runtime import get_runtime
from repro.manet.scenarios import NetworkScenario, make_scenarios
from repro.manet.simulator import BroadcastSimulator, resolve_compiled_mode
from repro.telemetry import recorder_for, telemetry_mode
from repro.tuning.cache import EvaluationCache, PersistentEvaluationCache

__all__ = ["NetworkSetEvaluator"]


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
        # ``REPRO_TELEMETRY``, captured the same way: no simulation
        # reads the environment (DESIGN.md §12).
        self._telemetry = telemetry_mode()

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
        persistent = self.persistent
        compiled = self.compiled_mode
        telemetry = self._telemetry
        runs = []
        with recorder_for(telemetry).span(
            "eval.evaluate", n_networks=len(self.scenarios)
        ):
            for scenario in self.scenarios:
                stored = (
                    None if persistent is None
                    else persistent.get_metrics(scenario, params)
                )
                if stored is None:
                    # The shared runtime (per-process bounded LRU) makes
                    # every evaluation after the first on a scenario skip
                    # the whole parameter-independent substrate; results
                    # are bit-identical to the recompute path.
                    stored = BroadcastSimulator(
                        scenario, params, runtime=get_runtime(scenario),
                        compiled=compiled, _telemetry=telemetry,
                    ).run()
                    self.simulations_run += 1
                    if persistent is not None:
                        persistent.put_metrics(scenario, params, stored)
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

        Each configuration goes through :meth:`evaluate` (and its cache).
        """
        plist = list(params_list)
        with recorder_for(self._telemetry).span("eval.batch", n_params=len(plist)):
            return [self.evaluate(p) for p in plist]

    def evaluate_vector(self, vector: np.ndarray) -> BroadcastMetrics:
        """Averaged metrics for a raw parameter vector (clipped)."""
        return self.evaluate(AEDBParams.from_array(vector).clipped())
