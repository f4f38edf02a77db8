"""Pool-shared scenario runtimes: one precompute per pool, not per worker.

The per-process runtime memo (:mod:`repro.manet.runtime`) spares a worker
the substrate recompute *within* its own process, but a pool of W workers
evaluating the same scenarios would still build W copies of every
per-tick neighbour-table timeline — warm-up cost scaling with worker
count instead of scenario count, the exact overhead the paper's parallel
local search is designed to avoid.

:class:`SharedRuntimeArena` avoids it by building each distinct pending
scenario's :class:`~repro.manet.runtime.ScenarioRuntime` in the **pool
owner**, before the pool forks its workers.  The runtimes go into one
module-level table that the workers inherit copy-on-write: their
snapshot arrays are read-only, so a worker reads the owner's pages and
never copies or recomputes them, and the metrics stay bit-identical
(DESIGN.md §9).

The table is deliberately not the bounded memo LRU behind
:func:`~repro.manet.runtime.get_runtime`: a sweep's pending scenarios
can outnumber the memo's entries, and every runtime evicted before the
fork would be rebuilt by every worker.

Fallback semantics: :func:`attach_runtime` returns the prepared runtime
when the table holds the scenario and otherwise defers to
:func:`~repro.manet.runtime.get_runtime`, so callers never branch — the
result is identical either way.  ``SharedRuntimeArena.create`` returns
``None`` for an empty list or when runtime memoisation is off (that
switch promises the recompute path).

Usage (what the pooled evaluator and the pool backend do)::

    from repro.manet.shared import SharedRuntimeArena, attach_runtime

    arena = SharedRuntimeArena.create(scenarios)      # owner, before the fork
    # ... fork the pool; ship (scenario, params) to a worker ...
    runtime = attach_runtime(scenario)                # worker, a dict lookup
    metrics = BroadcastSimulator(scenario, params, runtime=runtime).run()
    arena.close()                                     # owner, at the end
"""

from __future__ import annotations

from repro.manet.runtime import (
    ScenarioRuntime,
    get_runtime,
    runtime_memoisation_enabled,
)
from repro.manet.scenarios import NetworkScenario

__all__ = ["SharedRuntimeArena", "attach_runtime"]

#: Runtimes of every live arena, by scenario.  Forked workers inherit it.
_PREPARED: dict[NetworkScenario, ScenarioRuntime] = {}


class SharedRuntimeArena:
    """Owner of the prepared runtimes for a set of scenarios.

    Build with :meth:`create` (which may return ``None`` — callers then
    use per-process runtimes) *before* forking the pool, release with
    :meth:`close`.  One arena typically lives exactly as long as one
    process pool.
    """

    def __init__(self) -> None:
        #: The scenarios this arena added to the table (and may remove).
        self._scenarios: list[NetworkScenario] = []

    @classmethod
    def create(
        cls, scenarios: list[NetworkScenario]
    ) -> "SharedRuntimeArena | None":
        """Build every distinct scenario's runtime into the shared table.

        Returns ``None`` when the list is empty or runtime memoisation
        is off.  A scenario another live arena already prepared is
        reused, and stays that arena's to release.
        """
        if not scenarios or not runtime_memoisation_enabled():
            return None
        arena = cls()
        for scenario in dict.fromkeys(scenarios):
            if scenario not in _PREPARED:
                _PREPARED[scenario] = ScenarioRuntime(scenario)
                arena._scenarios.append(scenario)
        return arena

    @property
    def n_scenarios(self) -> int:
        return len(self._scenarios)

    def nbytes(self) -> int:
        """Bytes addressed by this arena's runtimes (one copy per pool)."""
        return sum(_PREPARED[s].nbytes() for s in self._scenarios)

    def close(self) -> None:
        """Drop the runtimes this arena added (idempotent)."""
        for scenario in self._scenarios:
            del _PREPARED[scenario]
        self._scenarios.clear()

    def __enter__(self) -> "SharedRuntimeArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_runtime(scenario: NetworkScenario) -> ScenarioRuntime | None:
    """The prepared runtime for ``scenario``, else :func:`get_runtime`'s.

    Workers forked after :meth:`SharedRuntimeArena.create` find the
    owner's runtime here.  Under a start method that does not fork, the
    table starts empty in the worker and every call falls back to the
    per-process memo, with the same bytes.  Runtime memoisation off
    skips the table too, so a prepared runtime cannot undo that
    ablation.
    """
    if runtime_memoisation_enabled():
        runtime = _PREPARED.get(scenario)
        if runtime is not None:
            return runtime
    return get_runtime(scenario)
