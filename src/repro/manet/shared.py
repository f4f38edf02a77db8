"""Pre-fork runtime table: build scenario runtimes once, before a fork.

No campaign or tuning path uses this module any more.  The campaign
pool runs one task per cell, and the worker that simulates a cell
builds that cell's runtimes through its own
:func:`~repro.manet.runtime.get_runtime` memo (DESIGN.md §10).  The
module stays only because ``perfbench/tracer.py`` wraps
:func:`attach_runtime` and ``SharedRuntimeArena.create`` and its smoke
check requires every non-kernel target to exist; delete it together
with those two tracer rows (ROADMAP item 1).

:class:`SharedRuntimeArena` builds each distinct scenario's
:class:`~repro.manet.runtime.ScenarioRuntime` in the calling process
and puts it in one module-level table that processes forked afterwards
inherit copy-on-write.  The snapshot arrays are read-only, so a child
reads the parent's pages and never recomputes them, and metrics stay
bit-identical to the recompute path.

:func:`attach_runtime` returns the prepared runtime when the table
holds the scenario and otherwise defers to
:func:`~repro.manet.runtime.get_runtime`, with the same result either
way.  ``SharedRuntimeArena.create`` returns ``None`` for an empty list
or when runtime memoisation is off (that switch promises the recompute
path).

Usage::

    from repro.manet.shared import SharedRuntimeArena, attach_runtime

    arena = SharedRuntimeArena.create(scenarios)      # parent, before the fork
    runtime = attach_runtime(scenario)                # child, a dict lookup
    arena.close()                                     # parent, at the end
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
