"""In-memory span tracer that wraps the program's callables from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
each layer-boundary callable named in :data:`LAYER_TARGETS` for a thin
wrapper that records one span — ``(id, name, parent id, start, end)`` —
per call, keeps the spans in a list, and writes them to a JSON file
when the traced process (or a forked worker of it) ends.
:meth:`Tracer.restore` puts every original callable back.

Fine-grained facts that need no timing (flag reads, archive inserts,
local-search acceptances) are plain counters fed from the wrapped
call's result.

Worker processes forked by :mod:`multiprocessing` (the campaign pool,
the AEDB-MLS population processes) inherit the wrappers; an after-fork
hook empties the inherited buffers and registers an exit finaliser that
writes the worker's own span file.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import multiprocessing.util as mp_util
import os
import sys
import threading
import time
from pathlib import Path

__all__ = ["LAYER_TARGETS", "Tracer", "load_trace_dir", "self_times"]

# --------------------------------------------------------------------- #
# What to wrap.  Each row: (module, dotted attribute, span name, where).
# ``where`` is "owner" (replace the attribute on its owner only) or
# "everywhere" (also replace every ``from module import name`` copy held
# by another loaded ``repro`` module — names imported by value must be
# wrapped where they are looked up).  A span name may be a callable of
# the wrapped call's arguments.
def _search_name(alg, *args, **kwargs):
    return f"search.{alg.name}"


def _job_name(job, *args, **kwargs):
    return "executor.tunejob" if hasattr(job, "algorithm") else "executor.simjob"


LAYER_TARGETS = (
    ("repro.cli", "main", "cli.main", "owner"),
    # campaigns: executor, backends, store
    ("repro.campaigns.executor", "CampaignExecutor.run", "executor.run", "owner"),
    ("repro.campaigns.executor", "_execute_job", _job_name, "owner"),
    ("repro.campaigns.backends.inline", "InlineBackend.execute",
     "executor.inline", "owner"),
    ("repro.campaigns.backends.pool", "PoolBackend.execute", "pool.execute",
     "owner"),
    ("repro.campaigns.backends.pool", "wait", "pool.wait", "owner"),
    ("repro.campaigns.store", "ResultStore.write_cell", "store.write", "owner"),
    # persistent evaluation cache
    ("repro.tuning.cache", "PersistentEvaluationCache.put_metrics",
     "evalcache.put", "owner"),
    ("repro.tuning.cache", "PersistentEvaluationCache.get_metrics",
     "evalcache.get", "owner"),
    # scenarios, runtimes, shared arena
    ("repro.manet.scenarios", "make_scenarios", "scenarios.make", "everywhere"),
    ("repro.manet.scenarios", "NetworkScenario.build_mobility",
     "scenarios.build", "owner"),
    ("repro.manet.runtime", "ScenarioRuntime.__init__", "runtime.build", "owner"),
    ("repro.manet.runtime", "get_runtime", "runtime.get", "everywhere"),
    ("repro.manet.shared", "attach_runtime", "runtime.attach", "everywhere"),
    ("repro.manet.shared", "SharedRuntimeArena.create", "arena.create", "owner"),
    # search: algorithms, engines, archives
    ("repro.moo.algorithms.base", "EvolutionaryAlgorithm.run", _search_name,
     "owner"),
    ("repro.core.mls", "AEDBMLS.run", _search_name, "owner"),
    ("repro.core.engines.serial", "SerialEngine.run", "engine.serial", "owner"),
    ("repro.core.engines.processes", "ProcessEngine.run", "engine.processes",
     "owner"),
    ("repro.core.engines.processes", "mp_wait", "engine.wait", "owner"),
    ("repro.core.engines.processes", "_population_worker", "engine.population",
     "owner"),
    ("repro.moo.archive.nondominated", "UnboundedArchive.add", "archive.add",
     "owner"),
    ("repro.moo.archive.epsilon", "EpsilonArchive.add", "archive.add", "owner"),
    ("repro.moo.archive.adaptive_grid", "AdaptiveGridArchive.sample",
     "archive.sample", "owner"),
    ("repro.core.localsearch", "LocalSearchProcedure.stats", "mls.stats",
     "owner"),
    # evaluation and simulation
    ("repro.tuning.evaluation", "NetworkSetEvaluator.evaluate",
     "evaluator.evaluate", "owner"),
    ("repro.manet.simulator", "BroadcastSimulator.__init__", "sim.construct",
     "owner"),
    ("repro.manet.simulator", "BroadcastSimulator.run", "sim.run", "owner"),
    ("repro.manet.simulator", "BroadcastSimulator._collect_metrics",
     "sim.collect", "owner"),
    ("repro.manet.simulator", "run_beacon_schedule", "sim.warm", "owner"),
    ("repro.manet.simulator", "execute_compiled_run", "compiled.execute",
     "owner"),
    ("repro.manet._evcore", "run_window", "kernel.run_window", "owner"),
)

#: Counter-only wrappers: (module, dotted attribute, counter name).
COUNT_TARGETS = (
    ("repro.utils.flags", "Flag.read", "flags.read"),
)


def _on_result(name):
    """Counter updates derived from a wrapped call's return value."""
    if name == "archive.add":
        return lambda tracer, result: tracer.count("archive.inserted", bool(result))
    if name == "evalcache.get":
        return lambda tracer, result: tracer.count("evalcache.hits", result is not None)
    if name == "arena.create":
        return lambda tracer, result: tracer.count(
            "arena.bytes", 0 if result is None else int(result.nbytes())
        )
    if name == "mls.stats":
        def stats(tracer, result):
            tracer.count("mls.accepted", int(result["accepted"]))
            tracer.count("mls.iterations", int(result["iterations"]))
        return stats
    return None


# --------------------------------------------------------------------- #
class Tracer:
    """Span buffer plus the patch table that feeds it."""

    def __init__(self, out_dir: str | os.PathLike, label: str = "main"):
        self.out_dir = Path(out_dir)
        self.label = label
        self.spans: list[list] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def add_span(self, name: str, start: float, end: float,
                 parent: int = -1) -> int:
        """Record a span measured elsewhere (e.g. process start-up)."""
        sid = next(self._ids)
        self.spans.append([sid, self._name_id(name), parent, start, end])
        return sid

    @contextlib.contextmanager
    def root(self, name: str, start: float):
        """The process's root span, opened at ``start`` (a
        ``time.perf_counter`` reading, which is system-wide on Linux, so
        a launching parent may supply it)."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.spans.append(
                [sid, self._name_id(name), -1, start, time.perf_counter()]
            )

    def _wrapper(self, func, name, on_result):
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        static_id = None if callable(name) else self._name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            nid = static_id if static_id is not None else tracer._name_id(
                name(*args, **kwargs)
            )
            stack = tracer._stack()
            sid = next(ids)
            rec = [sid, nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(sid)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                spans.append(rec)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def _counting(self, func, counter):
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            tracer.count(counter)
            return func(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------- #
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_one(self, module_name, dotted, make, everywhere) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        *owner_path, attr = dotted.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        replacement = make(func)
        self._patch(owner, attr, kind(replacement) if kind else replacement)
        if everywhere:
            for other_name, other in list(sys.modules.items()):
                if (
                    other is not module
                    and other_name.startswith("repro")
                    and other is not None
                    and other.__dict__.get(attr) is func
                ):
                    self._patch(other, attr, replacement)
        return True

    @staticmethod
    def import_targets() -> None:
        """Import every module that holds a target (absent ones skipped)."""
        for module_name, *_ in LAYER_TARGETS + COUNT_TARGETS:
            try:
                __import__(module_name)
            except ImportError:
                pass

    def install(self) -> list[str]:
        """Wrap every importable target; return the ones that were absent
        (an optional layer such as ``_evcore`` when it is not built)."""
        self.import_targets()
        missing = []
        for module_name, dotted, name, where in LAYER_TARGETS:
            on_result = _on_result(name) if isinstance(name, str) else None
            ok = self._wrap_one(
                module_name, dotted,
                lambda f, n=name, r=on_result: self._wrapper(f, n, r),
                where == "everywhere",
            )
            if not ok:
                missing.append(f"{module_name}:{dotted}")
        for module_name, dotted, counter in COUNT_TARGETS:
            if not self._wrap_one(
                module_name, dotted,
                lambda f, c=counter: self._counting(f, c), False,
            ):
                missing.append(f"{module_name}:{dotted}")
        mp_util.register_after_fork(self, Tracer._after_fork)
        return missing

    def restore(self) -> None:
        """Put every original callable back (reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def n_patches(self) -> int:
        return len(self._patches)

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every live patch."""
        return list(self._patches)

    # -- worker processes ----------------------------------------------- #
    def _after_fork(self) -> None:
        # Runs in a multiprocessing child before its target: drop what the
        # parent had recorded and write this worker's own spans at exit.
        if not self._patches:
            return
        self.spans.clear()
        self.counters.clear()
        self._local.stack = []
        self.label = f"worker-{os.getpid()}"
        mp_util.Finalize(self, self.dump, exitpriority=10)

    # -- output --------------------------------------------------------- #
    def dump(self, extra: dict | None = None) -> Path:
        """Write ``spans-<label>.npy`` (one ``(id, name, parent, start,
        end)`` row per span) and ``spans-<label>.json`` (names, counters,
        ``extra``).  Binary rows keep the write cheap: it is traced time."""
        import numpy as np

        self.out_dir.mkdir(parents=True, exist_ok=True)
        base = self.out_dir / f"spans-{self.label}"
        rows = np.asarray(self.spans, dtype=np.float64).reshape(-1, 5)
        np.save(base.with_suffix(".npy"), rows)
        header = {
            "label": self.label,
            "pid": os.getpid(),
            "names": self.names,
            "counters": self.counters,
            **(extra or {}),
        }
        tmp = base.with_suffix(".tmp")
        tmp.write_text(json.dumps(header))
        tmp.replace(base.with_suffix(".json"))  # written last: marks complete
        return base


# --------------------------------------------------------------------- #
def load_trace_dir(out_dir: str | os.PathLike) -> list[dict]:
    """Every span file a traced run left, main process first."""
    import numpy as np

    traces = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        trace = json.loads(path.read_text())
        rows = np.load(path.with_suffix(".npy"))
        trace["spans"] = [
            (int(sid), int(nid), int(parent), t0, t1)
            for sid, nid, parent, t0, t1 in rows.tolist()
        ]
        traces.append(trace)
    traces.sort(key=lambda t: t["label"] != "main")
    return traces


def self_times(trace: dict) -> list[dict]:
    """Per-span rows with inclusive and self time.

    A span's self time is its duration minus the durations of its direct
    children (children never overlap: one thread runs one call at a
    time), so over one span tree the self times sum to the root's
    duration.
    """
    names = trace["names"]
    rows = {
        sid: {"id": sid, "name": names[nid], "parent": parent,
              "start": t0, "end": t1, "dur": t1 - t0, "child_dur": 0.0}
        for sid, nid, parent, t0, t1 in trace["spans"]
    }
    for row in rows.values():
        parent = rows.get(row["parent"])
        if parent is not None:
            parent["child_dur"] += row["dur"]
    for row in rows.values():
        row["self"] = row["dur"] - row["child_dur"]
    return list(rows.values())
