"""The layer ledger: per-layer metrics from one traced workload run.

Input is what :mod:`traced` left behind — one span file for the main
process and one per forked worker — plus the wall time the runner
measured around the traced process.  Times are summed over every
process of the run (workers run in parallel, so the per-layer sums can
exceed wall time); ``trace.coverage`` is the share of the main
process's measured wall time that some layer span below the root and
the CLI entry point claims as its own.

The layer of each span name is the table below; the metric names and
units are declared in ``BENCHMARK.json``, and ``perfbench/README.md``
says what each metric should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times

#: Span name -> layer in the self-time ledger.  ``sim.run`` is split at
#: analysis time: its self time is the warm beacon rounds on the
#: compiled path and the broadcast window on the pure path.
LAYER_OF = {
    "process": "unattributed",
    "proc.start": "proc.start",
    # The CLI entry point spans the whole campaign: its own time (argument
    # and spec parsing, unwrapped executor and backend code) is not
    # explained by any layer.
    "cli.main": "unattributed",
    "executor.run": "executor",
    "executor.inline": "executor",
    "executor.tunejob": "executor",
    "executor.simjob": "executor",
    "pool.execute": "pool",
    "pool.wait": "pool.wait",
    "store.write": "store",
    "evalcache.put": "evalcache",
    "evalcache.get": "evalcache",
    "scenarios.make": "scenarios",
    "scenarios.build": "scenarios",
    "runtime.build": "runtime",
    "runtime.get": "runtime",
    "runtime.attach": "runtime",
    "arena.create": "arena",
    "engine.serial": "search",
    "engine.population": "search",
    "mls.stats": "search",
    "engine.processes": "engine",
    "engine.wait": "engine.wait",
    "archive.add": "archive",
    "archive.sample": "archive",
    "evaluator.evaluate": "evaluator",
    "sim.construct": "sim.construct",
    "sim.warm": "sim.warm",
    "sim.collect": "sim.collect",
    "compiled.execute": "compiled.writeback",
    "kernel.run_window": "kernel",
}

#: Algorithms whose search self time is reported by name.
ALGORITHMS = ("AEDB-MLS", "NSGAII", "CellDE")

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


def analyse(traces: list[dict]) -> dict:
    """Raw per-process facts: self time per layer and the named sums the
    metrics need.  ``traces[0]`` is the main process."""
    layer_self: dict[str, float] = defaultdict(float)
    worker_layer_self: dict[str, float] = defaultdict(float)
    total = defaultdict(float)   # inclusive seconds by span name
    own = defaultdict(float)     # self seconds by span name
    calls = defaultdict(int)     # calls by span name
    worker_calls = defaultdict(int)  # the same, forked workers only
    counters: dict[str, int] = defaultdict(int)
    sim_run_ms: list[float] = []
    warm_s = pure_s = 0.0
    pure_runs = 0
    serve_s = 0.0
    serve_n = 0
    lookups = 0
    arena_builds = 0
    main = None
    for index, trace in enumerate(traces):
        rows = self_times(trace)
        by_id = {row["id"]: row for row in rows}
        children = defaultdict(list)
        for row in rows:
            children[row["parent"]].append(row)
        for name, n in trace.get("counters", {}).items():
            counters[name] += n
        for row in rows:
            name = row["name"]
            total[name] += row["dur"]
            own[name] += row["self"]
            calls[name] += 1
            if index > 0:
                worker_calls[name] += 1
            parent = by_id.get(row["parent"])
            parent_name = parent["name"] if parent else None
            layer = LAYER_OF.get(name)
            if name.startswith("search."):
                layer = "search"
            if name == "sim.run":
                sim_run_ms.append(row["dur"] * 1e3)
                compiled = any(
                    c["name"] == "compiled.execute" for c in children[row["id"]]
                )
                if compiled:
                    warm_s += row["self"]
                    layer = "sim.warm"
                else:
                    pure_s += row["self"]
                    pure_runs += 1
                    layer = "window.pure"
            if name in ("runtime.attach", "runtime.get") and parent_name != "runtime.attach":
                lookups += 1
            if name == "runtime.build" and parent_name == "arena.create":
                arena_builds += 1
            if name in ("archive.add", "archive.sample") and _under(
                row, by_id, "engine.processes"
            ):
                serve_s += row["dur"]
                serve_n += 1
            target = layer_self if index == 0 else worker_layer_self
            target[layer or f"other:{name}"] += row["self"]
        if index == 0:
            main = rows
    return {
        "layer_self": dict(layer_self),
        "worker_layer_self": dict(worker_layer_self),
        "total": total,
        "own": own,
        "calls": calls,
        "worker_calls": worker_calls,
        "counters": counters,
        "sim_run_ms": sim_run_ms,
        "warm_s": warm_s,
        "pure_s": pure_s,
        "pure_runs": pure_runs,
        "serve_s": serve_s,
        "serve_n": serve_n,
        "lookups": lookups,
        "arena_builds": arena_builds,
        "main_rows": main or [],
    }


def _under(row: dict, by_id: dict, name: str) -> bool:
    parent = by_id.get(row["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def layer_metrics(
    traces: list[dict], wall_s: float, store_bytes: int, cache_bytes: int,
) -> tuple[dict[str, float], dict]:
    """``(metrics, facts)`` for one traced run.  ``wall_s`` is the
    runner's wall time around the traced process; ``trace.overhead`` is
    filled in by the runner, which also has the untraced runs."""
    f = analyse(traces)
    total, own, calls, counters = f["total"], f["own"], f["calls"], f["counters"]
    sims = calls["sim.run"]
    root = next((r for r in f["main_rows"] if r["name"] == "process"), None)
    unattributed = sum(
        r["self"] for r in f["main_rows"] if LAYER_OF.get(r["name"]) == "unattributed"
    )
    covered = (root["dur"] - unattributed) if root else 0.0
    evaluation_s = total["evaluator.evaluate"] + total["executor.simjob"]
    m = {
        "proc.import_s": total["proc.start"],
        "executor.self_s": sum(
            own[n] for n in ("executor.run", "executor.inline",
                             "executor.tunejob", "executor.simjob")
        ),
        "store.write_s": total["store.write"],
        "store.bytes": store_bytes,
        "pool.jobs": (f["worker_calls"]["executor.simjob"]
                      + f["worker_calls"]["executor.tunejob"]),
        "pool.wait_s": total["pool.wait"],
        "evalcache.puts": calls["evalcache.put"],
        "evalcache.put_s": total["evalcache.put"],
        "evalcache.bytes": cache_bytes,
        "evalcache.hit_ratio": _ratio(counters["evalcache.hits"],
                                      calls["evalcache.get"]),
        "arena.create_s": own["arena.create"],
        "arena.mb": counters["arena.bytes"] / 2**20,
        "scenarios.build_s": own["scenarios.make"] + own["scenarios.build"],
        "runtime.builds": calls["runtime.build"],
        "runtime.build_s": own["runtime.build"],
        "runtime.hit_ratio": 1.0 - _ratio(
            calls["runtime.build"] - f["arena_builds"], f["lookups"]
        ) if f["lookups"] else 0.0,
        "mls.accept_ratio": _ratio(counters["mls.accepted"],
                                   counters["mls.iterations"]),
        "archive.adds": calls["archive.add"],
        "archive.add_s": own["archive.add"],
        "archive.insert_ratio": _ratio(counters["archive.inserted"],
                                       calls["archive.add"]),
        "engine.archive_requests": f["serve_n"],
        "engine.archive_serve_s": f["serve_s"],
        "engine.busy_frac": 1.0 - _ratio(
            total["engine.wait"], total["engine.processes"]
        ) if calls["engine.processes"] else 0.0,
        "evaluator.evaluations": calls["evaluator.evaluate"],
        "evaluator.self_s": own["evaluator.evaluate"],
        "sim.runs": sims,
        "sim.construct_s": own["sim.construct"],
        "sim.warm_s": f["warm_s"] + own["sim.warm"],
        "sim.collect_s": own["sim.collect"],
        "sim.run_ms.p50": _percentile(f["sim_run_ms"], 0.50),
        "sim.run_ms.p99": _percentile(f["sim_run_ms"], 0.99),
        "sim.compiled_frac": _ratio(calls["compiled.execute"], sims),
        "compiled.writeback_s": own["compiled.execute"],
        "kernel.s": total["kernel.run_window"],
        "kernel.share": _ratio(total["kernel.run_window"], evaluation_s),
        "window.pure_s": f["pure_s"],
        "window.pure_runs": f["pure_runs"],
        "flags.reads_per_sim": _ratio(counters["flags.read"], sims),
        "trace.coverage": _ratio(covered, wall_s),
    }
    # The MLS engines' own time is AEDB-MLS's search (local-search steps
    # run inside them, in-process or in population workers).
    mls_engine_s = own["engine.serial"] + own["engine.population"] + own["mls.stats"]
    for alg in ALGORITHMS:
        m[f"search.{alg}.self_s"] = own[f"search.{alg}"] + (
            mls_engine_s if alg == "AEDB-MLS" else 0.0
        )
    facts = {
        "main_layers_s": _rounded(f["layer_self"]),
        "worker_layers_s": _rounded(f["worker_layer_self"]),
        "main_unattributed_s": (wall_s - covered),
        "n_processes": len(traces),
        "n_spans": sum(len(t["spans"]) for t in traces),
    }
    return m, facts


def _rounded(d: dict[str, float]) -> dict[str, float]:
    return {k: round(v, 6) for k, v in sorted(d.items(), key=lambda kv: -kv[1])}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced iterations of one run."""
    return {
        name: statistics.median(s[name] for s in samples)
        for name in samples[0]
    }
