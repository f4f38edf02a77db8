"""Optional evaluation memoisation — in-memory and persistent.

The simulator makes fitness a pure function of its inputs, which buys
two independent caching layers:

* :class:`EvaluationCache` — per-process LRU keyed on the *parameter
  vector* (an evaluator's scenario set is fixed, so the vector is the
  whole key).  Re-evaluating an identical vector — which population
  algorithms do when clones survive selection — is wasted work.  Keys
  round to a configurable precision, hits refresh recency, and the
  structure is thread-safe (AEDB-MLS's shared-memory engine evaluates
  from many threads).  Disabled by default in experiment presets — the
  paper does not cache — but exposed for the ablation benchmarks, the
  campaign executor's batched evaluation path, and interactive use.

* :class:`PersistentEvaluationCache` — the on-disk form (DESIGN.md §9):
  one JSONL sidecar mapping a content key over the full
  ``(scenario, params)`` description to the exact
  :class:`~repro.manet.metrics.BroadcastMetrics` of that single-network
  simulation.  Because the key covers *everything* the simulation
  depends on, the file can outlive the process, the campaign, and the
  machine: repeated sweeps over overlapping grids — or two different
  campaigns sharing scenario + params + seed cells — skip those
  simulations entirely.  Floats round-trip through JSON via ``repr``,
  so a hit returns metrics bit-identical to what was stored.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import IO, Callable

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics
from repro.manet.scenarios import NetworkScenario
from repro.telemetry import get_recorder
from repro.utils.jsonl import ensure_line_boundary

__all__ = ["EvaluationCache", "PersistentEvaluationCache"]


class EvaluationCache:
    """Bounded LRU memoisation of ``vector -> payload`` evaluations."""

    def __init__(self, decimals: int = 9, max_entries: int = 100_000):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.decimals = int(decimals)
        self.max_entries = int(max_entries)
        self._store: OrderedDict[tuple[float, ...], object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def key_for(self, vector: np.ndarray) -> tuple[float, ...]:
        """Cache key: the vector rounded to ``decimals`` places."""
        return tuple(np.round(np.asarray(vector, dtype=float), self.decimals))

    # ------------------------------------------------------------------ #
    def get(self, vector: np.ndarray) -> object | None:
        """The cached payload, or ``None`` on a miss (both are counted).

        A hit moves the entry to the most-recently-used position.
        Payloads are never ``None`` (callers store metrics objects), so
        ``None`` unambiguously means absent.
        """
        key = self.key_for(vector)
        with self._lock:
            if key in self._store:
                self.hits += 1
                self._store.move_to_end(key)
                payload = self._store[key]
            else:
                self.misses += 1
                payload = None
        # Telemetry outside the lock: recorders may do I/O.
        get_recorder().count(
            "lru_cache.hit" if payload is not None else "lru_cache.miss"
        )
        return payload

    def put(self, vector: np.ndarray, payload: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        key = self.key_for(vector)
        with self._lock:
            fill = key not in self._store
            if not fill:
                self._store.move_to_end(key)
            elif len(self._store) >= self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1
            self._store[key] = payload
        if fill:
            get_recorder().count("lru_cache.fill")

    def get_or_compute(
        self, vector: np.ndarray, compute: Callable[[], object]
    ) -> object:
        """Return the cached payload or compute, store, and return it.

        ``compute`` runs outside the lock (evaluations are slow; holding
        the lock would serialise the engines).  A rare duplicate compute
        for the same key is accepted — last writer wins, results being
        deterministic makes that harmless.
        """
        payload = self.get(vector)
        if payload is None:
            payload = compute()
            self.put(vector, payload)
        return payload

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, evictions, size, capacity."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._store),
                "max_entries": self.max_entries,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if (self.hits + self.misses)
                    else 0.0
                ),
            }

    def clear(self) -> None:
        """Drop all entries and reset counters."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


# --------------------------------------------------------------------- #
def _canonical_json(obj) -> str:
    """Deterministic JSON (sorted keys, fixed separators, repr floats)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class PersistentEvaluationCache:
    """Content-keyed on-disk memoisation of single-network simulations.

    One JSON line per entry::

        {"key": "<sha1>", "metrics": {...}, "v": 1}

    appended (and flushed) the moment a result exists, so a crash loses
    at most the line being written — and a torn tail line is skipped on
    the next load, never an error.  The writer contract is
    single-writer-per-file (the campaign executor's parent process, or
    one evaluator); any number of readers may load concurrently.

    Keys hash the *complete* simulation input: every scenario field
    (mobility seed, source, node count, mobility model, the full
    simulation/radio config) plus the exact parameter vector, under a
    format version.  Anything that would change the simulated result
    changes the key, so a stale entry can never be mistaken for the
    current cell's — the same discipline as the campaign store's cell
    keys.  Entries assume the scenario-default protocol seed (the only
    seed evaluators and campaign cells use); runs with an explicit
    ``protocol_seed`` must not be cached here.

    Usage::

        cache = PersistentEvaluationCache("runs/evaluations.jsonl")
        hit = cache.get_metrics(scenario, params)
        if hit is None:
            hit = BroadcastSimulator(scenario, params).run()
            cache.put_metrics(scenario, params, hit)
    """

    VERSION = 1

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, BroadcastMetrics] = {}
        self._lock = threading.Lock()
        self._writer: IO[str] | None = None
        self.hits = 0
        self.misses = 0
        self._load()

    # ------------------------------------------------------------------ #
    @classmethod
    def _read_entries(cls, path: Path) -> dict[str, BroadcastMetrics]:
        """Parse one cache file (missing file / torn or foreign lines ok)."""
        entries: dict[str, BroadcastMetrics] = {}
        try:
            text = path.read_text()
        except FileNotFoundError:
            return entries
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-append
            if obj.get("v") != cls.VERSION:
                continue  # future/foreign format: ignore, don't fail
            try:
                metrics = BroadcastMetrics(**obj["metrics"])
            except (KeyError, TypeError):
                continue
            entries[obj["key"]] = metrics
        return entries

    def _load(self) -> None:
        self._entries.update(self._read_entries(self.path))

    @classmethod
    def simulation_key(
        cls, scenario: NetworkScenario, params: AEDBParams
    ) -> str:
        """Content key of one ``(scenario, params)`` simulation."""
        payload = {
            "v": cls.VERSION,
            # asdict recurses into the nested sim/radio/mobility configs,
            # so any config change reshapes the key.
            "scenario": asdict(scenario),
            "params": [float(v) for v in params.as_array()],
        }
        return hashlib.sha1(
            _canonical_json(payload).encode("utf-8")
        ).hexdigest()

    # ------------------------------------------------------------------ #
    def get_metrics(
        self, scenario: NetworkScenario, params: AEDBParams
    ) -> BroadcastMetrics | None:
        """The stored metrics, or ``None`` on a miss (both counted)."""
        key = self.simulation_key(scenario, params)
        with self._lock:
            metrics = self._entries.get(key)
            if metrics is not None:
                self.hits += 1
            else:
                self.misses += 1
        # Telemetry outside the lock: recorders may do I/O.
        get_recorder().count(
            "eval_cache.hit" if metrics is not None else "eval_cache.miss"
        )
        return metrics

    def put_metrics(
        self,
        scenario: NetworkScenario,
        params: AEDBParams,
        metrics: BroadcastMetrics,
    ) -> None:
        """Record one simulation result (appended to disk immediately)."""
        key = self.simulation_key(scenario, params)
        line = _canonical_json({
            "key": key,
            "metrics": {
                "coverage": metrics.coverage,
                "energy_dbm": metrics.energy_dbm,
                "forwardings": metrics.forwardings,
                "broadcast_time_s": metrics.broadcast_time_s,
                "n_nodes": metrics.n_nodes,
            },
            "v": self.VERSION,
        })
        with self._lock:
            if key in self._entries:
                return  # already on disk; keep the file append-only
            self._entries[key] = metrics
            if self._writer is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                ensure_line_boundary(self.path)
                self._writer = self.path.open("a", encoding="utf-8")
            self._writer.write(line + "\n")
            self._writer.flush()
        get_recorder().count("eval_cache.fill")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters snapshot: entries, disk size, session hits/misses."""
        with self._lock:
            entries = len(self._entries)
            hits, misses = self.hits, self.misses
        try:
            disk_bytes = self.path.stat().st_size
        except FileNotFoundError:
            disk_bytes = 0
        return {
            "path": str(self.path),
            "entries": entries,
            "disk_bytes": disk_bytes,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        }

    def close(self) -> None:
        """Release the append handle (idempotent; entries stay loaded)."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def flush(self) -> int:
        """Delete the sidecar and every in-memory entry; return the count.

        The maintenance operation behind ``repro-aedb cache flush`` —
        use it when simulator semantics changed underneath recorded
        results (the version field guards *format* changes, not physics
        fixes).
        """
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            self.path.unlink(missing_ok=True)
        return removed

    def __enter__(self) -> "PersistentEvaluationCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
