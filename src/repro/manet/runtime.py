"""Per-scenario runtime cache: the parameter-independent simulation substrate.

Every :class:`~repro.manet.simulator.BroadcastSimulator` run replays the
same scenario material before the protocol under test does anything
distinctive: ~40 beacon rounds of O(n²) pairwise distances and ``log10``
path loss, mobility snapshots, and the propagation model.  None of that
depends on :class:`~repro.manet.aedb.AEDBParams` — beacons are always
sent at the default power on the fixed 1 Hz grid, and the mobility trace
is frozen by the scenario seed — so across the thousands of evaluations
of a local search or campaign sweep the identical matrices are recomputed
thousands of times.

:class:`ScenarioRuntime` precomputes that substrate once per
``(scenario, mobility)`` pair:

* the full :class:`~repro.manet.beacons.NeighborTables` state
  (``rx_power`` / ``last_seen``) *after every beacon tick* of the
  canonical schedule, warm-up included — a table-backed simulator
  restores snapshots in O(1) instead of recomputing the round;
* position snapshots memoised on the exact query-time grid (beacon ticks
  always hit; the deterministic early frame midpoints hit across
  evaluations);
* the scenario's path-loss model, shared by beacons and medium;
* the raw uniform stream of the default protocol RNG, replayed
  bit-identically by :class:`UniformStream` (one double per
  ``uniform`` call, whatever the bounds — so the stream itself is
  parameter-independent).

Snapshot arrays are handed out **read-only** so one runtime can be shared
by any number of simulators (and threads) without cross-evaluation
contamination; an accidental write raises instead of corrupting a
neighbouring run.

The cache invariant (DESIGN.md §8): consuming a runtime must leave every
``BroadcastMetrics`` bit-identical to the recompute path, because the
snapshots are produced by literally the same update sequence
:meth:`NeighborTables.beacon_round` would execute.  The build is one
pass of that method over the canonical grid: after each round the
tables' own arrays are frozen and kept as the tick's snapshot, and the
next round's copy-on-write gives it fresh ones to write, so a fresh
network pays one copy of the table state per round and nothing else
beyond the round itself.

:func:`get_runtime` is the per-process bounded-LRU entry point (the same
discipline as the mobility memo in :mod:`repro.manet.scenarios`):
evaluators and campaign workers ask for a scenario's runtime and hit the
cache for every evaluation after the first.  Opt out with
:func:`set_runtime_memoisation`, which makes :func:`get_runtime` return
``None`` and callers fall back to the recompute path.

Usage — ask for the shared runtime and hand it to a simulator::

    from repro.manet import get_runtime, make_scenarios
    from repro.manet.simulator import BroadcastSimulator

    scenario = make_scenarios(300, n_networks=1)[0]
    sim = BroadcastSimulator(scenario, params,
                             runtime=get_runtime(scenario))

Every caller goes through this one memo: the serial evaluator, the
inline campaign backend, and each campaign pool worker, which builds
the runtimes of the cells it simulates (DESIGN.md §10).  Metrics from
a runtime-backed run are bit-identical to the recompute path
(``runtime=None``) for every ``(scenario, params, seed)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.manet.beacons import NeighborTables
from repro.manet.config import SimulationConfig
from repro.manet.mobility import MobilityModel
from repro.manet.propagation import build_path_loss
from repro.manet.scenarios import NetworkScenario
from repro.telemetry import get_recorder
from repro.utils.units import DBM_MINUS_INF

__all__ = [
    "ScenarioRuntime",
    "UniformStream",
    "beacon_grid",
    "resolve_mobility",
    "run_beacon_schedule",
    "get_runtime",
    "runtime_memoisation_enabled",
    "set_runtime_memoisation",
    "clear_runtime_cache",
    "runtime_cache_size",
]


def resolve_mobility(scenario, mobility, runtime):
    """Validate a simulator's ``(scenario, mobility, runtime)`` triple.

    Returns the mobility trace to use: the runtime's when one is given
    (after checking it was precomputed for this scenario and does not
    conflict with an explicitly passed trace), else the explicit trace
    or the scenario's own.  Shared by both simulator front-ends so their
    validation can never drift apart.
    """
    if runtime is not None:
        # Identity first: evaluators hand over the very scenario the
        # runtime was built from, and the value comparison walks every
        # nested config.
        if runtime.scenario is not scenario and runtime.scenario != scenario:
            raise ValueError(
                "runtime was precomputed for a different scenario"
            )
        if mobility is not None and mobility is not runtime.mobility:
            raise ValueError(
                "explicit mobility conflicts with the runtime's trace"
            )
        mobility = runtime.mobility
    else:
        mobility = mobility or scenario.build_mobility()
    if mobility.n_nodes != scenario.n_nodes:
        raise ValueError(
            "mobility model size does not match scenario "
            f"({mobility.n_nodes} != {scenario.n_nodes})"
        )
    return mobility


def run_beacon_schedule(sim, runtime, tables, queue) -> None:
    """Execute the canonical beacon schedule of one run.

    Warm-up rounds run directly (beacons never contend with data frames,
    DESIGN.md §7); broadcast-window rounds are scheduled on the event
    queue *before* any protocol event so stable tie-breaking fires them
    first at equal timestamps.  Shared by both simulator front-ends —
    the grid this executes is exactly the one a runtime precomputed.
    """
    if runtime is not None:
        warm, window = runtime.warm_times, runtime.window_times
    else:
        warm, window = beacon_grid(sim)
    for t in warm:
        tables.beacon_round(t)
    for t in window:
        queue.post(t, tables.beacon_round)


class UniformStream:
    """Replay of a Generator's uniform stream from precomputed doubles.

    ``np.random.Generator.uniform(low, high)`` consumes exactly one raw
    standard double ``u`` per call and returns ``low + (high - low) * u``
    (numpy's ``random_uniform``), *whatever* the bounds are — so the raw
    stream underneath a protocol RNG is parameter-independent and can be
    precomputed once per scenario.  This class replays it with the exact
    same arithmetic, making every draw bit-identical to the live
    generator's while skipping both the per-run ``default_rng``
    construction and the per-draw Generator overhead.

    Each simulator gets its own stream object (own cursor) over the
    shared read-only doubles, so concurrent evaluations cannot disturb
    each other.  Exhausting the stream raises ``IndexError`` — callers
    size it to a proven upper bound on draws.
    """

    __slots__ = ("_doubles", "_i")

    def __init__(self, doubles: list[float]):
        self._doubles = doubles
        self._i = 0

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Next draw, identical to ``Generator.uniform(low, high)``."""
        i = self._i
        self._i = i + 1
        return low + (high - low) * self._doubles[i]


def beacon_grid(sim: SimulationConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The canonical beacon schedule of one run: ``(warm, window)`` times.

    Warm-up rounds sit on the absolute ``k * interval`` grid, starting at
    the first tick that can still influence a neighbour query at
    broadcast time (entries older than ``neighbor_expiry_s`` are dead)
    and ending strictly before ``warmup_s``; in-window rounds continue at
    ``warmup_s + j * interval`` up to the horizon.  Every time is indexed
    from integers — never accumulated with ``t += interval`` — so long
    horizons and non-representable intervals cannot drift off the grid,
    and a precomputed runtime grid and the live schedule agree exactly.
    """
    interval = sim.beacon_interval_s
    first_relevant = max(
        0.0, sim.warmup_s - sim.neighbor_expiry_s - interval
    )
    first_tick = int(np.ceil(first_relevant / interval))
    warm_end = sim.warmup_s - 1e-9
    warm: list[float] = []
    k = first_tick
    while True:
        t = k * interval
        if t > warm_end + 1e-12:
            break
        warm.append(t)
        k += 1
    window: list[float] = []
    j = 0
    while True:
        t = sim.warmup_s + j * interval
        if t > sim.horizon_s:
            break
        window.append(t)
        j += 1
    return tuple(warm), tuple(window)


class ScenarioRuntime:
    """Precomputed parameter-independent substrate of one scenario.

    Built once per ``(scenario, mobility)`` pair; consumed by any number
    of :class:`~repro.manet.simulator.BroadcastSimulator` runs with
    different protocols or parameters.  All exposed arrays are read-only.
    """

    def __init__(
        self,
        scenario: NetworkScenario,
        mobility: MobilityModel | None = None,
        position_memo_entries: int = 256,
    ):
        if position_memo_entries <= 0:
            raise ValueError(
                f"position_memo_entries must be positive, got {position_memo_entries}"
            )
        self.scenario = scenario
        self.sim: SimulationConfig = scenario.sim
        self.mobility = mobility or scenario.build_mobility()
        if self.mobility.n_nodes != scenario.n_nodes:
            raise ValueError(
                "mobility model size does not match scenario "
                f"({self.mobility.n_nodes} != {scenario.n_nodes})"
            )
        #: Propagation model shared by beacon precompute, tables and medium.
        self.path_loss = build_path_loss(self.sim.radio)
        self._position_memo: OrderedDict[float, np.ndarray] = OrderedDict()
        self._position_memo_entries = int(position_memo_entries)
        self._position_lock = threading.Lock()
        #: Canonical beacon schedule (warm-up / broadcast-window times).
        self.warm_times, self.window_times = beacon_grid(self.sim)
        self.beacon_times = self.warm_times + self.window_times
        self._snapshots: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        #: Pristine pre-beacon table state, shared read-only by every
        #: consumer (tables copy-on-write before any incremental update).
        n = scenario.n_nodes
        rx0 = np.full((n, n), DBM_MINUS_INF)
        seen0 = np.full((n, n), -np.inf)
        rx0.setflags(write=False)
        seen0.setflags(write=False)
        self.initial_tables = (rx0, seen0)
        # Substrate-build span (DESIGN.md §12).
        with get_recorder().span(
            "runtime.build", n_nodes=scenario.n_nodes
        ):
            self._precompute_tables()
        # Raw uniform stream of the scenario's default protocol RNG.
        # The AEDB state machine draws at most 2 doubles per node (one
        # forwarding delay, one MAC jitter, each at most once — a node
        # leaves IDLE on its first copy and forwards at most once).
        default_seed = (scenario.mobility_seed ^ 0x5EDB) & 0xFFFFFFFF
        self._protocol_doubles: list[float] = np.random.default_rng(
            default_seed
        ).random(2 * scenario.n_nodes).tolist()

    # ------------------------------------------------------------------ #
    # beacon-table timeline                                              #
    # ------------------------------------------------------------------ #
    def _precompute_tables(self) -> None:
        """Replay the canonical schedule once; store the cumulative state.

        The rounds are driven through a real
        :class:`~repro.manet.beacons.NeighborTables` (no snapshots exist
        yet, so every round takes its incremental path), which makes the
        bit-identity invariant true by construction: whatever
        ``beacon_round`` computes is exactly what the snapshots hold.
        Each snapshot *is* the tables' own pair of arrays, frozen: the
        next round finds them read-only and copies before it writes, so
        a round costs one copy of the state, not two.
        """
        n = self.scenario.n_nodes
        tables = NeighborTables(n, self.sim, self.mobility, runtime=self)
        for t in self.beacon_times:
            tables.beacon_round(t)
            tables.rx_power.setflags(write=False)
            tables.last_seen.setflags(write=False)
            self._snapshots[t] = (tables.rx_power, tables.last_seen)

    def table_snapshot(
        self, time_s: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Neighbour-table state *after* the beacon round at ``time_s``.

        Returns read-only ``(rx_power, last_seen)`` matrices, or ``None``
        when ``time_s`` is not a tick of the canonical grid (callers then
        recompute incrementally).
        """
        return self._snapshots.get(time_s)

    @property
    def n_beacon_rounds(self) -> int:
        """Number of precomputed beacon rounds."""
        return len(self.beacon_times)

    def protocol_uniform_stream(self) -> UniformStream:
        """A fresh replay of the default protocol RNG's uniform stream.

        Valid only for the scenario's *default* protocol seed; callers
        supplying an explicit ``protocol_seed`` must build a real
        generator instead.
        """
        return UniformStream(self._protocol_doubles)

    @property
    def protocol_doubles(self) -> list[float]:
        """The raw precomputed uniform stream (read it, don't mutate it).

        Exposed so the compiled event core can take the stream as an
        array input.
        """
        return self._protocol_doubles

    # ------------------------------------------------------------------ #
    # position snapshots                                                 #
    # ------------------------------------------------------------------ #
    def positions_at(self, time_s: float) -> np.ndarray:
        """Read-only ``(n, 2)`` positions at ``time_s``, memoised.

        Keyed on the *exact* float, so the memo can never change a value
        — it only skips recomputing the trace for query times that recur
        (every beacon tick during precompute; the deterministic early
        frame midpoints across same-scenario evaluations).  Bounded LRU.
        """
        with self._position_lock:
            cached = self._position_memo.get(time_s)
            if cached is not None:
                self._position_memo.move_to_end(time_s)
                return cached
        positions = np.array(self.mobility.positions_at(time_s), dtype=float)
        positions.setflags(write=False)
        with self._position_lock:
            existing = self._position_memo.get(time_s)
            if existing is not None:
                return existing
            if len(self._position_memo) >= self._position_memo_entries:
                self._position_memo.popitem(last=False)
            self._position_memo[time_s] = positions
        return positions

    # ------------------------------------------------------------------ #
    def nbytes(self) -> int:
        """Approximate memory addressed by the precomputed snapshots."""
        total = sum(
            rx.nbytes + seen.nbytes for rx, seen in self._snapshots.values()
        )
        with self._position_lock:
            total += sum(p.nbytes for p in self._position_memo.values())
        return total


# --------------------------------------------------------------------- #
# Per-process runtime memoisation (same discipline as the mobility memo
# in scenarios.py: bounded LRU, thread-safe lookups, raced duplicate
# builds accepted because construction is deterministic).  The cap is
# smaller than the mobility memo's because one runtime holds the full
# per-tick table timeline (~1.3 MB at 75 nodes).
# --------------------------------------------------------------------- #
#: LRU of ``(scenario, runtime)`` pairs keyed by ``id(scenario)``: a
#: repeat lookup with the same scenario object (an evaluator's fixed
#: network set) never hashes or compares its nested config.  The entry
#: holds the scenario, so its id cannot be reused while it is cached.
_RUNTIME_MEMO: OrderedDict[int, tuple[NetworkScenario, ScenarioRuntime]] = (
    OrderedDict()
)
#: Value index over the same entries: finds the runtime of an equal
#: scenario built elsewhere (another campaign cell's ``make_scenarios``).
_BY_VALUE: dict[NetworkScenario, int] = {}
_MEMO_MAX_ENTRIES = 32
_MEMO_LOCK = threading.Lock()
_MEMO_ENABLED = True


def get_runtime(scenario: NetworkScenario) -> ScenarioRuntime | None:
    """The shared per-process runtime for ``scenario`` (LRU-memoised).

    Returns ``None`` when runtime memoisation is disabled — callers pass
    that straight to the simulator, which then recomputes the substrate
    exactly as before the cache existed.

    A lookup by the scenario object last used for a runtime is an
    identity hit.  An equal but distinct scenario hits by value once,
    and its entry is re-keyed to that object (and becomes the runtime's
    ``scenario``, so the simulator's identity check passes too): its
    next lookups hit by identity.
    """
    if not _MEMO_ENABLED:
        return None
    with _MEMO_LOCK:
        entry = _RUNTIME_MEMO.get(id(scenario))
        if entry is not None:
            _RUNTIME_MEMO.move_to_end(id(scenario))
            return entry[1]
        cached = _rekey_equal(scenario)
        if cached is not None:
            return cached
    runtime = ScenarioRuntime(scenario)
    with _MEMO_LOCK:
        existing = _rekey_equal(scenario)
        if existing is not None:
            return existing
        if len(_RUNTIME_MEMO) >= _MEMO_MAX_ENTRIES:
            _, (evicted, _) = _RUNTIME_MEMO.popitem(last=False)
            del _BY_VALUE[evicted]
        _RUNTIME_MEMO[id(scenario)] = (scenario, runtime)
        _BY_VALUE[scenario] = id(scenario)
        return runtime


def _rekey_equal(scenario: NetworkScenario) -> ScenarioRuntime | None:
    """The cached runtime of a scenario equal to ``scenario``, re-keyed
    to ``scenario`` and moved to the recent end (caller holds the lock)."""
    key = _BY_VALUE.pop(scenario, None)
    if key is None:
        return None
    _, runtime = _RUNTIME_MEMO.pop(key)
    runtime.scenario = scenario
    _RUNTIME_MEMO[id(scenario)] = (scenario, runtime)
    _BY_VALUE[scenario] = id(scenario)
    return runtime


def runtime_memoisation_enabled() -> bool:
    """Whether cached runtimes may be served at all.

    ``set_runtime_memoisation(False)`` promises the recompute path
    everywhere; :mod:`repro.manet.shared` checks this so a prepared
    runtime cannot silently undo the ablation.
    """
    return _MEMO_ENABLED


def set_runtime_memoisation(enabled: bool) -> None:
    """Turn runtime memoisation on or off (off also drops cached runtimes)."""
    global _MEMO_ENABLED
    _MEMO_ENABLED = bool(enabled)
    if not _MEMO_ENABLED:
        clear_runtime_cache()


def clear_runtime_cache() -> None:
    """Drop every memoised scenario runtime in this process."""
    with _MEMO_LOCK:
        _RUNTIME_MEMO.clear()
        _BY_VALUE.clear()


def runtime_cache_size() -> int:
    """Number of runtimes currently memoised."""
    with _MEMO_LOCK:
        return len(_RUNTIME_MEMO)
