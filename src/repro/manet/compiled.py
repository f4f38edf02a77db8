"""Compiled event-core selection, marshalling, and writeback.

This module is the Python half of ``repro.manet._evcore`` (DESIGN.md
§14).  It decides whether the compiled core may run (the fallback
ladder) and hands one :class:`~repro.manet.simulator.BroadcastSimulator`
run to the kernel as typed arrays built from the scenario runtime, the
AEDB parameters and the radio config — the compiled path constructs no
neighbour tables, medium, protocol or queue.  The kernel executes the
whole broadcast window and returns a :class:`KernelRun`: the metrics
are read straight from it.  :func:`apply_writeback` turns a run into
the live objects' end state, byte for byte what the pure-Python
reference would have left, for the callers that read them (decision
logs, post-run introspection, the differential suites).

Selection (``REPRO_COMPILED``, read once per evaluator or campaign
executor, which pass it on as the simulator's ``compiled=`` argument):

* ``auto`` (default) — use the compiled core when the extension imports,
  its arithmetic self-check passes, and the run shape is supported;
  otherwise fall back silently (``sim.compiled_reason`` says why).
* ``on`` — require the extension: raise at simulator construction if it
  cannot be imported or fails the self-check.  Unsupported run shapes
  still fall back (the pure path is the reference; ``on`` asserts the
  *toolchain*, not the workload).
* ``off`` — pure Python everywhere (the reference path).

The fallback ladder, in order: extension import → ``probe_ops``
self-check (sqrt / FMA-contraction canary / floored-mod replica vs
numpy, and numpy's own ``log10`` / ``power`` strided loops, fetched
once per process, run the kernel's way vs the ufuncs) → per-run
preconditions (runtime attached, replay RNG stream, log-distance path
loss, a mobility model that describes its trace through
``kernel_trace`` — every built-in model does — and in-window beacon
ticks; all but the first two are decided once per runtime).  Every
rung lands on the pure path with a human-readable reason.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.manet.propagation import LogDistancePathLoss
from repro.manet.runtime import UniformStream
from repro.utils import flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.manet.simulator import BroadcastSimulator

__all__ = [
    "KernelRun",
    "apply_writeback",
    "compiled_core_available",
    "compiled_core_reason",
    "execute_compiled_run",
    "precondition_blocker",
    "resolve_compiled_mode",
]

#: Lazily-resolved (extension module | None, reason | None).
_STATE: tuple[object, str | None] | None = None

#: numpy's float64 ``log10`` and ``power(10.0, x)`` inner loops as NEP 43
#: call-info capsules, handed to every ``run_window`` call; set with a
#: usable ``_STATE`` and held for the life of the process (a capsule owns
#: its loop's context).
_LOOPS: tuple[object, ...] = ()

#: Loop lengths the self-check probes: up to twice the paper's 75-node
#: networks, past every SIMD remainder and unroll width, so no tail the
#: kernel hits goes unchecked.
_LOOP_PROBE_LENGTHS = range(1, 151)

_MODES = ("auto", "on", "off")


def resolve_compiled_mode(override: str | None = None) -> str:
    """The effective compiled-core mode: ``auto`` | ``on`` | ``off``.

    ``override`` is the simulator's ``compiled=`` argument: ``None``
    defers to ``REPRO_COMPILED`` (default ``auto``); a string names a
    mode directly.  Anything else raises ``ValueError``.
    """
    if override in _MODES:  # a mode captured once upstream
        return override
    if override is None:
        return flags.read_choice("REPRO_COMPILED", _MODES)
    mode = override.strip().lower() if isinstance(override, str) else override
    if mode not in _MODES:
        raise ValueError(
            f"REPRO_COMPILED/compiled= must be one of {'|'.join(_MODES)}, "
            f"got {override!r}"
        )
    return mode


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()


def _numpy_loops() -> tuple[object, ...] | None:
    """numpy's own float64 ``log10`` and ``power(10.0, x)`` strided loops,
    as the NEP 43 call-info capsules the kernel calls through.

    The strides are fixed to the kernel's calls: in place on a
    contiguous buffer for ``log10`` (8, 8), a stride-0 scalar base for
    ``power`` (0, 8, 8).  None when this numpy cannot hand them out
    (no ``ufunc._resolve_dtypes_and_context`` / ``_get_strided_loop``,
    or a signature they no longer take).
    """
    f8 = np.dtype(np.float64)
    loops = []
    for ufunc, strides in ((np.log10, (8, 8)), (np.power, (0, 8, 8))):
        try:
            _, call_info = ufunc._resolve_dtypes_and_context(
                (f8,) * (len(strides) - 1) + (None,)
            )
            ufunc._get_strided_loop(call_info, fixed_strides=strides)
        except (AttributeError, TypeError, ValueError):
            return None
        loops.append(call_info)
    return tuple(loops)


def _self_check(ext, loops) -> str | None:
    """Verify the extension's native arithmetic and numpy loops against
    numpy, bitwise.

    The kernel's identity argument (DESIGN.md §14) rests on C sqrt and
    the IEEE basics matching numpy exactly, on the compiler not having
    contracted ``a*a + b*b`` into an FMA, on the floored-mod replica
    of ``np.mod`` used by the mobility fold, and on the direct ``log10``
    / ``power(10.0, ·)`` loop calls giving what the ufuncs give over a
    whole matrix, at every length the kernel calls them with.  A host
    where any of these fails (exotic libm, forced -ffast-math, FMA
    contraction, a loop that depends on its position) must land on the
    pure path, not produce subtly different metrics.
    """
    rng = np.random.default_rng(0x5EDB)
    a = rng.uniform(0.5, 1200.0, 257)
    b = rng.uniform(0.5, 1200.0, 257)
    out = np.empty(257)
    ext.probe_ops(0, a, b, out)
    if not _bits_equal(out, np.sqrt(a)):
        return "self-check failed: sqrt differs from numpy"
    ext.probe_ops(1, a, b, out)
    if not _bits_equal(out, np.add(np.multiply(a, a), np.multiply(b, b))):
        return "self-check failed: FMA-contraction canary tripped"
    signed = a - 600.0  # negatives exercise the floored-mod adjustment
    period = np.full(257, 713.0)
    ext.probe_ops(2, signed, period, out)
    if not _bits_equal(out, np.mod(signed, period)):
        return "self-check failed: floored mod differs from np.mod"
    if loops is None:
        return (
            "numpy's strided loops are unavailable "
            "(ufunc._resolve_dtypes_and_context / _get_strided_loop)"
        )
    n = _LOOP_PROBE_LENGTHS[-1]
    ratios = rng.uniform(1.0, 3000.0, n)
    ratios[:2] = 1.0, 3000.0  # the clamped ratio and the range's end
    exponents = rng.uniform(-20.0, 3.0, n)
    exponents[:2] = -20.0, 3.0
    for op, name, x, reference in (
        (3, "log10", ratios, np.log10(ratios)),
        (4, "power", exponents, np.power(10.0, exponents)),
    ):
        for m in _LOOP_PROBE_LENGTHS:
            got = np.empty(m)
            ext.probe_ops(op, x, x, got, loops[op - 3])
            if not _bits_equal(got, reference[:m]):
                return f"self-check failed: numpy's {name} loop differs from np.{name}"
    return None


def _resolve_extension() -> tuple[object, str | None]:
    global _STATE, _LOOPS
    if _STATE is None:
        try:
            from repro.manet import _evcore
        except ImportError as exc:
            _STATE = (None, f"extension not built ({exc})")
        else:
            loops = _numpy_loops()
            reason = _self_check(_evcore, loops)
            if reason:
                _STATE = (None, reason)
            else:
                _STATE, _LOOPS = (_evcore, None), loops
    return _STATE


def compiled_core_available() -> bool:
    """True when the extension imports and passes its self-check."""
    return _resolve_extension()[0] is not None


def compiled_core_reason() -> str | None:
    """Why the compiled core is unavailable (None when it is usable)."""
    return _resolve_extension()[1]


@functools.cache  # keyed by class: a handful of entries per process
def _describes_itself(cls) -> bool:
    """True when ``cls`` takes ``kernel_trace`` from the class that
    defines its ``positions_at``: a subclass that re-defines the motion
    but inherits the description stays on the pure path."""
    owner = [
        next(c for c in cls.__mro__ if name in vars(c))
        for name in ("kernel_trace", "positions_at")
    ]
    return owner[0] is owner[1]


def precondition_blocker(sim: "BroadcastSimulator") -> str | None:
    """First unsupported-run-shape reason, or None if the kernel applies.

    The kernel covers exactly the warm evaluation path the campaign and
    tuning layers run: a :class:`ScenarioRuntime` substrate, the replay
    RNG stream, the log-distance model, and a mobility model that
    describes its trace.  Anything else is the pure path's job.  Only
    the runtime and the simulator's inputs are read: no live simulator
    object exists yet on the compiled path.  The RNG clause is the
    simulator's own; the rest depends on the runtime alone and is
    decided once per runtime (:func:`_runtime_pack`).
    """
    if sim.runtime is None:
        return "no ScenarioRuntime attached"
    if type(sim._protocol_rng) is not UniformStream:
        return "protocol rng is not the runtime's replay stream"
    return _runtime_pack(sim.runtime)["blocker"]


# --------------------------------------------------------------------- #
# marshalling                                                           #
# --------------------------------------------------------------------- #

# fparams/iparams slot order — must match the enums in _evcore.c.
_N_FPARAMS = 21
_N_IPARAMS = 8
#: The five AEDB-parameter slots (FP_BORDER .. FP_MARGIN).
_FP_AEDB = slice(11, 16)
#: The simulator's own iparams slots.
_IP_RECORD = 3
_IP_RNG_OFFSET = 7

# counts slots (the kernel's CN_* enum).
_CN_FIRED, _CN_FRAMES, _CN_RESOLVED, _CN_DRAWS, _CN_DECISIONS = range(5)
_N_COUNTS = 5

#: Decision-kind codes emitted by the kernel, formatted here with the
#: exact strings :class:`~repro.manet.aedb.AEDBProtocol` logs.
_DECISION_SOURCE = 0
_DECISION_DROP_FIRST = 1
_DECISION_ARM = 2
_DECISION_DROP_TIMER = 3
_DECISION_FORWARD = 4


class KernelRun(NamedTuple):
    """What one ``run_window`` call leaves: the broadcast window's end
    state as the kernel's fresh output arrays, and the energy sum.

    Metrics read it directly; :func:`apply_writeback` turns it into
    live-object state only when someone asks for that.
    """

    first_rx: np.ndarray        # (n,) first-reception times, NaN = never
    strongest: np.ndarray       # (n,) strongest copy heard, dBm
    state_code: np.ndarray      # (n,) int8, NodePhase order
    heard: np.ndarray           # (n, n) bool heard-from matrix
    frame_out: np.ndarray       # (4, n) sender / power / start / liveness
    timer_deadline: np.ndarray  # (n,) armed-timer deadlines
    decisions_out: np.ndarray   # (2n+1, 4) time / node / kind / value
    counts: np.ndarray          # fired, frames, resolved, draws, decisions
    energy: float               # sum of TX powers, raw dBm

    @property
    def events_fired(self) -> int:
        return int(self.counts[_CN_FIRED])

    @property
    def frames_transmitted(self) -> int:
        return int(self.counts[_CN_FRAMES])

    @property
    def frames_resolved(self) -> int:
        return int(self.counts[_CN_RESOLVED])


def _runtime_pack(runtime) -> dict:
    """Per-runtime constants, built once and cached on the runtime.

    Everything here depends on the scenario alone.  ``blocker`` is the
    runtime's half of :func:`precondition_blocker` (path-loss type,
    mobility self-description, in-window beacon ticks); only when it is
    None does the pack hold the marshalling constants: the
    ``fparams``/``iparams`` templates (every slot but the simulator's
    own: the five AEDB parameters, the decision-log switch and the RNG
    cursor), ``inputs`` (every ``run_window`` argument between those
    vectors and numpy's loops, as one tuple: the raw uniform stream,
    the last warm-up table snapshot the window opens on, the window tick
    times and snapshot tuples, and the mobility model's
    :class:`~repro.manet.mobility.KernelTrace` arrays), and the
    fresh-output templates.  numpy's ``log10``/``power`` loop capsules
    are per process, not per runtime (:data:`_LOOPS`), and the kernel
    keeps its own scratch for them.
    Reusing them across runs keeps the per-evaluation marshalling cost
    to a handful of small array copies.
    """
    pack = getattr(runtime, "_evcore_pack", None)
    if pack is None:
        pack = _build_runtime_pack(runtime)
        runtime._evcore_pack = pack
    return pack


def _build_runtime_pack(runtime) -> dict:
    mobility = runtime.mobility
    # ``type is`` (not isinstance): a subclass overriding loss_db must
    # not be silently bypassed.
    if type(runtime.path_loss) is not LogDistancePathLoss:
        return {"blocker": "path-loss model is not plain log-distance"}
    trace = (
        mobility.kernel_trace() if _describes_itself(type(mobility)) else None
    )
    if trace is None:
        return {"blocker": f"unsupported mobility model {type(mobility).__name__}"}
    if not runtime.window_times:
        return {"blocker": "runtime has no in-window beacon ticks"}

    scenario = runtime.scenario
    n = scenario.n_nodes
    sim = runtime.sim
    radio = sim.radio
    loss = runtime.path_loss
    snaps = [runtime.table_snapshot(t) for t in runtime.window_times]
    warm = runtime.warm_times
    fparams = np.array(
        (
            sim.warmup_s,
            sim.horizon_s,
            float(radio.frame_airtime_s),
            float(radio.detection_threshold_dbm),
            10.0 ** (radio.capture_threshold_db / 10.0),
            float(radio.min_tx_power_dbm),
            float(radio.default_tx_power_dbm),
            float(radio.default_tx_power_dbm),
            float(loss.reference_distance_m),
            float(loss.reference_loss_db),
            10.0 * loss.exponent,
        )
        + (np.nan,) * 5  # _FP_AEDB: written per simulation
        + (
            float(radio.detection_threshold_dbm),
            float(sim.mac_jitter_s),
            float(sim.neighbor_expiry_s),
            trace.step_s,
            float(mobility.area_side_m),
        ),
        dtype=np.float64,
    )
    assert fparams.size == _N_FPARAMS
    iparams = np.array(
        [
            n,
            scenario.source,
            len(runtime.window_times),
            0,  # _IP_RECORD
            trace.mode,
            trace.width,
            1 if trace.fold_one else 0,
            0,  # _IP_RNG_OFFSET
        ],
        dtype=np.int64,
    )
    assert iparams.size == _N_IPARAMS
    fparams.setflags(write=False)  # templates: each run writes a copy
    iparams.setflags(write=False)
    start_rx, start_seen = (
        runtime.table_snapshot(warm[-1]) if warm else runtime.initial_tables
    )
    return {
        "blocker": None,
        "fparams": fparams,
        "iparams": iparams,
        # In ``run_window`` argument order.
        "inputs": (
            np.asarray(runtime.protocol_doubles, dtype=np.float64),
            start_rx,
            start_seen,
            np.asarray(runtime.window_times, dtype=np.float64),
            tuple(s[0] for s in snaps),
            tuple(s[1] for s in snaps),
            trace.arrays,
        ),
        # Templates of the fresh per-run output vectors (a copy is
        # cheaper than a fill).
        "nan_n": np.full(n, np.nan),
        "neg_inf_n": np.full(n, -np.inf),
    }


def execute_compiled_run(sim: "BroadcastSimulator") -> KernelRun:
    """Run one simulator's broadcast window through the kernel.

    Preconditions (:func:`precondition_blocker`) must already hold.  The
    inputs come from the runtime, the parameters and the radio config —
    no live simulator object is read or built — and the window opens on
    the last warm-up snapshot, exactly where the warm beacon rounds
    would leave the tables.  Advances the protocol RNG cursor by the
    kernel's draw count and returns the :class:`KernelRun`.
    """
    ext = _resolve_extension()[0]
    assert ext is not None, "execute_compiled_run without a usable extension"

    pack = _runtime_pack(sim.runtime)
    params = sim.params
    rng = sim._protocol_rng
    n = sim.scenario.n_nodes

    # Per simulation only the AEDB parameters, the decision-log switch
    # and the RNG cursor differ from the runtime's templates.
    delay_lo, delay_hi = params.delay_interval
    fparams = pack["fparams"].copy()
    fparams[_FP_AEDB] = (
        params.border_threshold_dbm,
        delay_lo,
        delay_hi,
        params.neighbors_threshold,
        params.margin_threshold_db,
    )
    iparams = pack["iparams"].copy()
    iparams[_IP_RECORD] = sim._record_decisions
    iparams[_IP_RNG_OFFSET] = rng._i

    # Fresh protocol state: the simulator is single-use, so every node
    # is IDLE (0), unreached (NaN) and has heard nothing when the
    # window opens.  Fresh arrays, not per-runtime buffers: the
    # returned KernelRun must survive later runs on the same runtime
    # for a deferred writeback.
    nan_n = pack["nan_n"]
    counts = np.zeros(_N_COUNTS, dtype=np.int64)
    outputs = (
        nan_n.copy(),                  # first_rx
        pack["neg_inf_n"].copy(),      # strongest
        np.zeros(n, dtype=np.int8),    # state_code
        np.zeros((n, n), dtype=bool),  # heard
        np.empty((4, n)),              # frame_out
        nan_n.copy(),                  # timer_deadline
        np.empty((2 * n + 1, 4)),      # decisions_out
        counts,
    )
    energy = ext.run_window(
        fparams, iparams, *pack["inputs"], *_LOOPS, *outputs
    )
    rng._i += int(counts[_CN_DRAWS])
    return KernelRun(*outputs, energy)


# --------------------------------------------------------------------- #
# writeback                                                             #
# --------------------------------------------------------------------- #

def apply_writeback(sim: "BroadcastSimulator", run: KernelRun) -> None:
    """Give a compiled simulator's freshly built live objects the exact
    end state a pure-Python ``run()`` leaves.

    Protocol arrays, node phases and decision log; frame history, the
    medium's active/recent lists and counters; the neighbour tables
    (the whole canonical schedule replayed as O(1) snapshot swaps); and
    the queue's clock, fired count and pending set.  The simulator calls
    it once, when its live objects are first read after ``run()`` (or at
    the end of ``run()`` if they were read before).
    """
    from repro.manet.broadcast import NodePhase
    from repro.manet.medium import Frame

    protocol = sim.protocol
    medium = sim.medium
    tables = sim.tables
    queue = sim.queue
    fired, n_frames, n_resolved, _, n_dec = run.counts.tolist()

    # -- protocol ----------------------------------------------------- #
    protocol.first_rx_time[:] = run.first_rx
    protocol.strongest_copy_dbm[:] = run.strongest
    protocol._heard_from[:] = run.heard
    phases = tuple(NodePhase)  # in kernel state-code order
    protocol.phase[:] = [phases[code] for code in run.state_code.tolist()]

    if protocol._record_decisions and n_dec:
        append = protocol.decisions.append
        for t, node_f, kind_f, value in run.decisions_out[:n_dec].tolist():
            kind = int(kind_f)
            if kind == _DECISION_ARM:
                label = f"arm:{value:.4f}"
            elif kind == _DECISION_FORWARD:
                label = f"forward:{value:.2f}dBm"
            elif kind == _DECISION_SOURCE:
                label = "source"
            elif kind == _DECISION_DROP_FIRST:
                label = "drop:border-first"
            else:
                label = "drop:border-timer"
            append((t, int(node_f), label))

    # -- medium ------------------------------------------------------- #
    airtime = medium._airtime_s
    frame_out = run.frame_out
    senders = frame_out[0, :n_frames].tolist()
    powers = frame_out[1, :n_frames].tolist()
    starts = frame_out[2, :n_frames].tolist()
    flags = frame_out[3, :n_frames].tolist()
    frames = [
        Frame(
            sender=int(senders[i]),
            tx_power_dbm=powers[i],
            start_s=starts[i],
            end_s=starts[i] + airtime,
            seq=i,
        )
        for i in range(n_frames)
    ]
    medium.history.extend(frames)
    medium._active = [f for f, flag in zip(frames, flags) if flag == 1.0]
    medium._recent = [f for f, flag in zip(frames, flags) if flag == 2.0]
    medium._seq = n_frames
    medium._n_frames = n_frames
    medium._n_resolved = n_resolved
    medium._energy_dbm = run.energy

    # -- neighbour tables --------------------------------------------- #
    # The kernel read the snapshots read-only; replaying the canonical
    # rounds through the live tables is O(1) snapshot swaps that land
    # rounds_run, the canonical-tick cursor, and the current-view arrays
    # exactly where the pure run leaves them.
    for t in sim.runtime.beacon_times:
        tables.beacon_round(t)

    # -- event queue --------------------------------------------------- #
    # Rebuild the pending set the pure run leaves behind: in-flight
    # frame resolutions and armed timers past the horizon.  (Timers are
    # re-armed through the real scheduler so cancellation handles work.)
    for f in medium._active:
        queue.post(f.end_s, lambda t, fr=f: medium._resolve(fr, t))
    timers = protocol._timers
    for node in np.flatnonzero(run.state_code == 1).tolist():
        timers[node] = queue.schedule(
            float(run.timer_deadline[node]),
            lambda t, nd=node: protocol._fire_timer(nd, t),
        )
    queue._fired = fired
    queue._now = sim._sim.horizon_s
