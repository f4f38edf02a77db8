"""Compiled event-core selection, marshalling, and writeback.

This module is the Python half of ``repro.manet._evcore`` (DESIGN.md
§14).  It decides whether the compiled core may run (the fallback
ladder), flattens one :class:`~repro.manet.simulator.BroadcastSimulator`
into the typed arrays the kernel consumes, and — after the kernel has
executed the whole broadcast window — writes the end-of-run state back
into the live simulator objects so that metrics collection, decision
logs, telemetry counters, and post-run introspection are byte-for-byte
what the pure-Python reference would have produced.

Selection (``REPRO_COMPILED``, overridable per simulator via the
``compiled=`` argument):

* ``auto`` (default) — use the compiled core when the extension imports,
  its arithmetic self-check passes, and the run shape is supported;
  otherwise fall back silently (``sim.compiled_reason`` says why).
* ``on`` — require the extension: raise at simulator construction if it
  cannot be imported or fails the self-check.  Unsupported run shapes
  still fall back (the pure path is the reference; ``on`` asserts the
  *toolchain*, not the workload).
* ``off`` — pure Python everywhere (the reference path).

The fallback ladder, in order: extension import → ``probe_ops``
arithmetic self-check (sqrt / FMA-contraction canary / floored-mod
replica vs numpy) → per-run preconditions (runtime attached, replay RNG
stream, log-distance path loss, a mobility model that describes its
trace through ``kernel_trace`` — every built-in model does).  Every rung
lands on the pure path with a human-readable reason.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from repro.utils import flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.manet.simulator import BroadcastSimulator

__all__ = [
    "compiled_core_available",
    "compiled_core_reason",
    "execute_compiled_run",
    "precondition_blocker",
    "resolve_compiled_mode",
]

#: Lazily-resolved (extension module | None, reason | None).
_STATE: tuple[object, str | None] | None = None

_MODES = ("auto", "on", "off")


def resolve_compiled_mode(override=None) -> str:
    """The effective compiled-core mode: ``auto`` | ``on`` | ``off``.

    ``override`` is the simulator's ``compiled=`` argument: ``None``
    defers to ``REPRO_COMPILED`` (default ``auto``); a bool maps to
    ``on``/``off``; a string names a mode directly.
    """
    if override is None:
        mode = (flags.read_raw("REPRO_COMPILED") or "auto").strip().lower() or "auto"
    elif isinstance(override, str):
        mode = override.strip().lower()
    else:
        mode = "on" if override else "off"
    if mode not in _MODES:
        raise ValueError(
            f"REPRO_COMPILED/compiled= must be one of {_MODES}, got {mode!r}"
        )
    return mode


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()


def _self_check(ext) -> str | None:
    """Verify the extension's native arithmetic against numpy, bitwise.

    The kernel's identity argument (DESIGN.md §14) rests on C sqrt and
    the IEEE basics matching numpy exactly, on the compiler not having
    contracted ``a*a + b*b`` into an FMA, and on the floored-mod replica
    of ``np.mod`` used by the mobility fold.  A host where any of these
    fails (exotic libm, forced -ffast-math, FMA contraction) must land
    on the pure path, not produce subtly different metrics.
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
    return None


def _resolve_extension() -> tuple[object, str | None]:
    global _STATE
    if _STATE is None:
        try:
            from repro.manet import _evcore
        except ImportError as exc:
            _STATE = (None, f"extension not built ({exc})")
        else:
            reason = _self_check(_evcore)
            _STATE = (None, reason) if reason else (_evcore, None)
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


def _kernel_trace(mobility):
    """The model's :class:`~repro.manet.mobility.KernelTrace`, or None."""
    if not _describes_itself(type(mobility)):
        return None
    return mobility.kernel_trace()


def precondition_blocker(sim: "BroadcastSimulator") -> str | None:
    """First unsupported-run-shape reason, or None if the kernel applies.

    The kernel covers exactly the warm evaluation path the campaign and
    tuning layers run: a :class:`ScenarioRuntime` substrate, the replay
    RNG stream, the log-distance model, and a mobility model that
    describes its trace.  Anything else is the pure path's job.
    """
    from repro.manet.runtime import UniformStream

    if sim.runtime is None:
        return "no ScenarioRuntime attached"
    if type(sim._protocol_rng) is not UniformStream:
        return "protocol rng is not the runtime's replay stream"
    if sim.medium._record_deliveries:
        return "per-frame delivery recording requested"
    if sim.medium._fast_log_distance is None:
        return "path-loss model is not plain log-distance"
    if _kernel_trace(sim._mobility) is None:
        return f"unsupported mobility model {type(sim._mobility).__name__}"
    if not sim.runtime.window_times:
        return "runtime has no in-window beacon ticks"
    return None


# --------------------------------------------------------------------- #
# marshalling                                                           #
# --------------------------------------------------------------------- #

# fparams/iparams slot order — must match the enums in _evcore.c.
_N_FPARAMS = 21
_N_IPARAMS = 8
_N_COUNTS = 5

#: Decision-kind codes emitted by the kernel, formatted here with the
#: exact f-strings of :class:`~repro.manet.aedb.AEDBProtocol`.
_DECISION_SOURCE = 0
_DECISION_DROP_FIRST = 1
_DECISION_ARM = 2
_DECISION_DROP_TIMER = 3
_DECISION_FORWARD = 4


def _runtime_pack(runtime, n_nodes: int):
    """Per-runtime marshalling constants, built once and cached.

    The raw uniform stream and the window snapshot tuples never change
    for a given runtime, and the two scratch vectors are the kernel's
    bridge into numpy's own ``log10``/``power`` ufuncs — reusing them
    across runs keeps the per-evaluation marshalling cost to a handful
    of small array constructions.
    """
    pack = getattr(runtime, "_evcore_pack", None)
    if pack is None:
        window_times = np.asarray(runtime.window_times, dtype=np.float64)
        snaps = [runtime.table_snapshot(t) for t in runtime.window_times]
        pack = {
            "doubles": np.asarray(runtime.protocol_doubles, dtype=np.float64),
            "window_times": window_times,
            "win_rx": tuple(s[0] for s in snaps),
            "win_seen": tuple(s[1] for s in snaps),
            "scratch_a": np.empty(n_nodes),
            "scratch_b": np.empty(n_nodes),
        }
        runtime._evcore_pack = pack
    return pack


def execute_compiled_run(sim: "BroadcastSimulator") -> None:
    """Run the broadcast window through the kernel and write back.

    Preconditions (:func:`precondition_blocker`) and the warm beacon
    replay must already have happened; on return the simulator holds
    the same end-of-run state — protocol arrays, decision log, RNG
    cursor, frame history, medium counters, neighbour tables, queue
    clock/pending set — as a pure-Python ``run()`` would leave.
    """
    from repro.manet.aedb import AEDBNodeState
    from repro.manet.medium import Frame

    ext = _resolve_extension()[0]
    assert ext is not None, "execute_compiled_run without a usable extension"

    runtime = sim.runtime
    scenario = sim.scenario
    cfg = sim._sim
    radio = cfg.radio
    medium = sim.medium
    protocol = sim.protocol
    tables = sim.tables
    mobility = sim._mobility
    trace = _kernel_trace(mobility)
    n = scenario.n_nodes
    rng = protocol._rng

    pack = _runtime_pack(runtime, n)
    window_times = pack["window_times"]
    W = len(window_times)
    ref_d, ref_loss, scale = medium._fast_log_distance

    fparams = np.array(
        [
            cfg.warmup_s,
            cfg.horizon_s,
            medium._airtime_s,
            medium._detection_dbm,
            medium._capture_lin,
            medium._min_tx,
            medium._max_tx,
            float(radio.default_tx_power_dbm),
            ref_d,
            ref_loss,
            scale,
            protocol._border_dbm,
            protocol._delay_lo,
            protocol._delay_hi,
            protocol._neighbors_threshold,
            protocol._margin_db,
            protocol._required_dbm,
            protocol._mac_jitter_s,
            float(cfg.neighbor_expiry_s),
            trace.step_s,
            float(mobility.area_side_m),
        ],
        dtype=np.float64,
    )
    assert fparams.size == _N_FPARAMS
    iparams = np.array(
        [
            n,
            scenario.source,
            W,
            1 if protocol._record_decisions else 0,
            trace.mode,
            trace.width,
            1 if trace.fold_one else 0,
            rng._i,
        ],
        dtype=np.int64,
    )
    assert iparams.size == _N_IPARAMS

    frame_out = np.empty((4, n))
    timer_deadline = np.full(n, np.nan)
    decisions_out = np.empty((2 * n + 1, 4))
    counts = np.zeros(_N_COUNTS, dtype=np.int64)
    # Per-node phase codes (AEDBNodeState order); the simulator is
    # single-use, so every node is still IDLE (0) when the window opens.
    state_code = np.zeros(n, dtype=np.int8)

    energy = ext.run_window(
        fparams,
        iparams,
        pack["doubles"],
        tables.rx_power,
        tables.last_seen,
        window_times,
        pack["win_rx"],
        pack["win_seen"],
        trace.arrays,
        pack["scratch_a"],
        pack["scratch_b"],
        np.log10,
        np.power,
        protocol.first_rx_time,
        protocol.strongest_copy_dbm,
        state_code,
        protocol._heard_from,
        frame_out,
        timer_deadline,
        decisions_out,
        counts,
    )

    fired, n_frames, n_resolved, draws, n_dec = counts.tolist()

    # -- protocol ----------------------------------------------------- #
    rng._i += draws
    states_by_code = (
        AEDBNodeState.IDLE,
        AEDBNodeState.WAITING,
        AEDBNodeState.DROPPED,
        AEDBNodeState.FORWARDED,
    )
    state = protocol.state
    for node, code in enumerate(state_code.tolist()):
        state[node] = states_by_code[code]

    if protocol._record_decisions and n_dec:
        append = protocol.decisions.append
        for t, node_f, kind_f, value in decisions_out[:n_dec].tolist():
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
    medium._energy_dbm = energy

    # -- neighbour tables --------------------------------------------- #
    # The kernel consumed the window snapshots read-only; replaying the
    # canonical rounds through the live tables is W O(1) snapshot swaps
    # that land rounds_run, the canonical-tick cursor, and the current-view
    # arrays exactly where the pure event loop leaves them.
    for t in runtime.window_times:
        tables.beacon_round(t)

    # -- event queue --------------------------------------------------- #
    # Rebuild the pending set the pure run leaves behind: in-flight
    # frame resolutions and armed timers past the horizon.  (Timers are
    # re-armed through the real scheduler so cancellation handles work.)
    queue = sim.queue
    for f in medium._active:
        queue.post(f.end_s, lambda t, fr=f: medium._resolve(fr, t))
    timers = protocol._timers
    for node in np.flatnonzero(state_code == 1).tolist():
        timers[node] = queue.schedule(
            float(timer_deadline[node]),
            lambda t, nd=node: protocol._on_timer(nd, t),
        )
    try:
        queue._fired = fired
        queue._now = cfg.horizon_s
    except AttributeError:  # compiled queue: settable properties
        queue.fired = fired
        queue.now = cfg.horizon_s
