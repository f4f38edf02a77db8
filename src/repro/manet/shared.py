"""Shared-memory scenario runtimes: one precompute, many processes.

The per-process runtime memo (:mod:`repro.manet.runtime`) spares a worker
the substrate recompute *within* its own process, but a pool of W workers
evaluating the same scenarios still builds — and privately holds — W
copies of every per-tick neighbour-table timeline.  Memory and warm-up
cost scale with worker count instead of scenario count, the exact
overhead the paper's parallel local search is designed to avoid.

:class:`SharedRuntimeArena` fixes that at the OS level: the pool owner
precomputes each scenario's :class:`~repro.manet.runtime.ScenarioRuntime`
once, packs the parameter-independent arrays into one
:mod:`multiprocessing.shared_memory` segment per scenario, and hands
workers a tiny picklable :class:`SharedRuntimeHandle`.  Workers call
:func:`attach_runtime` and get a runtime whose snapshot arrays are
**read-only views into the shared pages** — zero copy, zero recompute,
bit-identical metrics (DESIGN.md §9).

Layout of one segment (C order)::

    rx_stack      (T, n, n)  f8  per-tick rx_power snapshots, canonical order
    seen_stack    (T, n, n)  f8  per-tick last_seen snapshots
    doubles       (2n,)      f8  raw uniform stream of the default protocol RNG

Lifecycle and ownership rules:

* The **arena owns the segments**: it creates and unlinks them.  Cleanup
  is crash-safe via ``weakref.finalize`` — an arena that is garbage
  collected, or a parent interpreter that exits without calling
  :meth:`SharedRuntimeArena.close`, still unlinks every segment (and the
  stdlib resource tracker backstops abnormal parent death).
* **Workers only attach**: they never unlink, and a worker dying
  mid-attach (even ``os._exit``) leaves nothing behind — the name lives
  until the owner removes it, and the mapping dies with the process.
* Attaching is memoised per ``(process, segment)`` in a bounded LRU, so
  a worker pays one ``mmap`` per scenario however many jobs it runs.

Fallback semantics: every failure mode degrades to the per-process LRU,
never to an error.  ``SharedRuntimeArena.create`` returns ``None`` when
shared memory is unavailable (no ``/dev/shm``, permissions) or when the
feature is disabled (``REPRO_SHARED_RUNTIME=0`` /
:func:`set_shared_runtimes`); :func:`attach_runtime` falls back to
:func:`~repro.manet.runtime.get_runtime` when the segment is gone or its
shape disagrees with the scenario's canonical grid.  Callers therefore
never branch — they pass whatever handle they have and always receive a
usable runtime (or ``None`` exactly when runtime memoisation itself is
off).

Usage (what the pooled evaluators and the campaign executor do)::

    from repro.manet.shared import SharedRuntimeArena, attach_runtime

    arena = SharedRuntimeArena.create(scenarios)      # parent, once
    handle = arena.handle_for(scenario)               # picklable
    # ... ship (scenario, params, handle) to a worker ...
    runtime = attach_runtime(scenario, handle)        # worker, O(mmap)
    metrics = BroadcastSimulator(scenario, params, runtime=runtime).run()
    arena.close()                                     # parent, at the end
"""

from __future__ import annotations

import secrets
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.manet.runtime import (
    ScenarioRuntime,
    get_runtime,
    peek_runtime,
    runtime_memoisation_enabled,
)
from repro.manet.scenarios import NetworkScenario
from repro.utils import flags

__all__ = [
    "SEGMENT_PREFIX",
    "SharedRuntimeHandle",
    "SharedRuntimeArena",
    "attach_runtime",
    "attached_runtime_count",
    "detach_all_runtimes",
    "shared_runtimes_enabled",
    "set_shared_runtimes",
]

#: Every segment name starts with this, so tests (and operators) can
#: audit ``/dev/shm`` for leaks attributable to this package.
SEGMENT_PREFIX = "repro-aedb-rt"

_ENABLED = flags.read_bool("REPRO_SHARED_RUNTIME")

_FLOAT = np.dtype(np.float64)


def shared_runtimes_enabled() -> bool:
    """Whether arenas are created at all (``REPRO_SHARED_RUNTIME``)."""
    return _ENABLED


def set_shared_runtimes(enabled: bool) -> None:
    """Globally enable/disable shared-memory runtimes in this process.

    Disabling only affects *future* :meth:`SharedRuntimeArena.create`
    calls and attaches; existing arenas stay valid until closed.
    """
    global _ENABLED
    _ENABLED = bool(enabled)


@dataclass(frozen=True)
class SharedRuntimeHandle:
    """Picklable pointer to one scenario's shared substrate segment.

    Deliberately tiny (a name and two shape ints): job objects already
    carry the scenario, so the handle only has to say *where* the
    precomputed bytes live and how to interpret them.
    """

    #: Shared-memory segment name (``SEGMENT_PREFIX``-…).
    name: str
    #: Beacon ticks in the packed timeline.
    n_ticks: int
    #: Network size the segment was packed for.
    n_nodes: int

    def segment_nbytes(self) -> int:
        """Payload size of the segment this handle points at."""
        _, total = _layout(self.n_ticks, self.n_nodes)
        return total


def _layout(
    n_ticks: int, n_nodes: int
) -> tuple[dict[str, tuple[int, tuple[int, ...], np.dtype]], int]:
    """One segment's field layout: ``({name: (offset, shape, dtype)},
    total_bytes)`` in pack order.  Shared by the packer and the
    rehydrator so the two sides can never disagree byte-for-byte."""
    t, n = n_ticks, n_nodes
    fields: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}
    offset = 0
    for name, shape, dtype in (
        ("rx_stack", (t, n, n), _FLOAT),
        ("seen_stack", (t, n, n), _FLOAT),
        ("doubles", (2 * n,), _FLOAT),
    ):
        fields[name] = (offset, shape, dtype)
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return fields, offset


def _segment_views(
    shm: shared_memory.SharedMemory, handle_or_shape
) -> dict[str, np.ndarray]:
    """Numpy views over one segment's fields, by layout name."""
    if isinstance(handle_or_shape, SharedRuntimeHandle):
        h = handle_or_shape
        fields, _ = _layout(h.n_ticks, h.n_nodes)
    else:
        fields, _ = _layout(*handle_or_shape)
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        for name, (offset, shape, dtype) in fields.items()
    }


def _unlink_segments(segments: list[shared_memory.SharedMemory]) -> None:
    """Finalizer target: release every segment the arena owns.

    Module-level (holds no arena reference) and idempotent per segment —
    a name already gone (e.g. the resource tracker beat us to it after a
    crash) is not an error.
    """
    for shm in segments:
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - defensive
            pass
    segments.clear()


class SharedRuntimeArena:
    """Owner of the shared substrate segments for a set of scenarios.

    Build with :meth:`create` (which may return ``None`` — callers fall
    back to per-process runtimes), map scenarios to handles with
    :meth:`handle_for`, release with :meth:`close` (or let the finalizer
    do it).  One arena typically lives exactly as long as one process
    pool.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._handles: dict[NetworkScenario, SharedRuntimeHandle] = {}
        self._finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, scenarios: list[NetworkScenario]
    ) -> "SharedRuntimeArena | None":
        """Precompute and pack every distinct scenario's substrate.

        Returns ``None`` when shared runtimes are disabled, the list is
        empty, or the platform cannot provide shared memory — the
        callers' cue to keep using per-process runtimes.  Partial
        failures clean up after themselves (no half-built arenas leak
        segments).
        """
        if not _ENABLED or not scenarios:
            return None
        if not runtime_memoisation_enabled():
            # Runtime memoisation off demands the recompute path; workers
            # would refuse to attach anyway, so don't pack at all.
            return None
        arena = cls()
        try:
            for seq, scenario in enumerate(dict.fromkeys(scenarios)):
                # Reuse the parent's memo when it already holds the
                # scenario, but never *insert*: workers fork right after
                # this, and an inherited memo entry would give each of
                # them a private copy of the very timeline being shared.
                runtime = peek_runtime(scenario) or ScenarioRuntime(scenario)
                arena._pack(scenario, runtime, seq)
        except (OSError, ValueError):
            # No /dev/shm, over quota, permissions...  Leave nothing
            # behind and let callers fall back.
            arena.close()
            return None
        arena._finalizer = weakref.finalize(
            arena, _unlink_segments, arena._segments
        )
        return arena

    def _pack(
        self, scenario: NetworkScenario, runtime: ScenarioRuntime, seq: int
    ) -> None:
        n_ticks = runtime.n_beacon_rounds
        n = scenario.n_nodes
        _, total = _layout(n_ticks, n)
        shm = None
        for _attempt in range(3):
            # "/" + prefix(13) + "-" + 8-hex token + "-" + hex seq stays
            # under the 31-char POSIX shm name cap (macOS SHM_NAME_MAX)
            # up to ~10^8 segments; the random token (not the pid) makes
            # the name unique, so a collision with a crashed process's
            # leftover just redraws.
            # Segment *names* need cross-process uniqueness only; they
            # never feed simulation state.
            # repro-lint: ok D103 - shm name, not simulation state
            name = f"{SEGMENT_PREFIX}-{secrets.token_hex(4)}-{seq:x}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=total
                )
                break
            except FileExistsError:
                continue
        if shm is None:  # pragma: no cover - 3 token collisions
            raise OSError(f"could not allocate a unique {SEGMENT_PREFIX} name")
        self._segments.append(shm)  # registered before writing: close()
        # cleans up even if packing below fails
        rx_stack, seen_stack = runtime.snapshot_stacks()
        views = _segment_views(shm, (n_ticks, n))
        views["rx_stack"][:] = rx_stack
        views["seen_stack"][:] = seen_stack
        views["doubles"][:] = runtime.protocol_doubles
        # Drop the exported views before the segment can be closed
        # (mmap refuses to unmap while buffer exports exist).
        del views
        self._handles[scenario] = SharedRuntimeHandle(
            name=shm.name, n_ticks=n_ticks, n_nodes=n
        )

    # ------------------------------------------------------------------ #
    def handle_for(
        self, scenario: NetworkScenario
    ) -> SharedRuntimeHandle | None:
        """The handle packed for ``scenario`` (None if not in the arena)."""
        return self._handles.get(scenario)

    @property
    def n_scenarios(self) -> int:
        return len(self._handles)

    def nbytes(self) -> int:
        """Total payload bytes across all segments (one copy, shared)."""
        return sum(h.segment_nbytes() for h in self._handles.values())

    def close(self) -> None:
        """Unlink every segment (idempotent; also runs via finalizer)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        else:
            _unlink_segments(self._segments)
        self._handles.clear()

    def __enter__(self) -> "SharedRuntimeArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Worker side: attach-once-per-process, bounded, always falls back.
# Values are (runtime, segment) pairs — the segment object must stay
# referenced while any simulator can still hold views into it, so both
# drop together on eviction and the pages unmap when the last consumer
# lets go.
# --------------------------------------------------------------------- #
_ATTACHED: OrderedDict[str, tuple[ScenarioRuntime, shared_memory.SharedMemory]]
_ATTACHED = OrderedDict()
_ATTACHED_MAX_ENTRIES = 32
_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without ever unlinking it.

    Python 3.13+ takes ``track=False`` (attachers should not register
    with the resource tracker at all); on older interpreters the plain
    attach re-registers the same name with the fork-shared tracker,
    which is idempotent — the owner's ``unlink`` deregisters it once.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        return shared_memory.SharedMemory(name=name)


def attach_runtime(
    scenario: NetworkScenario, handle: SharedRuntimeHandle | None
) -> ScenarioRuntime | None:
    """A runtime for ``scenario``, preferring the shared segment.

    The workhorse of pool workers: maps ``handle``'s segment (memoised
    per process) and rehydrates a read-only
    :class:`~repro.manet.runtime.ScenarioRuntime` over it.  Any failure
    — no handle, feature disabled, segment unlinked, shape mismatch —
    silently degrades to :func:`~repro.manet.runtime.get_runtime`, so
    the caller's result is identical either way (bit-identity invariant,
    DESIGN.md §9).
    """
    if handle is None or not _ENABLED or not runtime_memoisation_enabled():
        # The third clause keeps set_runtime_memoisation(False) honest: that
        # switch promises the *recompute* path, and a precomputed shared
        # substrate would silently un-ablate it.
        return get_runtime(scenario)
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(handle.name)
        if entry is not None:
            if entry[0].scenario != scenario:
                # A handle paired with the wrong scenario (caller bug):
                # degrade safely instead of handing out a foreign
                # substrate the simulator would reject anyway.
                return get_runtime(scenario)
            _ATTACHED.move_to_end(handle.name)
            return entry[0]
    try:
        shm = _attach_segment(handle.name)
    except (FileNotFoundError, OSError):
        return get_runtime(scenario)
    mismatched = False
    with _ATTACH_LOCK:
        existing = _ATTACHED.get(handle.name)
        if existing is not None:
            # Lost a concurrent attach race.  No views exist over this
            # duplicate mapping yet, so it closes cleanly right here.
            shm.close()
            if existing[0].scenario == scenario:
                return existing[0]
            mismatched = True
        else:
            try:
                runtime = _rehydrate(scenario, handle, shm)
            except ValueError:
                shm.close()
                return get_runtime(scenario)
            if len(_ATTACHED) >= _ATTACHED_MAX_ENTRIES:
                # Drop refs only; the evicted mapping lives on while any
                # in-flight simulator still views it, then unmaps with
                # GC (runtime and segment are released together).
                _ATTACHED.popitem(last=False)
            _ATTACHED[handle.name] = (runtime, shm)
    if mismatched:
        return get_runtime(scenario)
    return runtime


def _rehydrate(
    scenario: NetworkScenario,
    handle: SharedRuntimeHandle,
    shm: shared_memory.SharedMemory,
) -> ScenarioRuntime:
    if handle.n_nodes != scenario.n_nodes:
        raise ValueError(
            f"segment packed for {handle.n_nodes} nodes, "
            f"scenario has {scenario.n_nodes}"
        )
    _, total = _layout(handle.n_ticks, handle.n_nodes)
    if shm.size < total:  # tampered / foreign segment
        raise ValueError(f"segment {handle.name} smaller than its layout")
    views = _segment_views(shm, handle)
    for view in views.values():
        view.setflags(write=False)
    return ScenarioRuntime.from_shared(
        scenario,
        views["rx_stack"],
        views["seen_stack"],
        views["doubles"],
    )


def attached_runtime_count() -> int:
    """Segments currently mapped by this process."""
    with _ATTACH_LOCK:
        return len(_ATTACHED)


def detach_all_runtimes() -> None:
    """Drop every attached runtime in this process (tests / hygiene).

    Does not unlink anything — only the owning arena may do that.
    """
    with _ATTACH_LOCK:
        _ATTACHED.clear()
