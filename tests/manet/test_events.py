"""The event-queue contract: one test per behavioural clause.

:class:`repro.manet.events.EventQueue` is the only event queue, so this
is its spec: (time, insertion-order) pop ordering, tombstone
cancellation, clock semantics (including the unconditional horizon
clock advance), the runaway guard, and the exact error messages.
"""

from __future__ import annotations

import math

import pytest

from repro.manet.events import EventQueue

# --------------------------------------------------------------------- #
# Ordering
# --------------------------------------------------------------------- #


def test_events_fire_in_time_order():
    q = EventQueue()
    log = []
    q.schedule(3.0, lambda t: log.append(("c", t)))
    q.schedule(1.0, lambda t: log.append(("a", t)))
    q.schedule(2.0, lambda t: log.append(("b", t)))
    assert q.run_until(10.0) == 3
    assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_fire_in_insertion_order():
    q = EventQueue()
    log = []
    for name in "abcde":
        q.schedule(5.0, lambda t, n=name: log.append(n))
    q.run_until(5.0)
    assert log == list("abcde")


def test_post_and_schedule_share_one_sequence():
    """Interleaved ``post`` and ``schedule`` at one timestamp keep global
    insertion order — they draw from the same tie-break counter."""
    q = EventQueue()
    log = []
    q.schedule(2.0, lambda t: log.append("s0"))
    q.post(2.0, lambda t: log.append("p1"))
    q.schedule(2.0, lambda t: log.append("s2"))
    q.post(2.0, lambda t: log.append("p3"))
    q.run_until(2.0)
    assert log == ["s0", "p1", "s2", "p3"]


def test_post_fires_in_order_without_handle():
    q = EventQueue()
    log = []
    assert q.post(2.0, lambda t: log.append(("b", t))) is None
    q.post(1.0, lambda t: log.append(("a", t)))
    assert q.pending == 2
    assert q.run_until(5.0) == 2
    assert log == [("a", 1.0), ("b", 2.0)]


def test_events_can_schedule_events():
    q = EventQueue()
    log = []

    def first(t):
        log.append(("first", t))
        q.schedule(t + 1.0, lambda t2: log.append(("second", t2)))

    q.schedule(1.0, first)
    assert q.run_until(5.0) == 2
    assert log == [("first", 1.0), ("second", 2.0)]


# --------------------------------------------------------------------- #
# Clock and horizon
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "run, final_now",
    [(lambda q: q.run_until(10.0), 10.0), (lambda q: q.run_all(), 4.0)],
    ids=["run_until", "run_all"],
)
def test_now_tracks_fired_events(run, final_now):
    """Inside a callback ``now`` is that event's time.  Afterwards
    ``run_until`` leaves it at the horizon, ``run_all`` at the last
    fired event."""
    q = EventQueue()
    seen = []
    q.schedule(1.5, lambda t: seen.append(q.now))
    q.schedule(4.0, lambda t: seen.append(q.now))
    run(q)
    assert seen == [1.5, 4.0]
    assert q.now == final_now


def test_run_until_is_boundary_inclusive():
    q = EventQueue()
    log = []
    q.schedule(2.0, lambda t: log.append("at"))
    q.schedule(2.0000001, lambda t: log.append("after"))
    assert q.run_until(2.0) == 1
    assert log == ["at"]
    assert q.pending == 1


def test_run_until_stops_at_horizon():
    q = EventQueue()
    log = []
    for i in range(6):
        q.schedule(float(i), lambda t, i=i: log.append(i))
    assert q.run_until(3.0) == 4  # 0,1,2,3 inclusive
    assert log == [0, 1, 2, 3]
    assert q.run_until(10.0) == 2


def test_horizon_advances_clock_past_pending_events():
    """The clock must reach the horizon even when the heap still holds
    events beyond it, so a later schedule() inside the observed window
    is rejected."""
    q = EventQueue()
    q.schedule(10.0, lambda t: None)
    q.run_until(5.0)
    assert q.now == 5.0
    with pytest.raises(ValueError):
        q.schedule(4.0, lambda t: None)


def test_horizon_advances_clock_past_cancelled_tombstone():
    """A cancelled tombstone beyond the horizon must not pin the clock
    below it."""
    q = EventQueue()
    h = q.schedule(10.0, lambda t: None)
    h.cancel()
    q.run_until(5.0)
    assert q.now == 5.0
    assert q.pending == 0


def test_earlier_horizon_does_not_rewind_clock():
    q = EventQueue()
    q.schedule(8.0, lambda t: None)
    q.run_until(8.0)
    assert q.now == 8.0
    q.run_until(3.0)  # lower horizon: a no-op, never a rewind
    assert q.now == 8.0


# --------------------------------------------------------------------- #
# Rejected schedules
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("time_s", [4.5, math.nan])
@pytest.mark.parametrize("method", ["schedule", "post"])
def test_rejects_past_or_nan_with_exact_message(method, time_s):
    """A NaN time is refused like a past one: it would sit at the heap
    top (every comparison against it is False) and block every later
    event."""
    q = EventQueue()
    q.schedule(5.0, lambda t: None)
    q.run_until(5.0)
    with pytest.raises(ValueError) as exc:
        getattr(q, method)(time_s, lambda t: None)
    assert str(exc.value) == f"cannot schedule at {time_s} (current time 5.0)"


def test_rejected_nan_leaves_queue_running():
    q = EventQueue()
    log = []
    with pytest.raises(ValueError):
        q.schedule(math.nan, lambda t: log.append("nan"))
    q.schedule(1.0, lambda t: log.append("g"))
    assert q.run_until(5.0) == 1
    assert log == ["g"]
    assert q.pending == 0


# --------------------------------------------------------------------- #
# Cancellation and counters
# --------------------------------------------------------------------- #


def test_cancelled_event_is_skipped():
    q = EventQueue()
    log = []
    keep = q.schedule(1.0, lambda t: log.append("keep"))
    drop = q.schedule(2.0, lambda t: log.append("drop"))
    q.schedule(3.0, lambda t: log.append("tail"))
    drop.cancel()
    assert drop.cancelled and not keep.cancelled
    assert q.run_until(10.0) == 2
    assert log == ["keep", "tail"]


def test_cancel_during_run_suppresses_later_event():
    q = EventQueue()
    log = []
    victim = q.schedule(2.0, lambda t: log.append("victim"))
    q.schedule(1.0, lambda t: victim.cancel())
    q.run_until(10.0)
    assert log == []
    assert q.fired == 1  # the canceller fired; the victim did not


def test_cancelled_events_do_not_count_as_fired():
    q = EventQueue()
    h = q.schedule(1.0, lambda t: None)
    h.cancel()
    q.schedule(2.0, lambda t: None)
    assert q.run_until(10.0) == 1
    assert q.fired == 1


def test_pending_excludes_cancelled():
    q = EventQueue()
    q.schedule(1.0, lambda t: None)
    h = q.schedule(2.0, lambda t: None)
    assert q.pending == 2
    h.cancel()
    assert q.pending == 1


def test_cancel_after_fire_is_a_noop():
    q = EventQueue()
    log = []
    h = q.schedule(1.0, lambda t: log.append("fired"))
    q.run_until(1.0)
    h.cancel()  # late cancel must not corrupt anything
    assert log == ["fired"]
    assert q.fired == 1


def test_fired_accumulates_across_runs():
    q = EventQueue()
    for i in range(4):
        q.schedule(float(i), lambda t: None)
    q.run_until(1.0)
    assert q.fired == 2
    q.run_until(10.0)
    assert q.fired == 4


def test_callback_exception_propagates_with_clock_at_event():
    """A raising callback leaves the queue usable: the clock sits at the
    failing event's time, the failure is not counted as fired, and the
    remaining events still run."""
    q = EventQueue()
    q.schedule(1.0, lambda t: None)

    def boom(t):
        raise RuntimeError("boom")

    q.schedule(2.0, boom)
    q.schedule(3.0, lambda t: None)
    with pytest.raises(RuntimeError, match="boom"):
        q.run_until(10.0)
    assert q.now == 2.0
    assert q.fired == 1
    assert q.run_until(10.0) == 1


# --------------------------------------------------------------------- #
# run_all
# --------------------------------------------------------------------- #


def test_run_all_drains_everything():
    q = EventQueue()
    log = []
    q.schedule(2.0, lambda t: log.append("b"))
    q.schedule(1.0, lambda t: log.append("a"))
    assert q.run_all() == 2
    assert log == ["a", "b"]
    assert q.pending == 0


def test_run_all_guards_against_runaway_schedules():
    q = EventQueue()

    def reschedule(t):
        q.schedule(t + 1.0, reschedule)

    q.schedule(0.0, reschedule)
    with pytest.raises(RuntimeError) as exc:
        q.run_all(hard_limit=100)
    assert str(exc.value) == "event limit exceeded; runaway schedule?"


# --------------------------------------------------------------------- #
# Randomised op scripts against a reference model
# --------------------------------------------------------------------- #


class _ReferenceQueue:
    """The spec above restated as a sorted list: fire live entries in
    (time, insertion) order up to the horizon, then lift the clock to it
    (``run_all`` has no horizon, so it leaves the clock where it is)."""

    def __init__(self):
        self.now = 0.0
        self.fired = 0
        self.entries = []  # [time, seq, live, callback]

    @property
    def pending(self):
        return sum(1 for e in self.entries if e[2])

    def add(self, time_s, callback):
        entry = [time_s, len(self.entries), True, callback]
        self.entries.append(entry)
        return entry

    def cancel(self, entry):
        entry[2] = False

    def run_until(self, horizon_s, lift_clock=True):
        for entry in sorted(self.entries, key=lambda e: (e[0], e[1])):
            if entry[0] > horizon_s:
                break
            if entry[2]:
                entry[2] = False
                self.now = entry[0]
                self.fired += 1
                entry[3](entry[0])
        if lift_clock:
            self.now = max(self.now, horizon_s)

    def run_all(self):
        """Fire everything; the clock stays at the last fired event."""
        self.run_until(math.inf, lift_clock=False)


@pytest.mark.parametrize("seed", range(12))
def test_randomised_op_script_matches_reference_model(seed):
    import numpy as np

    rng = np.random.default_rng([0xE5CE, seed])
    q, ref = EventQueue(), _ReferenceQueue()
    logs = ([], [])
    handles = []

    def observe():
        assert q.now == ref.now
        assert q.fired == ref.fired
        assert q.pending == ref.pending
        assert logs[0] == logs[1]

    for step in range(400):
        op = rng.integers(0, 10)
        t = q.now + float(np.round(rng.uniform(0.0, 3.0), 1))  # coarse: many ties
        if op <= 4:  # schedule
            handles.append(
                (
                    q.schedule(t, lambda ft, s=step: logs[0].append((s, ft))),
                    ref.add(t, lambda ft, s=step: logs[1].append((s, ft))),
                )
            )
        elif op <= 6:  # post
            q.post(t, lambda ft, s=step: logs[0].append((s, ft)))
            ref.add(t, lambda ft, s=step: logs[1].append((s, ft)))
        elif op == 7 and handles:  # cancel a pseudo-random handle
            handle, entry = handles[int(rng.integers(0, len(handles)))]
            handle.cancel()
            ref.cancel(entry)
        else:  # run a slice of the timeline
            q.run_until(t)
            ref.run_until(t)
        observe()
    q.run_all()
    ref.run_all()
    assert q.pending == ref.pending == 0
    observe()
