"""Unit tests for the resilience primitives (DESIGN.md §13).

The chaos suite (``test_chaos.py``) proves the end-to-end recovery
paths; this file pins the building blocks in isolation — deterministic
backoff, the lease/attempt ledger, the quarantine ledger's torn-tail
tolerance, fault-spec parsing, store healing, and the default
policy's zero-cost drain loop — so a chaos failure bisects to one
primitive.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import threading
from types import SimpleNamespace

import pytest

from repro.campaigns import CampaignSpec
from repro.campaigns import executor as executor_mod
from repro.campaigns.backends import pool as pool_mod
from repro.campaigns.faults import (
    TORN_JUNK,
    FaultPlane,
    FaultRule,
    InjectedFault,
    _parse_clause,
    active_plane,
)
from repro.campaigns.resilience import (
    QUARANTINED,
    RETRY,
    FailureLedger,
    Lease,
    LeaseTable,
    RetryPolicy,
)
from repro.campaigns.store import ResultStore
from repro.utils import flags


class TestRetryPolicy:
    def test_defaults_retry_without_timeouts(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.retries_enabled
        assert policy.cell_timeout_s is None

    def test_the_cell_timeout_is_the_only_deadline(self):
        """One hang detector: no heartbeat knobs survive in the policy."""
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "max_attempts", "base_delay_s", "backoff_factor",
            "max_delay_s", "jitter", "cell_timeout_s",
        ]
        with pytest.raises(TypeError):
            RetryPolicy(heartbeat_s=1.0)

    def test_disabled_is_fail_fast(self):
        policy = RetryPolicy.disabled()
        assert policy.max_attempts == 1
        assert not policy.retries_enabled
        assert not policy.allows(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": -0.1},
            {"cell_timeout_s": 0.0},
            {"cell_timeout_s": -2.0},
            {"cell_timeout_s": math.nan},
            {"max_delay_s": math.nan},
            {"jitter": math.nan},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["base_delay_s", "backoff_factor", "max_delay_s", "jitter",
         "cell_timeout_s"],
    )
    def test_non_finite_values_rejected_naming_the_field(self, name, value):
        """NaN passes every ordered comparison and an infinite deadline
        never fires: both are rejected, by field name."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RetryPolicy(**{name: value})

    def test_delay_is_deterministic_and_exponential(self):
        policy = RetryPolicy(
            base_delay_s=0.1, backoff_factor=2.0, max_delay_s=10.0, jitter=0.1
        )
        d1 = policy.delay_for("cell-a", 1)
        d2 = policy.delay_for("cell-a", 2)
        d3 = policy.delay_for("cell-a", 3)
        # Same inputs, same delay — the schedule replays across runs.
        assert d1 == policy.delay_for("cell-a", 1)
        # Exponential base, jitter bounded to +10%.
        assert 0.1 <= d1 <= 0.1 * 1.1
        assert 0.2 <= d2 <= 0.2 * 1.1
        assert 0.4 <= d3 <= 0.4 * 1.1
        # Different cells draw different jitter (with overwhelming
        # probability for any fixed pair — these two differ).
        assert d1 != policy.delay_for("cell-b", 1)

    def test_delay_caps_at_max(self):
        policy = RetryPolicy(
            base_delay_s=1.0, backoff_factor=10.0, max_delay_s=2.0, jitter=0.0
        )
        assert policy.delay_for("c", 5) == 2.0


class TestLeaseTable:
    def test_retry_then_quarantine(self, tmp_path):
        ledger = FailureLedger(tmp_path / "failures.jsonl")
        table = LeaseTable(RetryPolicy(max_attempts=3), ledger)
        for expected_attempt, verdict in ((1, RETRY), (2, RETRY),
                                          (3, QUARANTINED)):
            lease = table.acquire("cell", "w0")
            assert lease.attempt == expected_attempt
            assert table.fail("cell", "boom") == verdict
        assert table.quarantined["cell"] == (3, "boom")
        assert table.failures == 3
        entries = ledger.entries()
        assert [e["cell"] for e in entries] == ["cell"]
        assert entries[0]["attempts"] == 3

    def test_generation_counting_not_per_job(self):
        """Ten jobs of one cell failing on attempt 1 spend ONE attempt."""
        table = LeaseTable(RetryPolicy(max_attempts=3))
        for _ in range(10):
            assert table.fail("cell", "boom", attempt=1) == RETRY
        assert table.attempts("cell") == 1
        assert table.next_attempt("cell") == 2

    def test_cell_timeout_caps_one_attempt_from_acquisition(self):
        """``cell_timeout_s`` is a wall-clock cap on one attempt: it
        runs from the lease's acquisition and nothing extends it."""
        table = LeaseTable(RetryPolicy(cell_timeout_s=1.0))
        lease = table.acquire("cell", "w0", now=100.0)
        assert lease.hard_deadline == 101.0
        assert table.expired(now=100.9) == []
        assert table.expired(now=101.5) == [lease]
        # A retry's fresh lease gets a fresh cap.
        assert table.fail("cell", "hung") == RETRY
        retry = table.acquire("cell", "w0", now=200.0)
        assert retry.attempt == 2 and retry.hard_deadline == 201.0

    def test_no_timeout_means_a_lease_never_expires(self):
        """The default policy sets no deadline: nothing can expire it."""
        table = LeaseTable(RetryPolicy())
        lease = table.acquire("cell", "w0", now=100.0)
        assert lease.hard_deadline is None
        assert not lease.expired(now=1e12)
        assert table.expired(now=1e12) == []

    def test_the_deadline_instant_itself_is_not_expired(self):
        """Expiry is strictly past the cap: an attempt may use all of it."""
        table = LeaseTable(RetryPolicy(cell_timeout_s=0.5))
        lease = table.acquire("cell", "w0", now=10.0)
        assert not lease.expired(now=10.5)
        assert lease.expired(now=10.5 + 1e-9)

    def test_a_lease_carries_one_deadline(self):
        assert [f.name for f in dataclasses.fields(Lease)] == [
            "cell", "worker", "attempt", "acquired_t", "hard_deadline",
        ]
        assert not hasattr(LeaseTable, "beat")

    def test_release_drops_the_lease(self):
        table = LeaseTable(RetryPolicy(cell_timeout_s=1.0))
        table.acquire("cell", "w0", now=100.0)
        assert [lease.cell for lease in table.expired(now=102.0)] == ["cell"]
        table.release("cell")
        assert table.expired(now=102.0) == []
        # Releasing spends no attempt: the next lease is attempt 1 again.
        assert table.acquire("cell", "w0").attempt == 1


class TestFailureLedger:
    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        ledger = FailureLedger(tmp_path / "failures.jsonl")
        ledger.record("cell-a", attempts=3, error="boom")
        with ledger.path.open("a") as fh:
            fh.write('{"v":99,"kind":"failure","cell":"other"}\n')
            fh.write('{"kind":"failure","cell":"torn-mid')  # torn tail
        assert [e["cell"] for e in ledger.entries()] == ["cell-a"]

    def test_latest_supersedes(self, tmp_path):
        ledger = FailureLedger(tmp_path / "failures.jsonl")
        ledger.record("cell-a", attempts=3, error="first")
        ledger.record("cell-a", attempts=3, error="second")
        assert ledger.latest_by_cell()["cell-a"]["error"] == "second"

    def test_prune_drops_completed_and_dedupes(self, tmp_path):
        ledger = FailureLedger(tmp_path / "failures.jsonl")
        ledger.record("cell-a", attempts=3, error="first")
        ledger.record("cell-a", attempts=3, error="second")
        ledger.record("cell-b", attempts=3, error="boom")
        assert ledger.prune({"cell-b"}) == 2  # dup of a + all of b
        remaining = ledger.entries()
        assert [e["cell"] for e in remaining] == ["cell-a"]
        assert remaining[0]["error"] == "second"
        # Pruning everything removes the file.
        assert ledger.prune({"cell-a"}) == 1
        assert not ledger.path.exists()
        assert ledger.prune({"cell-a"}) == 0


class TestFaultSpecParsing:
    def test_clause_forms(self):
        rule = _parse_clause("crash:abc*")
        assert rule == FaultRule(action="crash", selector="abc*")
        rule = _parse_clause("hang(2.5):*@0")
        assert rule.action == "hang"
        assert rule.param == 2.5
        assert rule.max_attempt == 0
        rule = _parse_clause("raise:%3=1@2")
        assert rule.selector == "%3=1"
        assert rule.max_attempt == 2

    @pytest.mark.parametrize(
        "clause",
        [
            "explode:*",          # unknown action
            "crash",              # no selector
            "crash:*@-1",         # negative attempt bound
            "raise:%3=x",         # malformed hash selector
            "raise:%0=0",         # zero modulus
        ],
    )
    def test_invalid_clauses_rejected(self, clause):
        with pytest.raises(ValueError):
            FaultPlane(clause)

    def test_selectors(self):
        assert FaultRule("raise", "*").matches("anything")
        assert FaultRule("raise", "ab*").matches("abcd")
        assert not FaultRule("raise", "ab*").matches("ba")
        assert FaultRule("raise", "exact").matches("exact")
        assert not FaultRule("raise", "exact").matches("exact2")
        # %M=R partitions all keys: exactly one residue matches.
        hits = [
            r for r in range(3) if FaultRule("raise", f"%3={r}").matches("k")
        ]
        assert len(hits) == 1

    def test_armed_window(self):
        assert FaultRule("raise", "*", max_attempt=1).armed(1)
        assert not FaultRule("raise", "*", max_attempt=1).armed(2)
        assert FaultRule("raise", "*", max_attempt=0).armed(99)

    def test_fire_raises_within_window(self):
        plane = FaultPlane("raise:cell@1")
        with pytest.raises(InjectedFault):
            plane.fire("test", "cell", 1)
        plane.fire("test", "cell", 2)  # retry succeeds
        plane.fire("test", "other", 1)  # unmatched cell untouched

    def test_torn_tail_counts_fires(self, tmp_path):
        plane = FaultPlane("torn-tail:cell@2")
        path = tmp_path / "cell.jsonl"
        path.write_text('{"kind":"done"}\n')
        assert plane.maybe_tear(path, "cell")
        assert plane.maybe_tear(path, "cell")
        assert not plane.maybe_tear(path, "cell")  # budget of 2 spent
        assert path.read_text().endswith(TORN_JUNK * 2)
        assert not plane.maybe_tear(path, "other")

    def test_active_plane_memoised_on_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_plane() is None
        monkeypatch.setenv("REPRO_FAULTS", "raise:*@1")
        plane = active_plane()
        assert plane is not None and plane is active_plane()
        monkeypatch.setenv("REPRO_FAULTS", "raise:*@2")
        assert active_plane() is not plane


class TestHealCell:
    @pytest.fixture()
    def one_cell(self, tmp_path):
        spec = CampaignSpec(
            name="heal", densities=(100,), n_seeds=1, n_networks=1, n_nodes=8
        )
        store = ResultStore(tmp_path / "store")
        from repro.campaigns import CampaignExecutor

        CampaignExecutor(spec, store, serial=True).run()
        (cell,) = spec.cells()
        return store, cell

    def test_heals_torn_tail_after_done_byte_identically(self, one_cell):
        store, cell = one_cell
        path = store.cell_path(cell)
        clean = path.read_bytes()
        with path.open("a") as fh:
            fh.write(TORN_JUNK)
        assert not store.is_complete(cell)
        assert store.heal_cell(cell)
        assert store.is_complete(cell)
        assert path.read_bytes() == clean

    def test_leaves_clean_and_unrecoverable_files_alone(self, one_cell):
        store, cell = one_cell
        path = store.cell_path(cell)
        assert not store.heal_cell(cell)  # clean: nothing to do
        # Damage before the done marker: genuinely incomplete, no heal.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + TORN_JUNK)
        assert not store.heal_cell(cell)
        assert not store.is_complete(cell)
        store.delete_cell(cell)
        assert not store.heal_cell(cell)  # missing file


class TestDefaultPolicyOverhead:
    """Fault tolerance is free on the fault-free path.

    The default policy retries but sets no deadline, so the pool's
    drain loop blocks on its futures and never polices a lease: it
    polls nothing, starts no thread of its own and makes no temporary
    directory.  Its stores are byte-identical to fail-fast ones.
    """

    def test_default_policy_polls_nothing(
        self, monkeypatch, golden_spec, run_backend, store_digests
    ):
        ticks, timeouts, policed, threads, tempdirs = [], [], [], [], []

        class _Driver(pool_mod._PoolDriver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                ticks.append(self.tick)

            def _police_leases(self, now):
                policed.append(now)
                super()._police_leases(now)

        real_wait = pool_mod.wait

        def _wait(fs, timeout=None, return_when=None):
            timeouts.append(timeout)
            return real_wait(fs, timeout=timeout, return_when=return_when)

        real_start = threading.Thread.start

        def _start(thread):
            target = getattr(thread, "_target", None)
            threads.append(
                getattr(target, "__module__", None)
                or type(thread).__module__
            )
            real_start(thread)

        real_mkdtemp = tempfile.mkdtemp

        def _mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            tempdirs.append(path)
            return path

        monkeypatch.setattr(pool_mod, "_PoolDriver", _Driver)
        monkeypatch.setattr(pool_mod, "wait", _wait)
        monkeypatch.setattr(threading.Thread, "start", _start)
        monkeypatch.setattr(tempfile, "mkdtemp", _mkdtemp)
        report, default = run_backend(
            "pool", "default", golden_spec, retry_policy=RetryPolicy()
        )
        monkeypatch.undo()

        assert report.failed == []
        assert len(report.executed) == golden_spec.n_cells
        assert ticks == [None]
        assert timeouts and set(timeouts) == {None}
        assert policed == []
        assert tempdirs == []
        assert threads and not [
            m for m in threads if m and m.startswith("repro")
        ]

        _, fail_fast = run_backend(
            "pool", "fail-fast", golden_spec,
            retry_policy=RetryPolicy.disabled(),
        )
        assert store_digests(default.root) == store_digests(fail_fast.root)

    def test_cell_timeout_sets_the_tick(self):
        """A timeout is the one thing that makes the drain loop poll."""
        policy = RetryPolicy(cell_timeout_s=2.0)
        ctx = SimpleNamespace(
            recorder=None, leases=LeaseTable(policy), policy=policy,
            pending=[],
        )
        driver = pool_mod._PoolDriver("pool", ctx, None, {"c": []}, {}, 1)
        assert driver.tick == 0.5

    @pytest.mark.parametrize(
        "timeout, tick",
        [(0.01, 0.05), (0.2, 0.05), (600.0, 150.0)],
        ids=["floored", "at-the-floor", "long"],
    )
    def test_tick_is_a_quarter_timeout_never_below_the_floor(
        self, timeout, tick
    ):
        """A tight timeout must not turn the drain loop into a
        busy-wait; a long one is still checked four times per cap."""
        policy = RetryPolicy(cell_timeout_s=timeout)
        ctx = SimpleNamespace(
            recorder=None, leases=LeaseTable(policy), policy=policy,
            pending=[],
        )
        driver = pool_mod._PoolDriver("pool", ctx, None, {"c": []}, {}, 1)
        assert driver.MIN_TICK_S == 0.05
        assert driver.tick == tick

    def test_a_simulation_job_reads_only_the_fault_flag(
        self, monkeypatch, golden_spec, run_backend
    ):
        """The fault plane's hook is the one per-job flag read."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        reads, inside = [], []
        real_get_flag = flags.get_flag
        real_job = executor_mod._execute_job

        def _get_flag(name):
            if inside:
                reads.append(name)
            return real_get_flag(name)

        def _job(job):
            inside.append(job)
            try:
                return real_job(job)
            finally:
                inside.pop()

        monkeypatch.setattr(flags, "get_flag", _get_flag)
        monkeypatch.setattr(executor_mod, "_execute_job", _job)
        report, _ = run_backend("inline", "reads", golden_spec)
        n_sims = golden_spec.n_cells * golden_spec.n_networks
        assert report.simulations_executed == n_sims
        assert reads == ["REPRO_FAULTS"] * n_sims
