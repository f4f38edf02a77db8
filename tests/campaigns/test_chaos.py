"""The chaos suite: every recovery path ends byte-identical (DESIGN.md §13).

Each test injects a deterministic fault through the
:mod:`repro.campaigns.faults` plane (``REPRO_FAULTS`` crosses process
boundaries for free), lets the resilience layer recover, and asserts the
**acceptance invariant**: the final store is byte-identical to a
fault-free run of the same golden spec, quarantined cells land in
``failures.jsonl`` — and nothing ever aborts the campaign.

The ``kill -9`` test at the bottom is the one non-simulated fault: a
real ``SIGKILL`` mid-campaign plus hand-torn JSONL tails, resumed to a
complete store with zero duplicate simulations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaigns import CampaignExecutor, ResultStore, render_failures
from repro.campaigns.faults import TORN_JUNK
from repro.campaigns.resilience import FailureLedger, RetryPolicy

#: Milliseconds-scale backoff so retry storms don't slow the suite; the
#: schedule is still the production code path (deterministic jitter).
FAST = RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.002)


@pytest.fixture()
def golden_digests(golden_spec, run_backend, store_digests, monkeypatch):
    """Digests of a fault-free inline run — the recovery target bytes."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    _, store = run_backend("inline", "golden", golden_spec)
    return store_digests(store.root)


class TestInlineRecovery:
    def test_transient_raise_retries_to_identical_store(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """Every cell raises on attempt 1 and succeeds on attempt 2."""
        monkeypatch.setenv("REPRO_FAULTS", "raise:*@1")
        report, store = run_backend(
            "inline", "transient", golden_spec, retry_policy=FAST
        )
        assert report.failed == []
        assert report.retries == golden_spec.n_cells
        assert store_digests(store.root) == golden_digests
        assert not store.failures_path.exists()

    def test_poison_cell_is_quarantined_not_fatal(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """A cell that fails every attempt lands in the ledger; the other
        cells complete, the run returns normally, and a later fault-free
        run recovers the cell and prunes the ledger."""
        poison = golden_spec.cells()[0].key
        monkeypatch.setenv("REPRO_FAULTS", f"raise:{poison}@0")
        report, store = run_backend(
            "inline", "poison", golden_spec, retry_policy=FAST
        )
        assert report.failed_keys == [poison]
        assert report.failed[0].attempts == FAST.max_attempts
        assert len(report.executed) == golden_spec.n_cells - 1
        ledger = FailureLedger(store.failures_path)
        assert [e["cell"] for e in ledger.entries()] == [poison]
        assert poison in render_failures(golden_spec, store)
        # Fault-free re-run into the SAME store: only the poison cell
        # executes, the ledger is pruned, bytes match the golden run.
        monkeypatch.delenv("REPRO_FAULTS")
        again = CampaignExecutor(
            golden_spec, store, serial=True, retry_policy=FAST
        ).run()
        assert [r.cell.key for r in again.executed] == [poison]
        assert again.failed == []
        assert not store.failures_path.exists()
        assert store_digests(store.root) == golden_digests


class TestPoolRecovery:
    def test_worker_crash_is_retried_to_identical_store(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """One cell's worker dies hard (os._exit) on attempt 1; the pool
        is rebuilt, in-flight innocents are requeued, and the retry
        completes the grid byte-identically."""
        victim = golden_spec.cells()[0].key
        monkeypatch.setenv("REPRO_FAULTS", f"crash:{victim}@1")
        report, store = run_backend(
            "pool", "crash-one", golden_spec, retry_policy=FAST
        )
        assert report.failed == []
        assert report.retries >= 1
        assert report.requeues >= 1
        assert store_digests(store.root) == golden_digests

    def test_every_cell_crashing_once_still_completes(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """The BrokenProcessPool worst case: every first attempt kills
        the pool.  Ambiguous breakage degrades the pool, single-cell
        breakage is attributed, and each cell is charged exactly one
        failed attempt — the campaign finishes degraded, never aborts."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:*@1")
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        report, store = run_backend(
            "pool", "crash-all", golden_spec, retry_policy=FAST
        )
        assert report.failed == []
        assert report.retries == golden_spec.n_cells
        assert store_digests(store.root) == golden_digests
        telemetry = store.telemetry_path.read_text()
        assert '"cell.retry"' in telemetry

    def test_transient_raise_retries_to_identical_store(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """Every cell's task raises on attempt 1: each cell is charged
        once and its retry lands the golden bytes."""
        monkeypatch.setenv("REPRO_FAULTS", "raise:*@1")
        report, store = run_backend(
            "pool", "transient", golden_spec, retry_policy=FAST
        )
        assert report.failed == []
        assert report.retries == golden_spec.n_cells
        assert report.requeues == 0  # a raise loses no worker
        assert store_digests(store.root) == golden_digests

    def test_poison_cell_is_quarantined_not_fatal(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """A cell whose task raises on every attempt is quarantined into
        the ledger once; the other cells complete in the same run."""
        poison = golden_spec.cells()[0].key
        monkeypatch.setenv("REPRO_FAULTS", f"raise:{poison}@0")
        report, store = run_backend(
            "pool", "poison", golden_spec, retry_policy=FAST
        )
        assert report.failed_keys == [poison]
        assert report.failed[0].attempts == FAST.max_attempts
        assert len(report.executed) == golden_spec.n_cells - 1
        ledger = FailureLedger(store.failures_path)
        assert [e["cell"] for e in ledger.entries()] == [poison]
        golden_without_poison = {
            name: digest for name, digest in golden_digests.items()
            if name != f"{poison}.jsonl"
        }
        assert store_digests(store.root) == golden_without_poison

    def test_single_worker_crash_is_attributed_once(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """At one worker only one cell is ever in flight, so a crash is
        charged to it (no degrade, no free requeue of bystanders)."""
        victim = golden_spec.cells()[2].key
        monkeypatch.setenv("REPRO_FAULTS", f"crash:{victim}@1")
        report, store = run_backend(
            "pool", "crash-1w", golden_spec, retry_policy=FAST,
            max_workers=1,
        )
        assert report.failed == []
        assert report.retries == 1
        assert report.requeues == 1
        assert store_digests(store.root) == golden_digests

    def test_failed_attempt_reruns_the_whole_cell(
        self, golden_spec, run_backend, store_digests, monkeypatch
    ):
        """A multi-job cell whose task raises on attempt 1 re-runs all of
        its jobs: nothing of the failed attempt is counted or cached, and
        every simulation lands in the sidecar exactly once."""
        spec = dataclasses.replace(golden_spec, n_networks=3)
        _, reference = run_backend("inline", "ref", spec)
        victim = spec.cells()[0].key
        monkeypatch.setenv("REPRO_FAULTS", f"raise:{victim}@1")
        report, store = run_backend(
            "pool", "rerun", spec, retry_policy=FAST
        )
        n_sims = spec.n_cells * spec.n_networks
        assert report.failed == [] and report.retries == 1
        assert report.simulations_executed == n_sims
        keys = [
            json.loads(line)["key"]
            for line in store.eval_cache_path.read_text().splitlines()
        ]
        assert len(keys) == len(set(keys)) == n_sims
        assert store_digests(store.root) == store_digests(reference.root)

    def test_hung_worker_trips_cell_timeout(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """A worker wedges for far longer than the per-cell timeout; the
        driver expires the lease, kills the pool, and retries."""
        victim = golden_spec.cells()[0].key
        monkeypatch.setenv("REPRO_FAULTS", f"hang(30):{victim}@1")
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.001, max_delay_s=0.002,
            cell_timeout_s=1.0,
        )
        t0 = time.monotonic()
        report, store = run_backend(
            "pool", "hang-hard", golden_spec, retry_policy=policy
        )
        assert time.monotonic() - t0 < 25.0  # killed, not slept out
        assert report.failed == []
        assert report.retries >= 1
        assert store_digests(store.root) == golden_digests
        assert '"cell.hung"' in store.telemetry_path.read_text()

    def test_cell_hung_on_every_attempt_is_quarantined(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """A cell that wedges on every attempt spends its budget on cell
        timeouts and lands in the ledger charged with them; the run
        still completes every other cell."""
        victim = golden_spec.cells()[0].key
        monkeypatch.setenv("REPRO_FAULTS", f"hang(30):{victim}@0")
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_delay_s=0.002,
            cell_timeout_s=0.5,
        )
        t0 = time.monotonic()
        report, store = run_backend(
            "pool", "hang-poison", golden_spec, retry_policy=policy
        )
        assert time.monotonic() - t0 < 25.0  # killed, not slept out
        assert report.failed_keys == [victim]
        assert report.failed[0].attempts == 2
        assert len(report.executed) == golden_spec.n_cells - 1
        [entry] = FailureLedger(store.failures_path).entries()
        assert entry["cell"] == victim
        assert entry["error"] == "hung: attempt 2 passed its cell timeout"
        assert store_digests(store.root) == {
            name: digest for name, digest in golden_digests.items()
            if name != f"{victim}.jsonl"
        }


class TestTornTailRecovery:
    def test_torn_store_tails_heal_without_resimulation(
        self, golden_spec, golden_digests, run_backend, store_digests,
        monkeypatch,
    ):
        """Every freshly written cell file gets a torn tail (the crash
        mid-append shape).  The next run heals each file atomically back
        to canonical bytes — zero simulations, golden-identical."""
        monkeypatch.setenv("REPRO_FAULTS", "torn-tail:*@1")
        report, store = run_backend(
            "inline", "torn", golden_spec, retry_policy=FAST
        )
        assert len(report.executed) == golden_spec.n_cells
        damaged = store_digests(store.root)
        assert damaged != golden_digests  # the junk really landed
        assert store.status(golden_spec).pending == golden_spec.n_cells
        monkeypatch.delenv("REPRO_FAULTS")
        again = CampaignExecutor(
            golden_spec, store, serial=True, retry_policy=FAST
        ).run()
        assert again.executed == []
        assert again.simulations_executed == 0
        assert len(again.skipped) == golden_spec.n_cells
        assert store_digests(store.root) == golden_digests
        assert store.status(golden_spec).is_complete


#: Child campaign for the kill -9 test — must mirror the golden_spec
#: fixture exactly (the parent asserts byte-identity against it).
_CHILD_SCRIPT = """\
import sys
from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore

spec = CampaignSpec(
    name="golden",
    densities=(100,),
    mobility_models=("random-walk", "random-waypoint"),
    n_seeds=3,
    n_networks=1,
    n_nodes=8,
)
store = ResultStore(sys.argv[1])
CampaignExecutor(spec, store, serial=True).run(
    progress=lambda r: print(r.cell.key, flush=True)
)
"""


class TestKillNineResume:
    def test_sigkill_mid_campaign_resumes_byte_identical(
        self, golden_spec, golden_digests, store_digests, tmp_path,
        monkeypatch,
    ):
        """The real thing: SIGKILL a running campaign, tear the tails of
        every JSONL the crash could have been mid-append on, then resume
        — the store completes byte-identical with zero duplicate
        simulations (every evaluation key recorded exactly once)."""
        root = tmp_path / "killed"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            REPRO_TELEMETRY="on",
            # Throttle each cell ~0.4s through the fault plane so the
            # kill lands mid-campaign deterministically.
            REPRO_FAULTS="hang(0.4):*@0",
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(root)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            first = proc.stdout.readline().strip()  # one cell is on disk
            assert first
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        store = ResultStore(root)
        complete_before = [
            c for c in golden_spec.cells() if store.is_complete(c)
        ]
        assert 0 < len(complete_before) < golden_spec.n_cells

        # Tear every tail a crash could plausibly have been mid-append
        # on: a completed cell file, the telemetry stream, the cache.
        with store.cell_path(complete_before[0]).open("a") as fh:
            fh.write(TORN_JUNK)
        with store.telemetry_path.open("a") as fh:
            fh.write('{"v":1,"kind":"event","name":"torn')
        with store.eval_cache_path.open("a") as fh:
            fh.write('{"key":"torn')

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        report = CampaignExecutor(golden_spec, store, serial=True).run()
        assert report.failed == []
        assert store.status(golden_spec).is_complete
        assert store_digests(store.root) == golden_digests

        # Zero duplicate simulations: completed cells were skipped (or
        # healed), and every evaluation landed in the cache exactly once.
        executed = {r.cell.key for r in report.executed}
        assert executed.isdisjoint({c.key for c in complete_before})
        keys = [
            json.loads(line)["key"]
            for line in store.eval_cache_path.read_text().splitlines()
            if line.strip() and not line.startswith('{"key":"torn')
        ]
        assert len(keys) == len(set(keys)) == golden_spec.n_cells

    @pytest.mark.compiled
    def test_sigkill_resume_with_compiled_core_enabled(
        self, golden_spec, golden_digests, store_digests, tmp_path,
        monkeypatch,
    ):
        """Same SIGKILL scenario with ``REPRO_COMPILED=on`` in both the
        killed child and the resuming parent: a crash mid-kernel-run
        leaves nothing half-written (the kernel's writeback is in-memory
        only; persistence stays in the store layer), and the resumed
        store is byte-identical to the fault-free reference."""
        root = tmp_path / "killed-compiled"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            REPRO_COMPILED="on",
            REPRO_FAULTS="hang(0.4):*@0",
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(root)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            first = proc.stdout.readline().strip()
            assert first
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        store = ResultStore(root)
        complete_before = [
            c for c in golden_spec.cells() if store.is_complete(c)
        ]
        assert 0 < len(complete_before) < golden_spec.n_cells
        with store.cell_path(complete_before[0]).open("a") as fh:
            fh.write(TORN_JUNK)

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_COMPILED", "on")
        report = CampaignExecutor(golden_spec, store, serial=True).run()
        assert report.failed == []
        assert store.status(golden_spec).is_complete
        assert store_digests(store.root) == golden_digests
        executed = {r.cell.key for r in report.executed}
        assert executed.isdisjoint({c.key for c in complete_before})
