"""Campaign daemon end-to-end: queue, fleet, kill -9 recovery (§15).

The acceptance surface of the service layer: a submitted campaign runs
to a store byte-identical to an inline run **through real worker
processes** — including after a ``kill -9`` of one worker mid-run,
where the heartbeat lease expires, the shard requeues onto the
survivors, and resume ships the partial store back out so no
simulation ever runs twice.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaigns import (
    CampaignDaemon,
    CampaignExecutor,
    QueueTransport,
    ResultStore,
    RetryPolicy,
    TransportError,
    serve_worker,
    submit_campaign,
)
from repro.campaigns.service import TASKS_DIR, TODO_FILE

#: Service-scope policy for tests: milliseconds backoff, fast beats,
#: a liveness window long enough for slow CI but far under test budget.
SVC = RetryPolicy(
    max_attempts=3, base_delay_s=0.001, max_delay_s=0.002,
    heartbeat_s=0.05, heartbeat_timeout_s=1.5,
)

_REPRO_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _worker_proc(root, worker_id, extra_env=None):
    env = dict(os.environ, PYTHONPATH=_REPRO_ROOT)
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "worker",
         "--root", str(root), "--id", worker_id, "--poll", "0.02"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.fixture()
def inline_digests(golden_spec, run_backend, store_digests):
    _, store = run_backend("inline", "golden-ref", golden_spec)
    return store_digests(store.root)


class TestSubmit:
    def test_submit_is_content_keyed_and_idempotent(
        self, golden_spec, tmp_path
    ):
        root = tmp_path / "svc"
        first = submit_campaign(root, golden_spec, tmp_path / "store")
        assert first.is_file()
        assert submit_campaign(
            root, golden_spec, tmp_path / "store"
        ) == first
        other = submit_campaign(root, golden_spec, tmp_path / "elsewhere")
        assert other != first  # different store = different campaign
        descriptor = json.loads(first.read_text())
        assert descriptor["store"] == str((tmp_path / "store").resolve())


class TestWorkerClaim:
    def test_racing_claims_have_exactly_one_winner(
        self, golden_spec, tmp_path
    ):
        """Both workers race the same staged task; the atomic rename
        lets exactly one win and the loser moves on."""
        from repro.campaigns.backends.shard import partition_cells
        from repro.campaigns.backends.transport import write_request

        root = tmp_path / "svc"
        shard = [
            s for s in partition_cells(golden_spec.cells(), 2) if s.cells
        ][0]
        task_dir = root / TASKS_DIR / "task-0"
        write_request(
            task_dir / "bundle", spec=golden_spec, shard=shard,
            use_cache=False,
        )
        (task_dir / "hb").mkdir()
        (task_dir / TODO_FILE).write_text(shard.key + "\n")
        counts = {}
        threads = [
            threading.Thread(
                target=lambda w: counts.__setitem__(
                    w, serve_worker(root, worker_id=w, once=True)
                ),
                args=(w,),
            )
            for w in ("w1", "w2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sorted(counts.values()) == [0, 1]
        assert (task_dir / "done").exists()


class TestDaemonEndToEnd:
    def test_served_campaign_is_byte_identical_to_inline(
        self, golden_spec, tmp_path, store_digests, inline_digests
    ):
        """Submit → in-process worker thread → daemon: same bytes as
        the serial reference, queue entry retired to done/."""
        root = tmp_path / "svc"
        store_dir = tmp_path / "store"
        submit_campaign(root, golden_spec, store_dir)
        stop = threading.Event()
        worker = threading.Thread(
            target=serve_worker,
            args=(root,),
            kwargs=dict(poll_s=0.02, stop=stop.is_set),
            daemon=True,
        )
        worker.start()
        try:
            rows = CampaignDaemon(
                root, n_shards=2, policy=SVC, poll_s=0.02,
                claim_timeout_s=30.0,
            ).serve_once()
        finally:
            stop.set()
            worker.join(timeout=10)
        assert [r["ok"] for r in rows] == [True]
        report = rows[0]["report"]
        assert len(report.executed) == golden_spec.n_cells
        assert report.failed == []
        assert store_digests(store_dir) == inline_digests
        done = list((root / "done").glob("*.json"))
        assert len(done) == 1 and not list((root / "queue").glob("*"))

    def test_unclaimed_shards_quarantine_like_dead_local_ones(
        self, golden_spec, tmp_path
    ):
        """No workers at all: every dispatch times out unclaimed, the
        cells burn their retry budget through the normal requeue path,
        and the campaign *completes* with quarantines — never hangs,
        never aborts (the remote twin of a dead local shard)."""
        root = tmp_path / "svc"
        store_dir = tmp_path / "store"
        submit_campaign(root, golden_spec, store_dir)
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_delay_s=0.002,
        )
        rows = CampaignDaemon(
            root, n_shards=2, policy=policy, poll_s=0.02,
            claim_timeout_s=0.2,
        ).serve_once()
        assert [r["ok"] for r in rows] == [True]
        report = rows[0]["report"]
        assert len(report.failed) == golden_spec.n_cells
        assert ResultStore(store_dir).failures_path.exists()


class TestKillNineWorker:
    def test_sigkilled_worker_requeues_onto_survivor_byte_identical(
        self, golden_spec, tmp_path, store_digests, inline_digests,
    ):
        """The PR's acceptance scenario.  Worker A (wedged by the fault
        plane) claims the first shard task and is ``kill -9``'d; its
        heartbeat goes silent, the serving side expires the lease and
        requeues the shard's cells onto the survivors; worker B (clean)
        drains everything.  The final store is byte-identical to the
        inline reference and no simulation ran twice."""
        root = tmp_path / "svc"
        store_dir = tmp_path / "store"
        submit_campaign(root, golden_spec, store_dir)

        # Worker A hangs 30s inside its first cell's first attempt —
        # long past the test, so only SIGKILL ends it; its heartbeat
        # thread keeps beating until the kill, proving silence (not the
        # hang itself) is what trips the lease.
        worker_a = _worker_proc(
            root, "kill-me", {"REPRO_FAULTS": "hang(30):*@1"}
        )
        worker_b = None
        killed = threading.Event()

        def assassin():
            nonlocal worker_b
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if list((root / TASKS_DIR).glob("*/claimed-kill-me")):
                    time.sleep(0.3)  # let a few beats land first
                    os.kill(worker_a.pid, signal.SIGKILL)
                    killed.set()
                    worker_b = _worker_proc(root, "survivor")
                    return
                time.sleep(0.02)

        killer = threading.Thread(target=assassin, daemon=True)
        killer.start()
        try:
            rows = CampaignDaemon(
                root, n_shards=2, policy=SVC, poll_s=0.02,
                claim_timeout_s=45.0,
            ).serve_once()
        finally:
            killer.join(timeout=60)
            worker_a.wait(timeout=10)
            if worker_b is not None:
                worker_b.kill()
                worker_b.wait(timeout=10)
        assert killed.is_set(), "worker A never claimed a task"
        assert worker_a.returncode == -signal.SIGKILL

        assert [r["ok"] for r in rows] == [True]
        report = rows[0]["report"]
        assert report.failed == []
        assert report.requeues >= 1  # the lost shard really requeued
        assert len(report.executed) == golden_spec.n_cells
        store = ResultStore(store_dir)
        assert store_digests(store.root) == inline_digests
        # Zero duplicate simulations on resume: every evaluation key
        # landed in the merged cache sidecar exactly once.
        keys = [
            json.loads(line)["key"]
            for line in store.eval_cache_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(keys) == len(set(keys)) == golden_spec.n_cells


class TestQueueTransportLiveness:
    def test_claimed_then_silent_task_expires_the_lease(
        self, golden_spec, tmp_path
    ):
        """A claim with no heartbeats at all (worker died between the
        rename and its first beat): the liveness window from acquisition
        expires the lease — no beat required to detect the death."""
        from repro.campaigns.backends.shard import partition_cells
        from repro.campaigns.backends.transport import write_request

        root = tmp_path / "svc"
        shard = [
            s for s in partition_cells(golden_spec.cells(), 2) if s.cells
        ][0]
        bundle = tmp_path / "bundle"
        write_request(
            bundle, spec=golden_spec, shard=shard, use_cache=False
        )
        transport = QueueTransport(
            root,
            policy=RetryPolicy(heartbeat_s=0.05, heartbeat_timeout_s=0.3),
            poll_s=0.02,
            claim_timeout_s=30.0,
        )

        def claim_and_vanish():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                todos = list((root / TASKS_DIR).glob(f"*/{TODO_FILE}"))
                if todos:
                    os.rename(
                        todos[0], todos[0].parent / "claimed-ghost"
                    )
                    return
                time.sleep(0.01)

        ghost = threading.Thread(target=claim_and_vanish, daemon=True)
        ghost.start()
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="silent"):
            transport.run_shard(shard.key, bundle, tmp_path / "dest")
        ghost.join(timeout=10)
        assert time.monotonic() - t0 < 20.0
        # The task directory was reclaimed on the failure path.
        assert not list((root / TASKS_DIR).iterdir())
