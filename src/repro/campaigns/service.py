"""Campaign daemon: a file-queue service over the shard bundle protocol.

The minimal fleet runtime (DESIGN.md §15): campaigns are **submitted**
as content-keyed descriptors into a queue directory, a **daemon**
(``repro-aedb campaign serve``) drains the queue by running each
campaign through :class:`~repro.campaigns.backends.shard.ShardBackend`
with a :class:`QueueTransport`, and a fleet of **workers**
(``repro-aedb campaign worker``) claims leased shard tasks, executes
them with :func:`~repro.campaigns.backends.transport.execute_request`, and
reports back — all through one shared directory, so the service runs on
a laptop, a shared filesystem, or anything that can mount the root.

Root layout (everything atomic-rename staged, torn-tail tolerant)::

    <root>/queue/campaign-<digest>.json   submitted work (content-keyed)
    <root>/tasks/<task-id>/bundle/        one shard bundle (request.json,
                                          warm.jsonl, store/)
    <root>/tasks/<task-id>/todo           the claim token
    <root>/tasks/<task-id>/claimed-<w>    rename target: worker w owns it
    <root>/tasks/<task-id>/hb/            worker heartbeat files
    <root>/tasks/<task-id>/done           worker finished (result in bundle)
    <root>/tasks/<task-id>/failed.json    worker raised (error record)
    <root>/done/ | <root>/failed/         served campaign descriptors

Fault tolerance reuses the §13 machinery at service scope, not a new
protocol: a worker wraps each claimed task in
:func:`~repro.campaigns.resilience.heartbeat_file`, the serving side
arms a :class:`~repro.campaigns.resilience.LeaseTable` on claim and
extends it from a :class:`~repro.campaigns.resilience.HeartbeatMonitor`
over the task's ``hb/`` directory — so a ``kill -9``'d worker is
detected by silence, surfaces as a
:class:`~repro.campaigns.backends.transport.TransportError`, and the
shard backend's recovery loop requeues the shard's lost cells onto the
survivors.  Claims are atomic ``os.rename`` of the claim
token: two workers racing for one task cannot both win.

Resume is free: the store is content-keyed, so re-submitting or
re-serving a half-finished campaign re-executes only its pending cells,
and a requeued shard ships its partial store back out as the bundle
seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

from repro.campaigns.backends.shard import ShardBackend
from repro.campaigns.backends.transport import (
    REQUEST_FILE,
    RESULT_FILE,
    STORE_DIR,
    TransportError,
    execute_request,
    fetch_tree,
)
from repro.campaigns.resilience import (
    HeartbeatMonitor,
    LeaseTable,
    RetryPolicy,
    heartbeat_file,
    reset_heartbeat_dir,
)
from repro.campaigns.spec import CampaignSpec, canonical_json
from repro.campaigns.store import ResultStore

__all__ = [
    "QueueTransport",
    "CampaignDaemon",
    "submit_campaign",
    "serve_worker",
    "QUEUE_DIR",
    "TASKS_DIR",
]

QUEUE_DIR = "queue"
TASKS_DIR = "tasks"
DONE_DIR = "done"
FAILED_DIR = "failed"

#: Task-directory member names (the worker-visible protocol).
TODO_FILE = "todo"
DONE_FILE = "done"
FAILED_FILE = "failed.json"
BUNDLE_DIR = "bundle"
HB_DIR = "hb"

_task_counter = itertools.count()


def _atomic_write_json(path: Path, obj: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True, indent=1))
    os.replace(tmp, path)


# --------------------------------------------------------------------- #
def submit_campaign(
    root: str | Path,
    spec: CampaignSpec,
    store_dir: str | Path,
    name: str | None = None,
) -> Path:
    """Enqueue a campaign descriptor; returns the queue file path.

    Content-keyed on ``(spec, store)`` and therefore **idempotent**: a
    duplicate submit of the same campaign to the same store is a no-op
    returning the existing entry — safe to retry blindly, like every
    other write in the campaign layer.
    """
    root = Path(root)
    queue = root / QUEUE_DIR
    queue.mkdir(parents=True, exist_ok=True)
    descriptor = {
        "v": 1,
        "spec": json.loads(spec.to_json()),
        "store": str(Path(store_dir).resolve()),
    }
    digest = hashlib.sha1(
        canonical_json(descriptor).encode("utf-8")
    ).hexdigest()[:10]
    slug = name or "campaign"
    path = queue / f"{slug}-{digest}.json"
    if path.exists():
        return path
    _atomic_write_json(path, descriptor)
    return path


# --------------------------------------------------------------------- #
class QueueTransport:
    """ShardTransport over a shared task directory and a worker fleet.

    ``run_shard`` **stages** the bundle as an atomically-renamed task
    directory with a claim token, then **waits**: before a claim, for
    ``claim_timeout_s``; after one, on the §13 lease/heartbeat contract
    (silence past the policy's liveness window = lost worker).  Success
    fetches the bundle's store back with the same idempotent file copies
    the loopback transport uses; every failure path salvages whatever
    partial store the worker left before raising
    :class:`~repro.campaigns.backends.transport.TransportError`, so
    completed cells always merge back.
    """

    name = "queue"

    def __init__(
        self,
        root: str | Path,
        policy: RetryPolicy | None = None,
        poll_s: float = 0.05,
        claim_timeout_s: float = 60.0,
        task_timeout_s: float | None = None,
    ):
        """``policy`` supplies the heartbeat liveness window (a policy
        without ``heartbeat_s`` disables silence detection — then only
        ``task_timeout_s``, if set, bounds a claimed task)."""
        self.root = Path(root)
        self.policy = policy or RetryPolicy()
        self.poll_s = poll_s
        self.claim_timeout_s = claim_timeout_s
        self.task_timeout_s = task_timeout_s

    def run_shard(
        self, shard_key: str, bundle_dir: Path, dest_store: Path
    ) -> dict:
        task_dir = self._stage(shard_key, bundle_dir)
        bundle = task_dir / BUNDLE_DIR
        try:
            return self._await_result(shard_key, task_dir, bundle, dest_store)
        finally:
            shutil.rmtree(task_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def _stage(self, shard_key: str, bundle_dir: Path) -> Path:
        """Publish the bundle as a claimable task (atomic rename)."""
        tasks = self.root / TASKS_DIR
        tasks.mkdir(parents=True, exist_ok=True)
        task_id = f"{shard_key}-{os.getpid()}-{next(_task_counter):04d}"
        stage = tasks / f".stage-{task_id}"
        shutil.copytree(bundle_dir, stage / BUNDLE_DIR)
        (stage / HB_DIR).mkdir()
        (stage / TODO_FILE).write_text(shard_key + "\n")
        task_dir = tasks / task_id
        os.rename(stage, task_dir)
        return task_dir

    def _await_result(
        self, shard_key: str, task_dir: Path, bundle: Path, dest_store: Path
    ) -> dict:
        leases = LeaseTable(self.policy)
        monitor = HeartbeatMonitor(task_dir / HB_DIR)
        staged_t = time.monotonic()
        claimed_t: float | None = None
        while True:
            if (task_dir / DONE_FILE).exists():
                result_path = bundle / RESULT_FILE
                if not result_path.exists():
                    self._salvage(bundle, dest_store)
                    raise TransportError(
                        f"worker for {shard_key} reported done "
                        "without a result"
                    )
                summary = json.loads(result_path.read_text())
                fetch_tree(bundle / STORE_DIR, dest_store)
                return summary
            failed_path = task_dir / FAILED_FILE
            if failed_path.exists():
                self._salvage(bundle, dest_store)
                try:
                    error = json.loads(failed_path.read_text())
                except (OSError, json.JSONDecodeError):
                    error = {}
                raise TransportError(
                    f"worker for {shard_key} failed: "
                    f"{error.get('error', 'unknown error')}"
                )
            now = time.monotonic()
            if claimed_t is None:
                claimant = self._claimant(task_dir)
                if claimant is not None:
                    claimed_t = now
                    leases.acquire(shard_key, claimant, now=now)
                elif now - staged_t > self.claim_timeout_s:
                    raise TransportError(
                        f"no worker claimed {shard_key} within "
                        f"{self.claim_timeout_s}s"
                    )
            else:
                beats = monitor.poll()
                if shard_key in beats:
                    leases.beat(shard_key, now=now)
                if leases.expired(now=now):
                    self._salvage(bundle, dest_store)
                    raise TransportError(
                        f"worker for {shard_key} went silent "
                        "(heartbeat lease expired)"
                    )
                if (
                    self.task_timeout_s is not None
                    and now - claimed_t > self.task_timeout_s
                ):
                    self._salvage(bundle, dest_store)
                    raise TransportError(
                        f"worker for {shard_key} exceeded "
                        f"{self.task_timeout_s}s"
                    )
            time.sleep(self.poll_s)

    @staticmethod
    def _claimant(task_dir: Path) -> str | None:
        for path in task_dir.glob("claimed-*"):
            return path.name[len("claimed-"):]
        return None

    @staticmethod
    def _salvage(bundle: Path, dest_store: Path) -> None:
        fetch_tree(bundle / STORE_DIR, dest_store, partial_ok=True)


# --------------------------------------------------------------------- #
def serve_worker(
    root: str | Path,
    worker_id: str | None = None,
    once: bool = False,
    poll_s: float = 0.05,
    stop=None,
) -> int:
    """Worker loop: claim shard tasks under ``root`` and execute them.

    Claiming is an atomic rename of the task's ``todo`` token to
    ``claimed-<worker_id>`` — exactly one racing worker wins.  Each
    claimed task runs under a service-scope heartbeat
    (:func:`~repro.campaigns.resilience.heartbeat_file`, cadence from
    the request's shipped retry policy), after scrubbing any stale
    heartbeat files from a previous tenancy of the task directory.  A
    worker never dies of a task: execution errors are reported as the
    task's ``failed.json`` and the loop continues.  ``once=True`` drains
    the currently claimable tasks and returns; otherwise the loop polls
    until ``stop()`` (when given) returns true.  Returns the number of
    tasks processed.
    """
    root = Path(root)
    worker = worker_id or f"worker-{os.getpid()}"
    tasks_dir = root / TASKS_DIR
    processed = 0
    while True:
        claimed_any = False
        for todo in sorted(tasks_dir.glob(f"*/{TODO_FILE}")):
            task_dir = todo.parent
            try:
                os.rename(todo, task_dir / f"claimed-{worker}")
            except OSError:
                continue  # another worker won the rename
            claimed_any = True
            processed += 1
            _run_task(task_dir, worker)
        if once and (claimed_any or not sorted(
            tasks_dir.glob(f"*/{TODO_FILE}")
        )):
            return processed
        if stop is not None and stop():
            return processed
        time.sleep(poll_s)


def _run_task(task_dir: Path, worker: str) -> None:
    """Execute one claimed task; report ``done`` or ``failed.json``."""
    bundle = task_dir / BUNDLE_DIR
    try:
        request = json.loads((bundle / REQUEST_FILE).read_text())
        label = str(request.get("shard_key", task_dir.name))
        policy_dict = request.get("retry_policy") or {}
        interval = policy_dict.get("heartbeat_s")
        hb_dir = task_dir / HB_DIR
        # A re-staged task directory (or recycled PID) must not inherit
        # a previous tenant's beats — they would mask this worker dying.
        reset_heartbeat_dir(hb_dir)
        beat = (
            heartbeat_file(hb_dir, label, float(interval))
            if interval
            else nullcontext()
        )
        with beat:
            execute_request(bundle)
        (task_dir / DONE_FILE).write_text(worker + "\n")
    except Exception as exc:  # noqa: BLE001 - reported, never fatal
        try:
            _atomic_write_json(
                task_dir / FAILED_FILE,
                {"v": 1, "worker": worker, "error": repr(exc)},
            )
        except OSError:
            pass


# --------------------------------------------------------------------- #
class CampaignDaemon:
    """Drain the submit queue through the shard backend.

    One daemon instance serves campaigns sequentially (each campaign
    already fans out across the worker fleet shard-wise); a served
    descriptor moves to ``done/`` — or ``failed/`` with an error record,
    without stopping the queue.
    """

    def __init__(
        self,
        root: str | Path,
        n_shards: int = 2,
        policy: RetryPolicy | None = None,
        keep_shards: bool = False,
        poll_s: float = 0.05,
        claim_timeout_s: float = 60.0,
        task_timeout_s: float | None = None,
        max_workers: int | None = None,
    ):
        self.root = Path(root)
        self.n_shards = int(n_shards)
        self.policy = policy or RetryPolicy()
        self.keep_shards = keep_shards
        self.poll_s = poll_s
        self.claim_timeout_s = claim_timeout_s
        self.task_timeout_s = task_timeout_s
        self.max_workers = max_workers

    def transport(self) -> QueueTransport:
        return QueueTransport(
            self.root,
            policy=self.policy,
            poll_s=self.poll_s,
            claim_timeout_s=self.claim_timeout_s,
            task_timeout_s=self.task_timeout_s,
        )

    # ------------------------------------------------------------------ #
    def serve_once(self) -> list[dict]:
        """Serve every currently queued campaign; returns outcome rows
        ``{"name", "store", "ok", "report" | "error"}`` in queue order."""
        from repro.campaigns.executor import CampaignExecutor

        outcomes: list[dict] = []
        queue = self.root / QUEUE_DIR
        for path in sorted(queue.glob("*.json")) if queue.is_dir() else []:
            descriptor = json.loads(path.read_text())
            spec = CampaignSpec.from_json(
                json.dumps(descriptor["spec"])
            )
            store = ResultStore(descriptor["store"])
            backend = ShardBackend(
                self.n_shards,
                transport=self.transport(),
                max_workers=self.max_workers,
                keep_shards=self.keep_shards,
            )
            row = {"name": path.name, "store": descriptor["store"]}
            try:
                report = CampaignExecutor(
                    spec,
                    store,
                    backend=backend,
                    retry_policy=self.policy,
                    max_workers=self.max_workers,
                ).run()
            except Exception as exc:  # noqa: BLE001 - queue must drain
                row.update(ok=False, error=repr(exc))
                self._retire(path, FAILED_DIR)
            else:
                row.update(ok=True, report=report)
                self._retire(path, DONE_DIR)
            outcomes.append(row)
        return outcomes

    def serve_forever(self, stop=None) -> int:
        """Poll-and-serve until ``stop()`` (when given) returns true;
        returns campaigns served."""
        served = 0
        while True:
            served += len(self.serve_once())
            if stop is not None and stop():
                return served
            time.sleep(self.poll_s)

    def _retire(self, path: Path, subdir: str) -> None:
        dest = self.root / subdir
        dest.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest / path.name)
