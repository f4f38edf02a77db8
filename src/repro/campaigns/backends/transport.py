"""Shard bundles and the transports that ship them.

Every shard of :class:`~repro.campaigns.backends.shard.ShardBackend`
runs as a self-contained **bundle directory** —

* ``request.json`` — the shard work order (spec JSON, cell keys, shard
  index, serialized retry policy, forwarded attempt ledger);
* ``warm.jsonl``  — optional read-only warm start for the shard's
  evaluation-cache sidecar (a link to the parent's cache file);
* ``store/``      — optional seed store: the parent-side shard store
  left by an earlier (crashed or partially fetched) attempt, shipped so
  the worker *resumes* it instead of re-simulating completed cells.

:func:`write_request` writes a bundle and :func:`execute_request` runs
one — the single function that executes a shard's cells, whether in a
forked local worker writing the shard store in place (``shard:N``) or
behind a transport.  Everything the parent needs comes back as the
shard's :class:`~repro.campaigns.store.ResultStore` directory plus a
``result.json`` summary.  A transport implements exactly one method::

    run_shard(shard_key, bundle_dir, dest_store) -> dict   # the summary

and signals *any* worker loss — nonzero exit, SIGKILL, connection drop,
heartbeat silence — by raising :class:`TransportError`.  The backend
turns that into the same recovery path a dead local shard takes:
completed cells merge back from whatever partial store was fetched, the
genuinely lost cells are charged one attempt and requeued onto the
surviving shard count (DESIGN.md §15).

:class:`LoopbackTransport` runs the worker as a local subprocess
(``repro-aedb campaign shard-exec``) against a private scratch
directory and copies the store back file-by-file — the reference that
models the full ship/execute/fetch cycle, partial fetches included.  A
networked transport implements the same :class:`ShardTransport`
protocol around the same :func:`worker_command`.  The queue transport
behind the campaign daemon lives in :mod:`repro.campaigns.service`.

Fetches are **idempotent and crash-isolated**: every file is copied via
a temp file + ``os.replace`` in sorted order, so re-fetching a shard
(the retry-after-partial-fetch case) overwrites cleanly, and a fetch
that dies mid-way leaves only whole files — exactly the shapes
``ResultStore.merge_from`` already absorbs with dedup and torn-tail
skipping.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.campaigns.resilience import RetryPolicy
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns.backends.shard import ShardSpec

__all__ = [
    "ShardTransport",
    "TransportError",
    "LoopbackTransport",
    "fetch_tree",
    "worker_command",
    "write_request",
    "execute_request",
    "REQUEST_VERSION",
]

#: Names of the pieces of a shard bundle.
REQUEST_FILE = "request.json"
RESULT_FILE = "result.json"
WARM_FILE = "warm.jsonl"
STORE_DIR = "store"

#: ``request.json`` schema version (workers reject foreign versions).
REQUEST_VERSION = 1


class TransportError(RuntimeError):
    """A worker was lost (exit, kill, drop, silence) — requeue its shard."""


@runtime_checkable
class ShardTransport(Protocol):
    """The pluggable seam between the shard backend and the fleet."""

    name: str

    def run_shard(
        self, shard_key: str, bundle_dir: Path, dest_store: Path
    ) -> dict:  # pragma: no cover - protocol signature
        """Ship ``bundle_dir``, execute the shard, stream the store back
        into ``dest_store``; return the worker's ``result.json`` summary.
        Raises :class:`TransportError` on any worker loss."""
        ...


# --------------------------------------------------------------------- #
def fetch_tree(src: Path, dest: Path, partial_ok: bool = False) -> int:
    """Copy every file under ``src`` into ``dest`` (atomic per file).

    Sorted order, temp-file + ``os.replace`` per file: re-fetching is a
    clean overwrite and an interrupted fetch leaves only whole files.
    ``partial_ok=True`` is the failure-path salvage: copy what exists,
    swallow per-file errors (the merge layer skips incomplete cells
    anyway).  Returns the number of files copied.
    """
    src, dest = Path(src), Path(dest)
    if not src.is_dir():
        if partial_ok:
            return 0
        raise TransportError(f"no shard store to fetch at {src}")
    copied = 0
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        target = dest / path.relative_to(src)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=target.parent, prefix=f".{target.name}."
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(path.read_bytes())
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
            copied += 1
        except OSError:
            if not partial_ok:
                raise
    return copied


# --------------------------------------------------------------------- #
def write_request(
    bundle_dir: Path,
    *,
    spec: CampaignSpec,
    shard: "ShardSpec",
    use_cache: bool,
    warm_path: Path | None = None,
    seed_store: Path | None = None,
    mls_engine: str | None = None,
    policy: RetryPolicy | None = None,
    initial_attempts: dict[str, int] | None = None,
) -> Path:
    """Materialise one shard's work order as a transportable bundle."""
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    if warm_path is not None and Path(warm_path).exists():
        # A link, not a copy: the parent's cache grows with every
        # simulation and a local shard only reads it.  Transports stage
        # bundles with ``shutil.copytree``, which copies the target.
        os.symlink(Path(warm_path).resolve(), bundle_dir / WARM_FILE)
    if seed_store is not None and Path(seed_store).is_dir():
        # Resume shipping: the parent-side shard store from an earlier
        # attempt travels with the request, so the worker skips its
        # completed cells exactly like a resumed local shard.
        shutil.copytree(
            seed_store, bundle_dir / STORE_DIR, dirs_exist_ok=True
        )
    request = {
        "v": REQUEST_VERSION,
        "shard_key": shard.key,
        "shard_index": shard.index,
        "n_shards": shard.n_shards,
        "cells": list(shard.cell_keys),
        "spec": json.loads(spec.to_json()),
        "use_cache": bool(use_cache),
        "mls_engine": mls_engine,
        "retry_policy": (
            policy.as_dict() if policy is not None else None
        ),
        "initial_attempts": dict(initial_attempts or {}),
    }
    path = bundle_dir / REQUEST_FILE
    path.write_text(json.dumps(request, sort_keys=True, indent=1))
    return path


def execute_request(
    bundle_dir: str | Path,
    store_dir: str | Path | None = None,
    result_path: str | Path | None = None,
) -> dict:
    """The worker side: run one shard bundle, write store + summary.

    A serial in-shard :class:`~repro.campaigns.executor.CampaignExecutor`
    against the shard's own store (``<bundle>/store`` by default; a
    local ``shard:N`` worker passes the parent-side shard directory), its
    cache sidecar warmed read-only from ``warm.jsonl`` — one writer per
    file with any number of concurrent shards.  Parallelism comes from
    running shards concurrently, not from nesting pools.  The summary
    (written atomically to ``<bundle>/result.json``) carries only keys,
    counters and the store's :meth:`~ResultStore.content_digest`;
    records live in the store files.  ``repro-aedb campaign shard-exec``
    is the CLI face of this function.
    """
    from repro.campaigns.executor import CampaignExecutor
    from repro.tuning.cache import PersistentEvaluationCache

    bundle = Path(bundle_dir)
    request = json.loads((bundle / REQUEST_FILE).read_text())
    if request.get("v") != REQUEST_VERSION:
        raise ValueError(
            f"unsupported shard request version {request.get('v')!r} "
            f"in {bundle / REQUEST_FILE}"
        )
    spec = CampaignSpec.from_json(json.dumps(request["spec"]))
    store = ResultStore(
        Path(store_dir) if store_dir is not None else bundle / STORE_DIR
    )
    policy = None
    if request.get("retry_policy") is not None:
        policy = RetryPolicy.from_dict(request["retry_policy"])
    cache = None
    if request.get("use_cache"):
        cache = PersistentEvaluationCache(store.eval_cache_path)
        warm = bundle / WARM_FILE
        if warm.exists():
            cache.warm_from(str(warm))
    executor = CampaignExecutor(
        spec,
        store,
        serial=True,
        mls_engine=request.get("mls_engine"),
        eval_cache=cache,
        only_cells=tuple(request["cells"]),
        # With REPRO_TELEMETRY set (inherited from the parent), the
        # in-shard run streams to the shard store's telemetry.jsonl,
        # every line tagged with this shard's index; the parent folds
        # the file into its own stream after the merge (DESIGN.md §12).
        telemetry_attrs={"shard": int(request["shard_index"])},
        retry_policy=policy,
        initial_attempts={
            str(k): int(n)
            for k, n in (request.get("initial_attempts") or {}).items()
        },
    )
    # The parent emits the campaign-wide roll-up counters after the
    # merge; a shard re-emitting its slice would double-count them in
    # the folded stream.
    executor._emit_rollup_counters = False
    try:
        report = executor.run()
    finally:
        if cache is not None:
            cache.close()
    summary = {
        "v": REQUEST_VERSION,
        "shard_key": request["shard_key"],
        "shard_index": int(request["shard_index"]),
        "executed": [r.cell.key for r in report.executed],
        "resumed": [cell.key for cell in report.skipped],
        "failed": [
            [f.cell_key, f.attempts, f.error] for f in report.failed
        ],
        "cache_hits": report.cache_hits,
        "simulations_executed": report.simulations_executed,
        "store_digest": store.content_digest(),
    }
    out = Path(
        result_path if result_path is not None else bundle / RESULT_FILE
    )
    tmp = out.with_suffix(out.suffix + ".tmp")
    tmp.write_text(json.dumps(summary, sort_keys=True, indent=1))
    tmp.replace(out)
    return summary


def worker_command(
    request_dir: str, python: str = sys.executable
) -> list[str]:
    """The shard worker invocation every transport runs.

    ``repro-aedb campaign shard-exec --request <bundle>`` executes the
    bundle's cells against ``<bundle>/store`` and writes
    ``<bundle>/result.json`` — everything stays inside the bundle, so
    "fetch" is the same operation everywhere: copy the bundle's store
    out.
    """
    return [python, "-m", "repro", "campaign", "shard-exec",
            "--request", str(request_dir)]


def _repro_pythonpath() -> str:
    """PYTHONPATH that makes ``import repro`` work in a child process."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    if existing:
        return os.pathsep.join([src_root, existing])
    return src_root


# --------------------------------------------------------------------- #
class LoopbackTransport:
    """Localhost reference transport: subprocess worker, file copies.

    Models the full remote cycle — the worker runs in its **own scratch
    workdir** on a private copy of the bundle (it never touches the
    parent's store directly), and the shard store is streamed back with
    :func:`fetch_tree` — so every distributed failure shape (worker
    death, partial fetch, duplicate fetch) is reproducible on one
    machine.  ``REPRO_*`` toggles (faults, telemetry, compiled core)
    inherit through the environment like every other worker boundary.
    """

    name = "loopback"

    def __init__(
        self,
        python: str | None = None,
        timeout_s: float | None = None,
        env: dict | None = None,
    ):
        """``timeout_s`` hard-caps one shard execution (None = no cap);
        a timed-out worker is killed and reported as lost."""
        self.python = python or sys.executable
        self.timeout_s = timeout_s
        self.env = env

    def run_shard(
        self, shard_key: str, bundle_dir: Path, dest_store: Path
    ) -> dict:
        workdir = Path(tempfile.mkdtemp(prefix="repro-aedb-remote-"))
        try:
            bundle = workdir / "bundle"
            shutil.copytree(bundle_dir, bundle)
            env = dict(self.env if self.env is not None else os.environ)
            env["PYTHONPATH"] = _repro_pythonpath()
            try:
                proc = subprocess.run(
                    worker_command(str(bundle), self.python),
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=self.timeout_s,
                )
            except subprocess.TimeoutExpired as exc:
                self._salvage(bundle, dest_store)
                raise TransportError(
                    f"worker for {shard_key} timed out after "
                    f"{self.timeout_s}s"
                ) from exc
            if proc.returncode != 0:
                # Partial fetch first: cells the worker completed before
                # dying merge back; only the rest is requeued.
                self._salvage(bundle, dest_store)
                tail = (proc.stderr or "").strip().splitlines()[-3:]
                raise TransportError(
                    f"worker for {shard_key} exited "
                    f"{proc.returncode}: {' | '.join(tail)}"
                )
            result_path = bundle / RESULT_FILE
            if not result_path.exists():
                self._salvage(bundle, dest_store)
                raise TransportError(
                    f"worker for {shard_key} exited 0 without a result"
                )
            summary = json.loads(result_path.read_text())
            fetch_tree(bundle / STORE_DIR, dest_store)
            return summary
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    @staticmethod
    def _salvage(bundle: Path, dest_store: Path) -> None:
        fetch_tree(bundle / STORE_DIR, dest_store, partial_ok=True)

