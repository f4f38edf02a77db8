"""Shard transports: ship a shard bundle to a worker, stream the store back.

The remote backend (:mod:`repro.campaigns.backends.remote`) is
deliberately transport-agnostic: everything a worker needs travels as a
self-contained **bundle directory** —

* ``request.json`` — the shard work order (spec JSON, cell keys, shard
  index, serialized retry policy, forwarded attempt ledger);
* ``warm.jsonl``  — optional read-only warm start for the shard's
  evaluation-cache sidecar (a copy of the parent's cache file);
* ``store/``      — optional seed store: the parent-side shard store
  left by an earlier (crashed or partially fetched) attempt, shipped so
  the worker *resumes* it exactly like a local shard worker would
  instead of re-simulating completed cells.

and everything the parent needs travels back as the shard's
:class:`~repro.campaigns.store.ResultStore` directory plus a
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

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Protocol, runtime_checkable

__all__ = [
    "ShardTransport",
    "TransportError",
    "LoopbackTransport",
    "fetch_tree",
    "worker_command",
]

#: Names of the pieces of a shard bundle (shared with remote.py).
REQUEST_FILE = "request.json"
RESULT_FILE = "result.json"
WARM_FILE = "warm.jsonl"
STORE_DIR = "store"


class TransportError(RuntimeError):
    """A worker was lost (exit, kill, drop, silence) — requeue its shard."""


@runtime_checkable
class ShardTransport(Protocol):
    """The pluggable seam between the remote backend and the fleet."""

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
        import json

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

