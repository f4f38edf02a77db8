"""Unit tests for the shard bundle and transport layer (DESIGN.md §15).

The identity harness (``test_backend_identity.py``) proves the
``shard:2`` and ``remote:2`` rows byte-identical end to end and the
chaos suite kills workers; this file pins the building blocks —
backend-string parsing (including the parse-time shard-count validation
regressions), the bundle request/execute round trip, transport fetch
semantics, and the fetched-store digest check — so a fleet failure
bisects to one seam.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignExecutor,
    LoopbackTransport,
    ResultStore,
    RetryPolicy,
    ShardBackend,
    TransportError,
    resolve_backend,
)
from repro.campaigns.backends import DEFAULT_SHARDS
from repro.campaigns.backends.shard import partition_cells
from repro.campaigns.backends.transport import (
    REQUEST_FILE,
    REQUEST_VERSION,
    STORE_DIR,
    execute_request,
    fetch_tree,
    worker_command,
    write_request,
)

#: Milliseconds-scale backoff so requeues don't slow the suite.
FAST = RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.002)


class TestResolveBackendValidation:
    """Regression: bad shard counts fail at *parse time*, naming the
    offending string — for the shard and remote families alike."""

    @pytest.mark.parametrize(
        "value",
        ["shard:0", "shard:-1", "shard:x",
         "remote:0", "remote:-1", "remote:x"],
    )
    def test_bad_count_raises_at_parse_time(self, value):
        with pytest.raises(ValueError, match="N >= 1") as excinfo:
            resolve_backend(value)
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize(
        "value", ["remote:2@carrier-pigeon", "remote:2@ssh:"]
    )
    def test_bad_transport_raises_naming_the_string(self, value):
        with pytest.raises(ValueError, match="unknown transport") as excinfo:
            resolve_backend(value)
        assert repr(value) in str(excinfo.value)

    def test_ssh_transport_is_rejected(self):
        # The ssh transport is gone; a host-carrying spelling must fail at
        # parse time rather than fall back to loopback.
        value = "remote:4@ssh:node7"
        with pytest.raises(ValueError, match="unknown transport") as excinfo:
            resolve_backend(value)
        assert repr(value) in str(excinfo.value)

    def test_bare_remote_defaults_to_loopback(self):
        backend = resolve_backend("remote")
        assert isinstance(backend, ShardBackend)
        assert backend.n_shards == DEFAULT_SHARDS
        assert isinstance(backend.transport, LoopbackTransport)
        assert backend.name == f"remote:{DEFAULT_SHARDS}@loopback"

    @pytest.mark.parametrize("value", ["remote:3", "remote:3@loopback"])
    def test_remote_n_parses_count_and_transport(self, value):
        backend = resolve_backend(value)
        assert backend.n_shards == 3
        assert isinstance(backend.transport, LoopbackTransport)

    def test_keep_shards_applies_to_remote(self):
        assert resolve_backend("remote:2", keep_shards=True).keep_shards


class TestRetryPolicyWire:
    def test_round_trips_through_dict(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.01, cell_timeout_s=2.0,
            heartbeat_s=0.25,
        )
        assert RetryPolicy.from_dict(policy.as_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            RetryPolicy.from_dict({"max_attempts": 2, "surprise": 1})


class TestBundleRoundTrip:
    def _shard(self, spec):
        shards = [
            s for s in partition_cells(spec.cells(), 2) if s.cells
        ]
        return shards[0]

    def test_execute_request_runs_the_shard_in_place(
        self, golden_spec, tmp_path
    ):
        shard = self._shard(golden_spec)
        bundle = tmp_path / "bundle"
        write_request(
            bundle, spec=golden_spec, shard=shard, use_cache=False,
            policy=RetryPolicy(), initial_attempts={},
        )
        summary = execute_request(bundle)
        assert summary["shard_key"] == shard.key
        assert sorted(summary["executed"]) == sorted(shard.cell_keys)
        assert summary["resumed"] == [] and summary["failed"] == []
        store = ResultStore(bundle / STORE_DIR)
        assert all(store.is_complete(c) for c in shard.cells)
        # The summary's digest is the fetched store's own fingerprint —
        # the end-to-end transfer check the serving side relies on.
        assert summary["store_digest"] == store.content_digest()
        assert json.loads(
            (bundle / "result.json").read_text()
        ) == summary

    def test_seed_store_resumes_instead_of_resimulating(
        self, golden_spec, tmp_path
    ):
        shard = self._shard(golden_spec)
        first = tmp_path / "b1"
        write_request(first, spec=golden_spec, shard=shard, use_cache=False)
        execute_request(first)
        second = tmp_path / "b2"
        write_request(
            second, spec=golden_spec, shard=shard, use_cache=False,
            seed_store=first / STORE_DIR,
        )
        summary = execute_request(second)
        assert summary["executed"] == []
        assert sorted(summary["resumed"]) == sorted(shard.cell_keys)
        assert summary["simulations_executed"] == 0

    def test_foreign_request_version_is_rejected(
        self, golden_spec, tmp_path
    ):
        shard = self._shard(golden_spec)
        bundle = tmp_path / "bundle"
        write_request(bundle, spec=golden_spec, shard=shard, use_cache=False)
        request = json.loads((bundle / REQUEST_FILE).read_text())
        request["v"] = REQUEST_VERSION + 1
        (bundle / REQUEST_FILE).write_text(json.dumps(request))
        with pytest.raises(ValueError, match="version"):
            execute_request(bundle)


class TestFetchTree:
    def test_copies_nested_files_and_overwrites(self, tmp_path):
        src = tmp_path / "src"
        (src / "cells").mkdir(parents=True)
        (src / "cells" / "a.jsonl").write_text("new\n")
        (src / "spec.json").write_text("{}")
        dest = tmp_path / "dest"
        (dest / "cells").mkdir(parents=True)
        (dest / "cells" / "a.jsonl").write_text("stale\n")
        assert fetch_tree(src, dest) == 2
        assert (dest / "cells" / "a.jsonl").read_text() == "new\n"
        # Re-fetch (the retry-after-partial case) is a clean overwrite.
        assert fetch_tree(src, dest) == 2

    def test_missing_source_raises_unless_partial_ok(self, tmp_path):
        with pytest.raises(TransportError):
            fetch_tree(tmp_path / "absent", tmp_path / "dest")
        assert fetch_tree(
            tmp_path / "absent", tmp_path / "dest", partial_ok=True
        ) == 0


class TestLoopbackTransport:
    def test_dead_worker_surfaces_as_transport_error(
        self, golden_spec, tmp_path
    ):
        """A worker that exits nonzero (here: a python that dies before
        the CLI parses) is a TransportError carrying the stderr tail —
        never a silent empty result."""
        shard = [
            s for s in partition_cells(golden_spec.cells(), 2) if s.cells
        ][0]
        bundle = tmp_path / "bundle"
        write_request(bundle, spec=golden_spec, shard=shard, use_cache=False)
        transport = LoopbackTransport(python="/bin/false")
        with pytest.raises(TransportError, match="exited"):
            transport.run_shard(shard.key, bundle, tmp_path / "dest")

    def test_worker_command_targets_the_module_cli(self, tmp_path):
        cmd = worker_command("/some/bundle", python="py3")
        assert cmd == [
            "py3", "-m", "repro", "campaign", "shard-exec",
            "--request", "/some/bundle",
        ]


class TestRemoteBackendGuards:
    @pytest.mark.parametrize("backend", ["shard:2", "remote:2"])
    def test_storeless_cacheless_run_matches_inline(
        self, backend, golden_spec
    ):
        """Neither a store nor a cache: shards run against temporary
        stores and the report still carries every cell's records."""

        def records(name):
            report = CampaignExecutor(
                golden_spec, store=None, backend=name, max_workers=2,
                eval_cache=None,
            ).run()
            return {r.cell.key: r.records for r in report.executed}

        expected = records("inline")
        assert len(expected) == golden_spec.n_cells
        assert records(backend) == expected

    @pytest.mark.parametrize("backend", ["shard:2", "remote:2"])
    def test_adhoc_scale_objects_cannot_cross_the_wire(
        self, backend, golden_spec, tmp_path
    ):
        from repro.experiments.config import get_scale

        with pytest.raises(ValueError, match="scale"):
            CampaignExecutor(
                golden_spec, ResultStore(tmp_path / "s"),
                backend=backend, scale=get_scale("quick"),
            ).run()


def _alter_one_digit(text: str) -> str:
    """Change the first decimal digit of the first record line."""
    lines = text.splitlines(keepends=True)
    lines[1], n = re.subn(
        r"\.(\d)", lambda m: f".{(int(m.group(1)) + 1) % 10}", lines[1],
        count=1,
    )
    assert n == 1
    return "".join(lines)


class TestFetchDigest:
    @pytest.mark.parametrize(
        "damage",
        [_alter_one_digit, lambda text: text[: len(text) // 2]],
        ids=["altered-cell", "torn-cell"],
    )
    def test_damaged_fetch_requeues_to_identical_store(
        self, damage, golden_spec, run_backend, store_digests
    ):
        """One fetched cell file is damaged after a clean worker run.
        The store no longer digests as the worker's summary says, so
        the shard is dropped and requeued — never merged — and the run
        ends byte-identical to inline."""
        _, reference = run_backend("inline", "golden", golden_spec)

        class Damaging(LoopbackTransport):
            def __init__(self):
                super().__init__()
                self.lock = threading.Lock()
                self.damaged = False

            def run_shard(self, shard_key, bundle_dir, dest_store):
                summary = super().run_shard(shard_key, bundle_dir, dest_store)
                with self.lock:
                    if not self.damaged:
                        self.damaged = True
                        path = sorted(
                            Path(dest_store, "cells").glob("*.jsonl")
                        )[0]
                        path.write_text(damage(path.read_text()))
                return summary

        transport = Damaging()
        report, store = run_backend(
            ShardBackend(2, transport=transport), "damaged", golden_spec,
            retry_policy=FAST,
        )
        assert transport.damaged
        assert report.failed == []
        assert report.requeues >= 1
        assert len(report.executed) == golden_spec.n_cells
        assert store_digests(store.root) == store_digests(reference.root)
