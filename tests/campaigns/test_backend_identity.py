"""The golden bit-identity harness: every backend, byte-identical stores.

DESIGN.md §10's headline invariant, pinned in one place instead of the
ad-hoc per-PR identity checks that preceded it: for the same
:class:`CampaignSpec`, the ``inline``, ``pool`` and ``shard:2``
backends must persist **byte-identical** result records — and a
standalone ``campaign merge`` of kept shard stores must equal the
single-store run.  Re-running any
backend against a populated evaluation cache must execute zero
simulations.

Seeds are fully pinned by the spec (``master_seed`` fans out every
stream), so this file is deterministic under any test ordering; CI's
tier-2 job runs it with 2 workers.
"""

import json

import pytest

from repro.campaigns import (
    CampaignExecutor,
    ResultStore,
    RetryPolicy,
    ShardBackend,
)
from repro.campaigns.backends.shard import partition_cells, run_shard

BACKENDS = ("inline", "pool", "shard:2")


def eval_cache_keys_at(path) -> set:
    try:
        text = path.read_text()
    except FileNotFoundError:
        return set()
    return {
        json.loads(line)["key"] for line in text.splitlines() if line.strip()
    }


def eval_cache_keys(store: ResultStore) -> set:
    return eval_cache_keys_at(store.eval_cache_path)


def first_shard(spec):
    """The first non-empty shard of ``spec``'s ``shard:2`` partition."""
    return next(s for s in partition_cells(spec.cells(), 2) if s.cells)


def run_shard_into(spec, shard, store_dir, use_cache=False, warm_path=None):
    """One :func:`run_shard` call with the default policy, no engine
    override and no pre-charged attempts."""
    return run_shard(
        spec.to_json(), shard.cell_keys, shard.index, str(store_dir),
        warm_path, use_cache, None, RetryPolicy(), {},
    )


@pytest.fixture()
def golden_digests(golden_spec, run_backend, store_digests):
    """The inline reference store's digests (the golden bytes)."""
    _, store = run_backend("inline", "golden", golden_spec)
    return store_digests(store.root)


class TestGoldenIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_is_bit_identical_to_inline(
        self, backend, golden_spec, golden_digests, run_backend, store_digests
    ):
        report, store = run_backend(backend, f"b-{backend}", golden_spec)
        assert len(report.executed) == golden_spec.n_cells
        assert report.simulations_executed == report.n_simulations
        digests = store_digests(store.root)
        assert digests and digests == golden_digests

    @pytest.mark.compiled
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_with_compiled_core_on(
        self,
        backend,
        golden_spec,
        golden_digests,
        run_backend,
        store_digests,
        monkeypatch,
    ):
        """REPRO_COMPILED=on: the compiled event core (DESIGN.md §14)
        must persist the same bytes as the reference run — through every
        backend, workers included (the mode is resolved at simulator
        construction inside each worker process, and ``on`` makes a
        missing extension a hard error rather than a silent skew)."""
        monkeypatch.setenv("REPRO_COMPILED", "on")
        _, store = run_backend(backend, f"co-{backend}", golden_spec)
        assert store_digests(store.root) == golden_digests

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_with_compiled_core_off(
        self,
        backend,
        golden_spec,
        golden_digests,
        run_backend,
        store_digests,
        monkeypatch,
    ):
        """REPRO_COMPILED=off: forcing the pure-Python reference path
        reproduces the golden bytes whatever the ambient default was
        when the golden store was written (on hosts with the extension
        the golden run used the kernel — identical either way)."""
        monkeypatch.setenv("REPRO_COMPILED", "off")
        _, store = run_backend(backend, f"cf-{backend}", golden_spec)
        assert store_digests(store.root) == golden_digests

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sidecars_agree_as_key_sets(
        self, backend, golden_spec, run_backend
    ):
        """Entry *order* is scheduling-dependent; the key set is not."""
        _, inline_store = run_backend("inline", "sc-inline", golden_spec)
        _, store = run_backend(backend, f"sc-{backend}", golden_spec)
        keys = eval_cache_keys(store)
        assert keys == eval_cache_keys(inline_store)
        assert len(keys) == golden_spec.n_cells * golden_spec.n_networks


class TestShardMerge:
    def test_standalone_merge_of_shards_equals_single_store(
        self, golden_spec, golden_digests, run_backend, store_digests, tmp_path
    ):
        """The acceptance path: shard run with kept shards, merged by
        hand into a fresh directory, equals the single-store run —
        records and evaluation-cache entries alike."""
        _, store = run_backend(
            ShardBackend(2, keep_shards=True), "kept", golden_spec
        )
        shard_dirs = sorted((store.root / "shards").iterdir())
        assert len(shard_dirs) == 2
        dest = ResultStore(tmp_path / "merged")
        reports = [dest.merge_from(d) for d in shard_dirs]
        assert sum(r.cells_merged for r in reports) == golden_spec.n_cells
        assert store_digests(dest.root) == golden_digests
        assert eval_cache_keys(dest) == eval_cache_keys(store)
        assert dest.status(golden_spec).is_complete
        # Idempotent: merging the same shards again is all dedup.
        again = [dest.merge_from(d) for d in shard_dirs]
        assert sum(r.cells_merged for r in again) == 0
        assert sum(r.cells_deduped for r in again) == golden_spec.n_cells
        assert store_digests(dest.root) == golden_digests

    def test_merged_store_resumes_with_nothing_pending(
        self, golden_spec, run_backend, tmp_path
    ):
        _, store = run_backend(
            ShardBackend(2, keep_shards=True), "kept", golden_spec
        )
        dest = ResultStore(tmp_path / "merged")
        for d in sorted((store.root / "shards").iterdir()):
            dest.merge_from(d)
        report = CampaignExecutor(golden_spec, dest, serial=True).run()
        assert report.executed == []
        assert len(report.skipped) == golden_spec.n_cells


class TestCachedRerun:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rerun_with_cache_executes_zero_simulations(
        self, backend, golden_spec, golden_digests, run_backend, store_digests
    ):
        """Fresh store + populated cache: 0 simulations, same bytes —
        for every backend (the shard backend must not even spawn)."""
        _, first = run_backend(backend, f"c1-{backend}", golden_spec)
        report, second = run_backend(
            backend,
            f"c2-{backend}",
            golden_spec,
            eval_cache=first.eval_cache_path,
        )
        assert report.simulations_executed == 0
        assert report.cache_hits == golden_spec.n_cells * golden_spec.n_networks
        assert len(report.executed) == golden_spec.n_cells
        assert store_digests(second.root) == golden_digests

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_cache_file_accumulates_for_every_backend(
        self, backend, golden_spec, run_backend, tmp_path
    ):
        """--cache semantics are backend-independent: new results land
        in the *shared* file (not the store sidecar), so the next
        campaign pointed at it simulates nothing."""
        shared = tmp_path / "shared.jsonl"
        report, store = run_backend(
            backend, f"x1-{backend}", golden_spec, eval_cache=shared
        )
        n = golden_spec.n_cells * golden_spec.n_networks
        assert report.simulations_executed == n
        assert len(eval_cache_keys_at(shared)) == n
        assert not store.eval_cache_path.exists()  # sidecar untouched
        again, _ = run_backend(
            backend, f"x2-{backend}", golden_spec, eval_cache=shared
        )
        assert again.simulations_executed == 0
        assert again.cache_hits == n

    def test_storeless_shard_run_still_feeds_the_cache(
        self, golden_spec, tmp_path
    ):
        shared = tmp_path / "shared.jsonl"
        n = golden_spec.n_cells * golden_spec.n_networks
        report = CampaignExecutor(
            golden_spec, store=None, backend="shard:2", max_workers=2,
            eval_cache=shared,
        ).run()
        assert report.simulations_executed == n
        assert len(eval_cache_keys_at(shared)) == n
        again = CampaignExecutor(
            golden_spec, store=None, backend="shard:2", max_workers=2,
            eval_cache=shared,
        ).run()
        assert again.simulations_executed == 0
        assert again.cache_hits == n


class TestShardGuards:
    def test_storeless_cacheless_run_matches_inline(self, golden_spec):
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
        assert records("shard:2") == expected

    def test_adhoc_scale_objects_are_rejected(self, golden_spec, tmp_path):
        from repro.experiments.config import get_scale

        with pytest.raises(ValueError, match="scale"):
            CampaignExecutor(
                golden_spec, ResultStore(tmp_path / "s"),
                backend="shard:2", scale=get_scale("quick"),
            ).run()

    def test_run_shard_twice_on_one_store_resumes(
        self, golden_spec, tmp_path
    ):
        """A second :func:`run_shard` on the same directory executes
        nothing: the completed cells are resumed from the store, and
        the summary's digest is the store's own fingerprint."""
        shard = first_shard(golden_spec)
        store_dir = tmp_path / "shard"

        def run():
            return run_shard_into(golden_spec, shard, store_dir)

        first = run()
        assert sorted(first["executed"]) == sorted(shard.cell_keys)
        assert first["resumed"] == [] and first["failed"] == []
        store = ResultStore(store_dir)
        assert all(store.is_complete(c) for c in shard.cells)
        assert first["store_digest"] == store.content_digest()
        second = run()
        assert second["executed"] == []
        assert sorted(second["resumed"]) == sorted(shard.cell_keys)
        assert second["simulations_executed"] == 0
        assert second["store_digest"] == first["store_digest"]

    def test_run_shard_writes_only_its_own_cells(self, golden_spec, tmp_path):
        shards = [
            s for s in partition_cells(golden_spec.cells(), 2) if s.cells
        ]
        assert len(shards) == 2
        run_shard_into(golden_spec, shards[0], tmp_path / "shard")
        store = ResultStore(tmp_path / "shard")
        assert all(store.is_complete(c) for c in shards[0].cells)
        assert not any(store.is_complete(c) for c in shards[1].cells)

    def test_run_shard_without_cache_writes_no_sidecar(
        self, golden_spec, tmp_path
    ):
        run_shard_into(golden_spec, first_shard(golden_spec), tmp_path / "s")
        assert not ResultStore(tmp_path / "s").eval_cache_path.exists()

    def test_run_shard_warms_from_the_parent_cache_path(
        self, golden_spec, tmp_path, store_digests
    ):
        """The shard reads the parent's cache file directly: a fully
        warm shard simulates nothing and writes the same cell bytes."""
        shard = first_shard(golden_spec)
        parent = ResultStore(tmp_path / "parent")
        cold = run_shard_into(golden_spec, shard, parent.root, use_cache=True)
        assert cold["simulations_executed"] == len(shard.cells)
        warm = run_shard_into(
            golden_spec, shard, tmp_path / "warm", use_cache=True,
            warm_path=str(parent.eval_cache_path),
        )
        assert warm["simulations_executed"] == 0
        assert warm["cache_hits"] == cold["simulations_executed"]
        assert sorted(warm["executed"]) == sorted(shard.cell_keys)
        assert warm["store_digest"] == cold["store_digest"]
        assert store_digests(tmp_path / "warm") == store_digests(parent.root)

    def test_run_shard_telemetry_is_tagged_and_has_no_rollups(
        self, golden_spec, tmp_path, monkeypatch
    ):
        """Every shard-stream line carries the shard index, and the
        campaign-wide roll-up counters are left to the parent (a shard
        re-emitting its slice would double-count them after the fold)."""
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        shard = first_shard(golden_spec)
        run_shard_into(golden_spec, shard, tmp_path / "s")
        lines = [
            json.loads(line)
            for line in ResultStore(tmp_path / "s")
            .telemetry_path.read_text()
            .splitlines()
        ]
        assert lines
        assert all(line["attrs"]["shard"] == shard.index for line in lines)
        assert not any(
            line["name"].startswith("campaign.") and line["kind"] == "count"
            for line in lines
        )


class TestShardCollect:
    """:meth:`ShardBackend._collect`, the parent's check of a finished
    shard's store against the digest its worker reported."""

    def test_matching_store_yields_every_done_cell(
        self, golden_spec, tmp_path
    ):
        shard = first_shard(golden_spec)
        summary = run_shard_into(golden_spec, shard, tmp_path / "s")
        got, results = ShardBackend._collect(shard, tmp_path / "s", summary)
        assert got is summary
        store = ResultStore(tmp_path / "s")
        assert [r.cell for r in results] == list(shard.cells)
        assert all(r.records == store.read_cell(r.cell) for r in results)

    def test_digest_mismatch_raises_and_discards_the_store(
        self, golden_spec, tmp_path
    ):
        shard = first_shard(golden_spec)
        summary = run_shard_into(golden_spec, shard, tmp_path / "s")
        summary["store_digest"] = "0" * 40
        with pytest.raises(RuntimeError, match=shard.key):
            ShardBackend._collect(shard, tmp_path / "s", summary)
        assert not (tmp_path / "s").exists()
