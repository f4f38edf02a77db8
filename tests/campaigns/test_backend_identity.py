"""The golden bit-identity harness: every backend, byte-identical stores.

DESIGN.md §10's headline invariant, pinned in one place instead of the
ad-hoc per-PR identity checks that preceded it: for the same
:class:`CampaignSpec`, the ``inline``, ``pool``, ``shard:2``, and
``remote:2`` (loopback transport — shards shipped as bundles to
subprocess workers and streamed back) backends must persist
**byte-identical** result records — and a standalone ``campaign merge`` of
kept shard stores must equal the single-store run.  Re-running any
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
    ShardBackend,
)

BACKENDS = ("inline", "pool", "shard:2", "remote:2")


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
