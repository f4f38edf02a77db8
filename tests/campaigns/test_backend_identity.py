"""The golden bit-identity harness: both backends, byte-identical stores.

DESIGN.md §10's headline invariant, pinned in one place: for the same
:class:`CampaignSpec`, the ``inline`` and ``pool`` backends must persist
**byte-identical** result records.  Re-running either backend against a
populated evaluation cache must execute zero simulations, and a
half-warm cache must leave the same bytes with only the uncached half
simulated.  The pool's unit of work — one task per cell, built and
simulated in the worker — is pinned here too.

Seeds are fully pinned by the spec (``master_seed`` fans out every
stream), so this file is deterministic under any test ordering; CI's
tier-2 job runs it with 2 workers.
"""

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore
from repro.campaigns import executor as executor_mod
from repro.campaigns.backends import pool as pool_mod
from repro.manet import ScenarioRuntime, clear_runtime_cache
from repro.tuning import PersistentEvaluationCache

BACKENDS = ("inline", "pool")


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


def warm_cache(path, spec, picks) -> None:
    """Store the simulations ``picks`` names (``{cell index: [job
    indices]}``) in the cache at ``path``, computed in this process."""
    executor = CampaignExecutor(spec)
    cells = spec.cells()
    cache = PersistentEvaluationCache(path)
    for cell_index, job_indices in picks.items():
        jobs = executor._jobs_for(cells[cell_index])
        for i in job_indices:
            job = jobs[i]
            cache.put_metrics(
                job.scenario, job.params, executor_mod._execute_job(job)
            )
    cache.close()


@pytest.fixture()
def golden_digests(golden_spec, run_backend, store_digests):
    """The inline reference store's digests (the golden bytes)."""
    _, store = run_backend("inline", "golden", golden_spec)
    return store_digests(store.root)


@pytest.fixture()
def pool_tasks(monkeypatch):
    """Every ``(function, args)`` the pool backend submits, recorded in
    the owner process."""
    tasks = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            tasks.append((fn, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordingPool)
    return tasks


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


class TestCachedRerun:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rerun_with_cache_executes_zero_simulations(
        self, backend, golden_spec, golden_digests, run_backend, store_digests
    ):
        """Fresh store + populated cache: 0 simulations, same bytes —
        for both backends (the pool backend must not even spawn)."""
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

    def test_storeless_pool_run_still_feeds_the_cache(
        self, golden_spec, tmp_path
    ):
        shared = tmp_path / "shared.jsonl"
        n = golden_spec.n_cells * golden_spec.n_networks
        report = CampaignExecutor(
            golden_spec, store=None, backend="pool", max_workers=2,
            eval_cache=shared,
        ).run()
        assert report.simulations_executed == n
        assert len(eval_cache_keys_at(shared)) == n
        again = CampaignExecutor(
            golden_spec, store=None, backend="pool", max_workers=2,
            eval_cache=shared,
        ).run()
        assert again.simulations_executed == 0
        assert again.cache_hits == n

    def test_storeless_cacheless_pool_run_matches_inline(self, golden_spec):
        """Neither a store nor a cache: the report still carries every
        cell's records, equal to the inline run's."""

        def records(name):
            report = CampaignExecutor(
                golden_spec, store=None, backend=name, max_workers=2,
                eval_cache=None,
            ).run()
            return {r.cell.key: r.records for r in report.executed}

        expected = records("inline")
        assert len(expected) == golden_spec.n_cells
        assert records("pool") == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_half_warm_cell_simulates_only_its_uncached_half(
        self, backend, tmp_path, run_backend, store_digests
    ):
        """One evaluate cell over 4 networks, 2 of them in the cache:
        both backends write the golden bytes, simulating exactly the
        uncached half and serving the other half from disk."""
        spec = CampaignSpec(
            name="half", densities=(100,), n_networks=4, n_nodes=8
        )
        _, cold = run_backend("inline", "cold", spec, eval_cache=None)
        warm = tmp_path / "warm.jsonl"
        warm_cache(warm, spec, {0: [0, 2]})
        report, store = run_backend(
            backend, f"half-{backend}", spec, eval_cache=warm
        )
        assert report.simulations_executed == 2
        assert report.cache_hits == 2
        assert store_digests(store.root) == store_digests(cold.root)
        assert len(eval_cache_keys_at(warm)) == 4


class TestPoolUnit:
    """The pool's unit of work is one cell: one task per cell with
    uncached jobs, and the worker that runs it builds its runtimes."""

    def test_one_task_per_cell_with_uncached_jobs(
        self, golden_spec, pool_tasks, tmp_path, run_backend, store_digests
    ):
        spec = dataclasses.replace(golden_spec, n_networks=2)
        _, reference = run_backend("inline", "ref", spec, eval_cache=None)
        warm = tmp_path / "warm.jsonl"
        # Cell 0 fully cached (no task), cell 1 half cached.
        warm_cache(warm, spec, {0: [0, 1], 1: [1]})
        report, store = run_backend("pool", "tasks", spec, eval_cache=warm)
        cells = spec.cells()
        assert all(fn is executor_mod._execute_cell for fn, _ in pool_tasks)
        task_jobs = {args[0][0].cell_key: args[0] for _, args in pool_tasks}
        assert len(pool_tasks) == len(task_jobs) == spec.n_cells - 1
        assert set(task_jobs) == {c.key for c in cells[1:]}
        assert [j.index for j in task_jobs[cells[1].key]] == [0]
        for cell in cells[2:]:
            jobs = task_jobs[cell.key]
            assert [j.index for j in jobs] == [0, 1]
            assert {j.cell_key for j in jobs} == {cell.key}
        assert report.simulations_executed == 2 * spec.n_cells - 3
        assert report.cache_hits == 3
        assert store_digests(store.root) == store_digests(reference.root)

    def test_owner_builds_no_scenario_runtime(
        self, golden_spec, golden_digests, tmp_path, monkeypatch,
        run_backend, store_digests,
    ):
        """Every :class:`ScenarioRuntime` of a 2-worker pool run is built
        in a worker; the owner (this process) builds none."""
        log = tmp_path / "builds.log"
        original = ScenarioRuntime.__init__

        def logging_init(self, *args, **kwargs):
            # Forked workers inherit the patch and append their own pid.
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            original(self, *args, **kwargs)

        clear_runtime_cache()  # workers must not inherit built runtimes
        monkeypatch.setattr(ScenarioRuntime, "__init__", logging_init)
        _, store = run_backend("pool", "owner", golden_spec, eval_cache=None)
        pids = {int(line) for line in log.read_text().split()}
        assert pids and os.getpid() not in pids
        assert store_digests(store.root) == golden_digests
