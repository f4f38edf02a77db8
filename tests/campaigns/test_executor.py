"""Campaign execution: determinism, resume, batching, tune cells.

(Cross-backend byte-identity lives in ``test_backend_identity.py``;
the ``store_digests`` probe is the shared conftest fixture.)
"""

import pytest

from repro.campaigns import (
    CampaignExecutor,
    CampaignSpec,
    ResultStore,
    render_report,
    render_status,
)


def tiny_spec(**overrides):
    defaults = dict(
        name="t",
        densities=(100, 300),
        mobility_models=("random-walk", "random-waypoint"),
        n_seeds=3,
        n_networks=1,
        n_nodes=10,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestDeterminism:
    def test_same_spec_same_bytes(self, tmp_path, store_digests):
        """Same spec + seed => bit-identical ResultStore contents."""
        spec = tiny_spec()
        for d in ("a", "b"):
            CampaignExecutor(
                spec, ResultStore(tmp_path / d), serial=True
            ).run()
        a, b = store_digests(tmp_path / "a"), store_digests(tmp_path / "b")
        assert a and a == b

    def test_parallel_matches_serial_bytes(self, tmp_path, store_digests):
        spec = tiny_spec(n_seeds=2)
        CampaignExecutor(spec, ResultStore(tmp_path / "s"), serial=True).run()
        CampaignExecutor(
            spec, ResultStore(tmp_path / "p"), max_workers=2
        ).run()
        assert store_digests(tmp_path / "s") == store_digests(tmp_path / "p")


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignExecutor(tiny_spec(), backend="carrier-pigeon").run()

    @pytest.mark.parametrize(
        "bad", ["shard:0", "shard:x", "shard:-1", "shard:-2"]
    )
    def test_bad_shard_count_rejected(self, bad):
        with pytest.raises(ValueError, match="shard count"):
            CampaignExecutor(tiny_spec(), backend=bad).run()

    def test_serial_flag_is_inline_backend(self):
        assert CampaignExecutor(tiny_spec(), serial=True)._resolve_backend().name == "inline"
        assert CampaignExecutor(tiny_spec())._resolve_backend().name == "pool"
        assert CampaignExecutor(
            tiny_spec(), serial=True, backend="shard:3"
        )._resolve_backend().name == "shard:3"  # explicit backend wins


class TestOnlyCells:
    def test_restricts_execution_to_the_named_keys(self, tmp_path):
        spec = tiny_spec(n_seeds=1)
        chosen = [c.key for c in spec.cells()[:2]]
        store = ResultStore(tmp_path)
        report = CampaignExecutor(
            spec, store, serial=True, only_cells=chosen
        ).run()
        assert report.executed_keys == chosen
        assert {c.key for c in store.completed_cells(spec)} == set(chosen)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="only_cells"):
            CampaignExecutor(
                tiny_spec(), serial=True, only_cells=("nope",)
            ).run()


class TestResume:
    def test_complete_campaign_skips_everything(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        first = CampaignExecutor(spec, store, serial=True).run()
        assert len(first.executed) == spec.n_cells
        second = CampaignExecutor(spec, store, serial=True).run()
        assert second.executed == []
        assert len(second.skipped) == spec.n_cells

    def test_deleted_cell_reruns_alone_and_identically(
        self, tmp_path, store_digests
    ):
        """Killing mid-campaign == a store with missing cells; the next
        invocation completes only those, reproducing the same bytes."""
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        CampaignExecutor(spec, store, serial=True).run()
        before = store_digests(tmp_path)

        victim = spec.cells()[4]
        store.delete_cell(victim)
        report = CampaignExecutor(spec, store, serial=True).run()
        assert report.executed_keys == [victim.key]
        assert len(report.skipped) == spec.n_cells - 1
        assert store_digests(tmp_path) == before

    def test_truncated_cell_counts_as_pending(self, tmp_path):
        spec = tiny_spec(n_seeds=1)
        store = ResultStore(tmp_path)
        CampaignExecutor(spec, store, serial=True).run()
        victim = spec.cells()[0]
        path = store.cell_path(victim)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        report = CampaignExecutor(spec, store, serial=True).run()
        assert report.executed_keys == [victim.key]

    def test_cell_torn_mid_record_reruns_identically(
        self, tmp_path, store_digests
    ):
        """Regression: a cell file cut mid-record (torn tail) counts as
        pending and the re-run restores the exact original bytes."""
        spec = tiny_spec(n_seeds=1)
        store = ResultStore(tmp_path)
        CampaignExecutor(spec, store, serial=True).run()
        before = store_digests(tmp_path)
        victim = spec.cells()[2]
        path = store.cell_path(victim)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.6)])
        report = CampaignExecutor(spec, store, serial=True).run()
        assert report.executed_keys == [victim.key]
        assert store_digests(tmp_path) == before


class TestSharedPoolAcceptance:
    def test_twelve_cell_grid_through_one_pool(self, tmp_path):
        """The acceptance grid: 2 densities x 2 mobility models x 3 seeds
        through one shared pool, resumable per cell."""
        spec = tiny_spec()  # 12 cells
        assert spec.n_cells == 12
        store = ResultStore(tmp_path)
        report = CampaignExecutor(spec, store, max_workers=2).run()
        assert len(report.executed) == 12
        assert report.n_simulations == 12
        assert store.status(spec).is_complete

        victim = spec.cells()[7]
        store.delete_cell(victim)
        again = CampaignExecutor(spec, store, max_workers=2).run()
        assert again.executed_keys == [victim.key]


class TestRecords:
    def test_evaluate_records_shape(self, tmp_path):
        spec = tiny_spec(n_seeds=1, n_networks=2)
        store = ResultStore(tmp_path)
        report = CampaignExecutor(spec, store, serial=True).run()
        record = report.executed[0].records[0]
        assert record["kind"] == "record"
        assert len(record["params"]) == 5
        assert len(record["per_network"]) == 2
        assert set(record["aggregate"]) == {
            "coverage", "energy_dbm", "forwardings",
            "broadcast_time_s", "n_nodes",
        }

    def test_in_memory_run_without_store(self):
        spec = tiny_spec(n_seeds=1, mobility_models=("random-walk",),
                         densities=(100,))
        report = CampaignExecutor(spec, store=None, serial=True).run()
        assert len(report.executed) == 1
        assert report.executed[0].payloads  # live BroadcastMetrics

    def test_progress_callback_fires_per_cell(self, tmp_path):
        spec = tiny_spec(n_seeds=1)
        seen = []
        CampaignExecutor(spec, ResultStore(tmp_path), serial=True).run(
            progress=lambda r: seen.append(r.cell.key)
        )
        assert sorted(seen) == sorted(c.key for c in spec.cells())


class TestTuneCells:
    @pytest.fixture()
    def tiny_scale(self):
        from repro.experiments.config import ExperimentScale

        return ExperimentScale(
            name="test", n_runs=1, n_networks=1, moea_evaluations=30,
            nsgaii_population=10,
        )

    def test_tune_cell_runs_and_persists(self, tmp_path, tiny_scale):
        spec = CampaignSpec(
            name="tune", densities=(100,), algorithms=("RandomSearch",),
            n_seeds=2, n_networks=1, n_nodes=8,
        )
        store = ResultStore(tmp_path)
        report = CampaignExecutor(
            spec, store, serial=True, scale=tiny_scale
        ).run()
        assert len(report.executed) == 2
        for cell_result in report.executed:
            record = cell_result.records[0]
            assert record["algorithm"] == "RandomSearch"
            assert record["evaluations"] == 30
            assert record["front"]
            assert cell_result.payloads[0].evaluations == 30
        assert "RandomSearch" in render_report(spec, store)

    def test_simulations_executed_counts_tune_cells(
        self, tmp_path, monkeypatch
    ):
        """The counter covers every simulation the run executed — the
        optimiser's included — which is what the deep-mode ``sim.runs``
        counts on the inline backend; pool and shard:2 agree."""
        from repro.telemetry import TelemetrySummary

        monkeypatch.setenv("REPRO_TELEMETRY", "deep")
        spec = CampaignSpec(
            name="mixed", densities=(100,),
            algorithms=("evaluate", "AEDB-MLS"),
            n_seeds=1, n_networks=2, n_nodes=8,
        )
        counts = {}
        for backend in ("inline", "pool", "shard:2"):
            store = ResultStore(tmp_path / backend.replace(":", "-"))
            report = CampaignExecutor(
                spec, store, backend=backend, max_workers=2
            ).run()
            counts[backend] = report.simulations_executed
            if backend == "inline":
                summary = TelemetrySummary.from_file(store.telemetry_path)
                assert report.simulations_executed == summary.counter("sim.runs")
                # Shard-family cells carry no live payloads.
                tune = report.executed[1].payloads[0]
        assert counts["inline"] == 2 + tune.evaluations * 2
        assert counts["pool"] == counts["shard:2"] == counts["inline"]

    def test_unknown_algorithm_rejected(self, tiny_scale):
        spec = CampaignSpec(
            name="bad", densities=(100,), algorithms=("SMS-EMOA",),
            n_seeds=1, n_networks=1, n_nodes=8,
        )
        with pytest.raises(ValueError):
            CampaignExecutor(spec, serial=True, scale=tiny_scale).run()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            CampaignExecutor(tiny_spec(), max_workers=0)

    @pytest.mark.parametrize("engine", ["gpu", "threads"])
    def test_unknown_mls_engine_rejected_before_any_cell(
        self, tmp_path, tiny_scale, engine
    ):
        spec = CampaignSpec(
            name="bad-engine", densities=(100,), algorithms=("AEDB-MLS",),
            n_seeds=1, n_networks=1, n_nodes=8,
        )
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match=f"serial.*processes.*'{engine}'"):
            CampaignExecutor(
                spec, store, backend="inline", scale=tiny_scale,
                mls_engine=engine,
            )
        assert not store.root.exists()


#: Cell keys the module-level flaky worker fails on.  Module-level so the
#: patched function pickles by qualified name and fork-started pool
#: workers inherit the populated set.
_FAIL_KEYS: set[str] = set()


def _flaky_execute(job):
    if job.cell_key in _FAIL_KEYS:
        raise RuntimeError(f"boom in {job.cell_key}")
    return _real_execute(job)


#: Cell keys that fail on attempt 1 only (transient-failure fixture).
_FAIL_ONCE_KEYS: set[str] = set()


def _fail_first_attempt(job):
    if job.cell_key in _FAIL_ONCE_KEYS and job.attempt <= 1:
        raise RuntimeError(f"transient boom in {job.cell_key}")
    return _real_execute(job)


from repro.campaigns.executor import _execute_job as _real_execute  # noqa: E402


class TestFailureIsolation:
    def test_failed_cell_does_not_abort_the_others(
        self, tmp_path, monkeypatch
    ):
        """One persistently failing cell: every other cell completes and
        persists, the poison cell is retried then *quarantined* into the
        failure ledger (never an aborted run, DESIGN.md §13), and a
        healthy re-run recovers it and prunes the ledger."""
        import repro.campaigns.executor as executor_mod
        from repro.campaigns.resilience import FailureLedger, RetryPolicy

        spec = tiny_spec(
            densities=(100,), mobility_models=("random-walk",), n_seeds=3
        )
        cells = spec.cells()
        bad = cells[1]
        _FAIL_KEYS.add(bad.key)
        monkeypatch.setattr(executor_mod, "_execute_job", _flaky_execute)
        store = ResultStore(tmp_path)
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_delay_s=0.002
        )
        try:
            report = CampaignExecutor(
                spec, store, max_workers=2, retry_policy=policy
            ).run()
        finally:
            _FAIL_KEYS.clear()
        assert report.failed_keys == [bad.key]
        assert report.failed[0].attempts == 2
        assert "boom" in report.failed[0].error
        assert report.retries == 1
        assert not store.is_complete(bad)
        assert store.is_complete(cells[0])
        assert store.is_complete(cells[2])
        ledger = FailureLedger(store.failures_path)
        assert [e["cell"] for e in ledger.entries()] == [bad.key]

        monkeypatch.setattr(executor_mod, "_execute_job", _real_execute)
        report = CampaignExecutor(spec, store, max_workers=2).run()
        assert report.executed_keys == [bad.key]
        assert report.failed == []
        # The recovered cell's ledger entry is pruned by the run that
        # completed it.
        assert ledger.entries() == []

    def test_transient_failure_retries_to_success(
        self, tmp_path, monkeypatch
    ):
        """A cell that fails once succeeds on its second attempt within
        the same run — retry, not quarantine."""
        import repro.campaigns.executor as executor_mod
        from repro.campaigns.resilience import RetryPolicy

        spec = tiny_spec(
            densities=(100,), mobility_models=("random-walk",), n_seeds=2
        )
        cells = spec.cells()
        flaky = cells[0]
        _FAIL_ONCE_KEYS.add(flaky.key)
        monkeypatch.setattr(
            executor_mod, "_execute_job", _fail_first_attempt
        )
        store = ResultStore(tmp_path)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.001, max_delay_s=0.002
        )
        try:
            report = CampaignExecutor(
                spec, store, serial=True, retry_policy=policy
            ).run()
        finally:
            _FAIL_ONCE_KEYS.clear()
        assert report.failed == []
        assert report.retries == 1
        assert sorted(report.executed_keys) == sorted(
            c.key for c in cells
        )
        assert store.is_complete(flaky)


class TestRendering:
    def test_status_and_report_render(self, tmp_path):
        spec = tiny_spec(n_seeds=1)
        store = ResultStore(tmp_path)
        CampaignExecutor(spec, store, serial=True).run()
        status = render_status(spec, store)
        assert "4/4 cells complete" in status
        report = render_report(spec, store)
        assert "random-waypoint" in report
        assert "evaluate" in report
