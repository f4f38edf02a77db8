"""CLI surface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.density == 300

    def test_scale_choices(self):
        args = build_parser().parse_args(["--scale", "paper", "timing"])
        assert args.scale == "paper"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "timing"])

    def test_tune_engine_choice(self):
        args = build_parser().parse_args(["tune", "--engine", "processes"])
        assert args.engine == "processes"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--engine", "threads"])

    def test_sensitivity_method_choice(self):
        args = build_parser().parse_args(["sensitivity", "--method", "sobol"])
        assert args.method == "sobol"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sensitivity", "--method", "tea-leaves"])

    def test_protocols_defaults(self):
        args = build_parser().parse_args(["protocols"])
        assert args.command == "protocols"
        assert args.density == 200

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_flags(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--out", "x", "--densities", "100,300",
             "--mobility", "random-walk,gauss-markov", "--seeds", "3",
             "--serial"]
        )
        assert args.command == "campaign"
        assert args.campaign_command == "run"
        assert args.densities == "100,300"
        assert args.seeds == 3
        assert args.serial

    def test_campaign_status_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "status"])


class TestCommands:
    def test_simulate_runs(self, capsys):
        code = main(
            ["simulate", "--density", "100", "--network", "0",
             "--max-delay", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "coverage=" in out

    def test_simulate_clips_params(self, capsys):
        code = main(["simulate", "--density", "100", "--border", "0.0"])
        assert code == 0
        assert "border_threshold_dbm=-70.0" in capsys.readouterr().out


class TestTuneCommand:
    def test_tune_runs_at_quick_scale(self, capsys, monkeypatch):
        # Shrink the quick preset further through the env-independent
        # path: patch get_scale to a tiny custom scale.
        from repro.core.config import MLSConfig
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            name="tiny", n_runs=1, n_networks=1, moea_evaluations=40,
            nsgaii_population=10, cellde_grid_side=3,
            mls=MLSConfig(
                n_populations=1, threads_per_population=2,
                evaluations_per_thread=10, reset_iterations=5,
            ),
        )
        import repro.experiments.config as config_mod

        monkeypatch.setattr(config_mod, "get_scale", lambda name=None: tiny)
        code = main(["tune", "--density", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AEDB-MLS" in out and "coverage" in out


class TestSensitivityCommand:
    def test_sensitivity_runs_small(self, capsys, monkeypatch):
        from repro.core.config import MLSConfig
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            name="tiny", n_runs=1, n_networks=1, moea_evaluations=40,
            nsgaii_population=10, cellde_grid_side=3,
            mls=MLSConfig(
                n_populations=1, threads_per_population=2,
                evaluations_per_thread=10, reset_iterations=5,
            ),
            fast_samples=65,
        )
        import repro.experiments.config as config_mod

        monkeypatch.setattr(config_mod, "get_scale", lambda name=None: tiny)
        code = main(["sensitivity", "--density", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Table I" in out


class TestCampaignCommand:
    def run_args(self, out):
        # The acceptance grid: 2 densities x 2 mobility models x 3 seeds
        # = 12 cells, shrunk to 8-node single-network sets for speed.
        return [
            "campaign", "run", "--out", str(out),
            "--densities", "100,300",
            "--mobility", "random-walk,random-waypoint",
            "--seeds", "3", "--networks", "1", "--nodes", "8",
            "--workers", "2",
        ]

    def test_run_status_report_resume(self, capsys, tmp_path):
        out = tmp_path / "camp"
        assert main(self.run_args(out)) == 0
        text = capsys.readouterr().out
        assert "12 cells executed" in text
        assert "12/12 cells complete" in text

        assert main(["campaign", "status", "--out", str(out)]) == 0
        assert "12/12 cells complete" in capsys.readouterr().out

        assert main(["campaign", "report", "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "random-waypoint" in report and "evaluate" in report

        # Delete one cell's results: only that cell re-runs.
        from repro.campaigns import CampaignSpec, ResultStore

        store = ResultStore(out)
        spec = store.load_spec()
        store.delete_cell(spec.cells()[5])
        assert main(self.run_args(out)) == 0
        text = capsys.readouterr().out
        assert "1 cells executed" in text
        assert "11 already complete" in text

    def test_status_without_campaign_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["campaign", "status", "--out", str(tmp_path / "nope")])

    def test_backend_and_merge_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--out", "x", "--backend", "shard:4",
             "--keep-shards"]
        )
        assert args.backend == "shard:4" and args.keep_shards
        args = build_parser().parse_args(
            ["campaign", "merge", "--out", "all", "s0", "s1"]
        )
        assert args.campaign_command == "merge"
        assert args.sources == ["s0", "s1"]
        with pytest.raises(SystemExit):  # merge needs at least one source
            build_parser().parse_args(["campaign", "merge", "--out", "all"])

    def test_run_from_spec_file(self, capsys, tmp_path):
        from repro.campaigns import CampaignSpec

        spec = CampaignSpec(
            name="from-file", densities=(100,), n_seeds=2,
            n_networks=1, n_nodes=8,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "camp"
        code = main(
            ["campaign", "run", "--out", str(out),
             "--spec", str(spec_path), "--serial"]
        )
        assert code == 0
        assert "'from-file'" in capsys.readouterr().out


class TestCampaignBackends:
    """``--backend`` / ``campaign merge`` exercised end-to-end."""

    def run_args(self, out, *extra):
        # 1 density x 2 mobility models x 3 seeds = 6 single-network cells.
        return [
            "campaign", "run", "--out", str(out),
            "--densities", "100",
            "--mobility", "random-walk,random-waypoint",
            "--seeds", "3", "--networks", "1", "--nodes", "8",
            "--workers", "2", *extra,
        ]

    def digests(self, out):
        import hashlib
        from pathlib import Path

        return {
            p.name: hashlib.sha1(p.read_bytes()).hexdigest()
            for p in sorted(Path(out, "cells").glob("*.jsonl"))
        }

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown backend"):
            main(self.run_args(tmp_path / "x", "--backend", "smoke-signals"))

    def test_inline_backend_runs(self, capsys, tmp_path):
        out = tmp_path / "inline"
        assert main(self.run_args(out, "--backend", "inline")) == 0
        assert "6 cells executed" in capsys.readouterr().out

    def test_spec_file_backend_hint_is_honoured(self, capsys, tmp_path):
        """A spec.json carrying backend="shard:2" runs sharded without
        any --backend flag (the spec is the campaign's one description)."""
        from repro.campaigns import CampaignSpec

        spec = CampaignSpec(
            name="hinted", densities=(100,), n_seeds=3,
            n_networks=1, n_nodes=8, backend="shard:2",
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "camp"
        code = main(
            ["campaign", "run", "--out", str(out), "--spec", str(spec_path),
             "--workers", "2", "--keep-shards"]
        )
        assert code == 0
        assert "3 cells executed" in capsys.readouterr().out
        assert (out / "shards").is_dir()  # it really ran sharded

    def test_serial_outranks_the_spec_backend_hint(self, capsys, tmp_path):
        """--serial means in-process: a spec hint of shard:N must not
        spawn subprocesses (same precedence as the executor's)."""
        from repro.campaigns import CampaignSpec

        spec = CampaignSpec(
            name="hinted", densities=(100,), n_seeds=2,
            n_networks=1, n_nodes=8, backend="shard:2",
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "camp"
        code = main(
            ["campaign", "run", "--out", str(out), "--spec", str(spec_path),
             "--serial", "--keep-shards"]
        )
        assert code == 0
        assert "2 cells executed" in capsys.readouterr().out
        assert not (out / "shards").exists()  # inline: no shard stores

    def test_shard_run_merge_roundtrip(self, capsys, tmp_path):
        """shard:2 --keep-shards, then a standalone ``campaign merge``
        of the shard stores reproduces the original store exactly."""
        out = tmp_path / "sharded"
        assert main(
            self.run_args(out, "--backend", "shard:2", "--keep-shards")
        ) == 0
        text = capsys.readouterr().out
        assert "6 cells executed" in text and "6/6 cells complete" in text
        shard_dirs = sorted(p for p in (out / "shards").iterdir())
        assert shard_dirs

        merged = tmp_path / "merged"
        code = main(
            ["campaign", "merge", "--out", str(merged)]
            + [str(d) for d in shard_dirs]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "total: 6 cells merged" in text
        assert "6/6 cells complete" in text
        assert self.digests(merged) == self.digests(out)

    def test_merge_conflict_is_an_error(self, tmp_path):
        from repro.campaigns import MergeConflictError

        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.run_args(a, "--backend", "inline")) == 0
        assert main(self.run_args(b, "--backend", "inline")) == 0
        # Tamper with one completed record in b: merging must refuse.
        victim = sorted((b / "cells").glob("*.jsonl"))[0]
        victim.write_text(victim.read_text().replace('"index":0', '"index":9'))
        dest = tmp_path / "dest"
        assert main(["campaign", "merge", "--out", str(dest), str(a)]) == 0
        with pytest.raises(MergeConflictError):
            main(["campaign", "merge", "--out", str(dest), str(b)])


class TestCacheCommand:
    """``cache stats|flush`` end-to-end against a real sidecar."""

    def test_stats_and_flush_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "camp"
        assert main(
            ["campaign", "run", "--out", str(out), "--densities", "100",
             "--seeds", "2", "--networks", "1", "--nodes", "8", "--serial"]
        ) == 0
        capsys.readouterr()
        cache_path = str(out / "evaluations.jsonl")

        assert main(["cache", "stats", "--path", cache_path]) == 0
        text = capsys.readouterr().out
        assert "entries: 2" in text
        assert cache_path in text

        assert main(["cache", "flush", "--path", cache_path]) == 0
        assert "flushed 2 cached evaluations" in capsys.readouterr().out

        assert main(["cache", "stats", "--path", cache_path]) == 0
        text = capsys.readouterr().out
        assert "entries: 0" in text and "on disk: 0 bytes" in text

    def test_stats_on_missing_file_is_empty_not_an_error(
        self, capsys, tmp_path
    ):
        assert main(
            ["cache", "stats", "--path", str(tmp_path / "none.jsonl")]
        ) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestTelemetryCommand:
    """``campaign telemetry`` end-to-end against a recorded stream."""

    def run_args(self, out):
        return [
            "campaign", "run", "--out", str(out), "--densities", "100",
            "--seeds", "2", "--networks", "1", "--nodes", "8", "--serial",
        ]

    def test_summary_prom_export_and_status_agreement(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "camp"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert main(self.run_args(out)) == 0
        capsys.readouterr()

        assert main(["campaign", "telemetry", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "telemetry summary" in text
        assert "campaign.cell" in text
        assert "campaign.simulations_executed" in text
        assert "slowest cells" in text

        # Prometheus snapshot to stdout and to a file.
        assert main(
            ["campaign", "telemetry", "--out", str(out),
             "--export-prom", "-"]
        ) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_campaign_simulations_executed_total counter" in text
        prom_path = tmp_path / "snap.prom"
        assert main(
            ["campaign", "telemetry", "--out", str(out),
             "--export-prom", str(prom_path)]
        ) == 0
        assert "prometheus snapshot written" in capsys.readouterr().out
        assert "repro_span_seconds" in prom_path.read_text()

        # The status census surfaces the same counters (they agree).
        assert main(["campaign", "status", "--out", str(out)]) == 0
        status = capsys.readouterr().out
        assert "telemetry: 0 cache hit(s), 2 simulation(s) executed" in status

    def test_without_recording_explains_the_switch(self, capsys, tmp_path):
        out = tmp_path / "camp"
        assert main(self.run_args(out)) == 0
        capsys.readouterr()
        assert main(["campaign", "telemetry", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "no telemetry recorded" in text
        assert "REPRO_TELEMETRY" in text

    def test_top_flag_parses(self):
        args = build_parser().parse_args(
            ["campaign", "telemetry", "--out", "x", "--top", "3"]
        )
        assert args.campaign_command == "telemetry"
        assert args.top == 3


class TestProtocolsCommand:
    def test_protocols_runs_small(self, capsys, monkeypatch):
        from repro.core.config import MLSConfig
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            name="tiny", n_runs=1, n_networks=1, moea_evaluations=40,
            nsgaii_population=10, cellde_grid_side=3,
            mls=MLSConfig(
                n_populations=1, threads_per_population=2,
                evaluations_per_thread=10, reset_iterations=5,
            ),
        )
        import repro.experiments.config as config_mod

        monkeypatch.setattr(config_mod, "get_scale", lambda name=None: tiny)
        code = main(["protocols", "--density", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "flooding" in out and "AEDB" in out
        assert "best reachability" in out
