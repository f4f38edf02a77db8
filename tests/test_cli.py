"""CLI surface."""

import json
from pathlib import Path

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
             "--backend", "inline"]
        )
        assert args.command == "campaign"
        assert args.campaign_command == "run"
        assert args.densities == "100,300"
        assert args.seeds == 3
        assert args.backend == "inline"

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

    def test_backend_and_policy_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--out", "x", "--backend", "pool",
             "--retries", "5", "--cell-timeout", "600"]
        )
        assert args.backend == "pool"
        assert args.retries == 5
        assert args.cell_timeout == 600.0

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["campaign", "run", "--out", "x", "--keep-shards"],
             "unrecognized arguments: --keep-shards"),
            (["campaign", "merge", "--out", "all", "s0", "s1"],
             "invalid choice: 'merge'"),
            (["campaign", "run", "--out", "x", "--heartbeat", "5"],
             "unrecognized arguments: --heartbeat 5"),
            (["campaign", "run", "--out", "x", "--serial"],
             "unrecognized arguments: --serial"),
            (["campaign", "telemetry", "--out", "x", "--export-prom", "-"],
             "unrecognized arguments: --export-prom -"),
        ],
        ids=["keep-shards", "merge", "heartbeat", "serial", "export-prom"],
    )
    def test_removed_surface_is_an_argparse_error(
        self, argv, error, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err

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
             "--spec", str(spec_path), "--backend", "inline"]
        )
        assert code == 0
        assert "'from-file'" in capsys.readouterr().out


class TestCampaignBackends:
    """``--backend`` and the retry-policy flags exercised end-to-end."""

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

        return {
            p.name: hashlib.sha1(p.read_bytes()).hexdigest()
            for p in sorted(Path(out, "cells").glob("*.jsonl"))
        }

    def backend_of(self, out):
        """The backend a telemetry-recording run reported it used."""
        from repro.telemetry import TelemetrySummary

        summary = TelemetrySummary.from_file(Path(out, "telemetry.jsonl"))
        return {
            attrs["backend"] for _, name, attrs in summary.events
            if name == "campaign.run.started"
        }

    @pytest.mark.parametrize(
        "bad",
        ["smoke-signals", "remote", "remote:2", "remote:2@loopback",
         "shard", "shard:2", " SHARD:3 "],
    )
    def test_unknown_backend_rejected(self, bad, tmp_path):
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            main(self.run_args(tmp_path / "x", "--backend", bad))
        assert repr(bad) in str(excinfo.value)
        assert str(excinfo.value).endswith("expected 'inline' or 'pool'")
        assert not (tmp_path / "x").exists()  # no store state written

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--cell-timeout"])
    def test_non_finite_policy_flag_exits_2_naming_it(
        self, flag, value, tmp_path, capsys
    ):
        """A NaN or infinite timeout would switch hang detection off
        silently; the run refuses to start instead."""
        with pytest.raises(SystemExit) as excinfo:
            # ``=`` form: argparse would read a bare "-inf" as an option.
            main(self.run_args(tmp_path / "x", f"{flag}={value}"))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "must be finite" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_cell_timeout_exits_2_naming_it(
        self, value, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(self.run_args(tmp_path / "x", f"--cell-timeout={value}"))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --cell-timeout:" in err and "must be positive" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ((), None),
            (("--cell-timeout", "600"), {"max_attempts": 3,
                                         "cell_timeout_s": 600.0}),
            (("--retries", "5"), {"max_attempts": 5,
                                  "cell_timeout_s": None}),
        ],
        ids=["no-flags", "cell-timeout", "retries"],
    )
    def test_policy_flags_build_the_retry_policy(
        self, extra, expected, tmp_path, monkeypatch
    ):
        """Only the flags given reach the policy; the rest keep the
        default policy's values, and no flag at all passes no policy."""
        import repro.campaigns

        seen = []

        class _Captured(Exception):
            pass

        def _executor(*args, retry_policy=None, **kwargs):
            seen.append(retry_policy)
            raise _Captured

        monkeypatch.setattr(repro.campaigns, "CampaignExecutor", _executor)
        with pytest.raises(_Captured):
            main(self.run_args(tmp_path / "x", *extra))
        [policy] = seen
        if expected is None:
            assert policy is None
        else:
            from repro.campaigns import RetryPolicy

            assert policy == RetryPolicy(**expected)

    def test_non_positive_retries_exits_2_naming_the_flag(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(self.run_args(tmp_path / "x", "--retries", "0"))
        assert excinfo.value.code == 2
        assert "argument --retries:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "worker", "merge"])
    def test_fleet_subcommands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_campaign_subcommands_are_exactly_the_store_commands(self):
        import argparse

        def subcommands(parser):
            action = next(
                a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
            )
            return action.choices

        campaign = subcommands(build_parser())["campaign"]
        assert set(subcommands(campaign)) == {
            "run", "status", "telemetry", "report", "failures",
        }

    def test_inline_backend_runs(self, capsys, tmp_path):
        out = tmp_path / "inline"
        assert main(self.run_args(out, "--backend", "inline")) == 0
        assert "6 cells executed" in capsys.readouterr().out

    def test_spec_file_backend_hint_is_honoured(
        self, capsys, tmp_path, monkeypatch
    ):
        """A spec.json carrying backend="inline" runs inline without any
        --backend flag (the spec is the campaign's one description)."""
        from repro.campaigns import CampaignSpec

        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        spec = CampaignSpec(
            name="hinted", densities=(100,), n_seeds=3,
            n_networks=1, n_nodes=8, backend="inline",
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "camp"
        code = main(
            ["campaign", "run", "--out", str(out), "--spec", str(spec_path),
             "--workers", "2"]
        )
        assert code == 0
        assert "3 cells executed" in capsys.readouterr().out
        assert self.backend_of(out) == {"inline"}

    def test_backend_inline_outranks_the_spec_backend_hint(
        self, capsys, tmp_path, monkeypatch
    ):
        """--backend inline means in-process: a spec hint of pool must
        not spawn subprocesses (same precedence as the executor's)."""
        from repro.campaigns import CampaignSpec

        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        spec = CampaignSpec(
            name="hinted", densities=(100,), n_seeds=2,
            n_networks=1, n_nodes=8, backend="pool",
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "camp"
        code = main(
            ["campaign", "run", "--out", str(out), "--spec", str(spec_path),
             "--backend", "inline"]
        )
        assert code == 0
        assert "2 cells executed" in capsys.readouterr().out
        assert self.backend_of(out) == {"inline"}

    @pytest.mark.parametrize("bad", ["shard", "shard:2", " SHARD:3 "])
    def test_spec_file_with_a_removed_hint_fails_before_running(
        self, bad, tmp_path
    ):
        from repro.campaigns import CampaignSpec

        data = json.loads(CampaignSpec(name="old", n_nodes=8).to_json())
        data["backend"] = bad
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        out = tmp_path / "camp"
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            main(["campaign", "run", "--out", str(out),
                  "--spec", str(spec_path)])
        assert repr(bad) in str(excinfo.value)
        assert not out.exists()

    def test_pool_run_matches_inline_run(self, capsys, tmp_path):
        inline, pool = tmp_path / "inline", tmp_path / "pool"
        assert main(self.run_args(inline, "--backend", "inline")) == 0
        assert main(self.run_args(pool, "--backend", "pool")) == 0
        text = capsys.readouterr().out
        assert text.count("6 cells executed") == 2
        assert self.digests(pool) == self.digests(inline)


class TestCacheCommand:
    """``cache stats|flush`` end-to-end against a real sidecar."""

    def test_stats_and_flush_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "camp"
        assert main(
            ["campaign", "run", "--out", str(out), "--densities", "100",
             "--seeds", "2", "--networks", "1", "--nodes", "8",
             "--backend", "inline"]
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
            "--seeds", "2", "--networks", "1", "--nodes", "8",
            "--backend", "inline",
        ]

    def test_summary_and_status_agreement(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "camp"
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert main(self.run_args(out)) == 0
        capsys.readouterr()

        assert main(["campaign", "telemetry", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "telemetry summary" in text
        assert "campaign.cell" in text
        assert "campaign.simulations_executed" in text
        assert "slowest cells" in text

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
