"""Telemetry must never perturb results — the §12 off-switch guarantee.

The golden harness of this PR: the same campaign, run with
``REPRO_TELEMETRY`` off, on, and deep through both backends, must
produce **byte-identical** cell stores.  The recorded stream is then
replayed into a summary without re-running anything, and its
counters must agree with the run report — the numbers ``campaign
status`` surfaces.
"""

import hashlib
from pathlib import Path

import pytest

from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore
from repro.telemetry import TelemetrySummary

BACKENDS = ("inline", "pool")

#: off / on / deep — the three REPRO_TELEMETRY modes under test.
MODES = {"off": None, "on": "on", "deep": "deep"}


def _spec() -> CampaignSpec:
    """4 evaluate cells, 8-node single-network sets (fast, deterministic).

    Two mobility models so a 2-worker pool has cells to spread;
    evaluate-only because byte-identity is only a contract for evaluate
    cells (tune records carry ``runtime_s``).
    """
    return CampaignSpec(
        name="tele-identity",
        densities=(100,),
        mobility_models=("random-walk", "random-waypoint"),
        n_seeds=2,
        n_networks=1,
        n_nodes=8,
    )


def _digests(root: Path) -> dict:
    return {
        p.name: hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted((root / "cells").glob("*.jsonl"))
    }


def _run(tmp_path, monkeypatch, backend: str, mode: str, **kwargs):
    env = MODES[mode]
    if env is None:
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    else:
        monkeypatch.setenv("REPRO_TELEMETRY", env)
    store = ResultStore(tmp_path / f"{backend}-{mode}")
    report = CampaignExecutor(
        _spec(), store, backend=backend, max_workers=2, **kwargs
    ).run()
    return report, store


@pytest.mark.parametrize("backend", BACKENDS)
def test_stores_bit_identical_across_telemetry_modes(
    tmp_path, monkeypatch, backend
):
    reports, stores = {}, {}
    for mode in MODES:
        reports[mode], stores[mode] = _run(tmp_path, monkeypatch, backend, mode)
    reference = _digests(stores["off"].root)
    assert reference, "campaign produced no cell files"
    for mode in ("on", "deep"):
        assert _digests(stores[mode].root) == reference, (
            f"telemetry mode {mode!r} perturbed the {backend} store"
        )
        assert (
            reports[mode].simulations_executed
            == reports["off"].simulations_executed
        )
    # The stream itself exists exactly when telemetry was on.
    assert not stores["off"].telemetry_path.exists()
    assert stores["on"].telemetry_path.exists()
    assert stores["deep"].telemetry_path.exists()


@pytest.mark.parametrize("backend", BACKENDS)
def test_stream_replays_and_agrees_with_the_report(
    tmp_path, monkeypatch, backend
):
    report, store = _run(tmp_path, monkeypatch, backend, "on")
    summary = TelemetrySummary.from_file(store.telemetry_path)
    assert summary.n_skipped == 0

    # Counters agree with the run report (what `campaign status` prints).
    assert summary.counter("campaign.simulations_executed") == (
        report.simulations_executed
    )
    assert summary.counter("campaign.cache_hits") == report.cache_hits

    # Full lifecycle per cell, whatever the backend.
    events = summary.event_counts()
    n_cells = len(report.executed)
    assert n_cells == 4
    assert events["cell.started"] == n_cells
    assert events["cell.finished"] == n_cells
    assert events["cell.leased"] == n_cells
    assert summary.spans["campaign.cell"].count == n_cells
    assert set(summary.cell_seconds) == set(report.executed_keys)

    # The instrumented layers below the executor reported through the
    # same stream: per-evaluation spans and cache-fill counters.
    assert summary.counter("eval_cache.fill") == report.simulations_executed


def test_backends_stream_the_same_event_census(tmp_path, monkeypatch):
    """Workers write nothing to the stream: the pool's events are the
    owner's, so a fault-free run logs what the inline backend logs."""
    census = {}
    for backend in BACKENDS:
        _, store = _run(tmp_path, monkeypatch, backend, "on")
        summary = TelemetrySummary.from_file(store.telemetry_path)
        assert summary.n_skipped == 0
        census[backend] = summary.event_counts()
    assert census["pool"] == census["inline"]


def test_deep_mode_ships_simulator_counters(tmp_path, monkeypatch):
    _, store = _run(tmp_path, monkeypatch, "inline", "deep")
    summary = TelemetrySummary.from_file(store.telemetry_path)
    assert summary.counter("sim.runs") > 0
    assert summary.counter("sim.events_fired") > 0
    assert summary.counter("sim.frames_transmitted") >= (
        summary.counter("sim.frames_resolved")
    )
    # "on" mode must NOT pay for (or ship) the fine-grained counters.
    _, store_on = _run(tmp_path, monkeypatch, "inline", "on")
    on_summary = TelemetrySummary.from_file(store_on.telemetry_path)
    assert on_summary.counter("sim.runs") == 0


def test_cached_rerun_full_lifecycle_with_cached_flag(tmp_path, monkeypatch):
    """A fully-cached pool re-run still emits per-cell lifecycle events."""
    first, store = _run(tmp_path, monkeypatch, "pool", "off")
    monkeypatch.setenv("REPRO_TELEMETRY", "on")
    rerun_store = ResultStore(tmp_path / "pool-rerun")
    rerun = CampaignExecutor(
        _spec(), rerun_store, backend="pool", max_workers=2,
        eval_cache=store.eval_cache_path,
    ).run()
    assert rerun.simulations_executed == 0
    assert rerun.cache_hits == first.simulations_executed
    summary = TelemetrySummary.from_file(rerun_store.telemetry_path)
    assert summary.counter("campaign.cache_hits") == rerun.cache_hits
    assert summary.counter("campaign.simulations_executed") == 0
    cached_started = [
        attrs for _, name, attrs in summary.events
        if name == "cell.started" and attrs.get("cached")
    ]
    assert len(cached_started) == len(rerun.executed)
