"""Telemetry overhead benchmark: the off-switch must cost nothing.

PR 6's tentpole guarantee (DESIGN.md §12): instrumenting the campaign
and simulation layers is free when telemetry is off, cheap when a null
sink is installed, and bounded when every span/counter streams to a
``telemetry.jsonl``.  This benchmark quantifies all four recorder modes
on a warm ``evaluate_many`` workload (the dense 300-node networks with
the standard benchmark trio; the kernel's own share of the paper
workload is perfbench's ``paper-rw`` ``kernel.share``):

- ``off``     — ``REPRO_TELEMETRY`` unset: ``get_recorder()`` short-
  circuits to the shared :data:`~repro.telemetry.NULL` singleton.
- ``null``    — telemetry enabled but the NullRecorder explicitly
  installed: the full dispatch path (env check, registry lookup, span
  context manager) with a no-op sink.
- ``jsonl``   — a :class:`~repro.telemetry.JsonlRecorder` streaming
  every span to disk, as ``campaign run`` does with telemetry on.
- ``deep``    — ``REPRO_TELEMETRY=deep``: jsonl plus the per-run
  simulator counters (events fired, frames transmitted/resolved).

Timing interleaves all modes round by round (matched pairs cancel the
slow drift of a shared host); the headline per mode is the median
per-round ratio against ``off``.  Metrics are asserted identical across
every mode on every round — telemetry must never perturb results.

Quick scale (the CI overhead smoke) asserts the ``null`` mode stays
within 5% of ``off`` — the regression gate for "someone made the
off-switch expensive" — and writes nothing.  Full scale records all
ratios in ``BENCH_PR6.json`` at the repo root.
"""

import statistics
import time
from pathlib import Path

from _common import write_record

from repro.utils import flags
from repro.manet import AEDBParams, clear_runtime_cache
from repro.telemetry import NULL, JsonlRecorder, using
from repro.tuning import NetworkSetEvaluator

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"

#: The repo's standard benchmark trio.
PARAM_VECTORS = (
    AEDBParams(),
    AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
    AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
)

#: The NULL-mode overhead budget the CI smoke enforces (median ratio).
NULL_OVERHEAD_BUDGET = 1.05


def _evaluator(quick: bool) -> NetworkSetEvaluator:
    return NetworkSetEvaluator.for_density(
        300,
        n_networks=1 if quick else 2,
        n_nodes=16 if quick else 300,
    )


def _timed(evaluator, params) -> tuple[float, list]:
    start = time.perf_counter()
    metrics = evaluator.evaluate_many(params)
    return time.perf_counter() - start, metrics


def _run_mode(mode, evaluator, params, monkeypatch, tmp_path, round_no):
    """One timed ``evaluate_many`` batch under one recorder mode."""
    if mode == "off":
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        return _timed(evaluator, params)
    monkeypatch.setenv("REPRO_TELEMETRY", "deep" if mode == "deep" else "on")
    if mode == "null":
        with using(NULL):
            return _timed(evaluator, params)
    # jsonl / deep: stream to a fresh file so each round pays the same
    # open+append cost a campaign cell does.
    path = tmp_path / f"telemetry-{mode}-{round_no}.jsonl"
    with JsonlRecorder(path) as rec, using(rec):
        return _timed(evaluator, params)


def test_telemetry_overhead(emit, monkeypatch, tmp_path):
    quick = (flags.read_raw("REPRO_SCALE") or "quick") == "quick"
    clear_runtime_cache()
    evaluator = _evaluator(quick)
    params = list(PARAM_VECTORS)
    reps = 3 if quick else 15
    modes = ("off", "null", "jsonl", "deep")

    # Warm everything both sides need: runtime precompute, imports,
    # allocation pools — one pass per mode.
    for mode in modes:
        _run_mode(mode, evaluator, params, monkeypatch, tmp_path, "warmup")

    times: dict[str, list[float]] = {m: [] for m in modes}
    reference = None
    for rep in range(reps):
        for mode in modes:
            t, metrics = _run_mode(
                mode, evaluator, params, monkeypatch, tmp_path, rep
            )
            times[mode].append(t)
            # THE invariant: telemetry never perturbs results.
            if reference is None:
                reference = metrics
            assert metrics == reference, f"{mode} mode perturbed metrics"
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)

    ratios = {
        mode: statistics.median(
            t / off for t, off in zip(times[mode], times["off"])
        )
        for mode in modes
    }
    lines_per_batch = {
        mode: sum(
            1
            for _ in (tmp_path / f"telemetry-{mode}-0.jsonl")
            .read_text()
            .splitlines()
        )
        for mode in ("jsonl", "deep")
    }

    n_sims = len(params) * evaluator.n_networks
    emit()
    emit(
        f"telemetry overhead, evaluate_many x{len(params)} params on "
        f"{evaluator.n_networks} network(s) of {evaluator.n_nodes} nodes "
        f"({'quick' if quick else 'full'} scale, median of {reps} "
        f"interleaved rounds)"
    )
    for mode in modes:
        extra = (
            f", {lines_per_batch[mode]} lines/batch"
            if mode in lines_per_batch
            else ""
        )
        emit(
            f"  {mode:>6s}: min {min(times[mode]) * 1e3:8.1f} ms / batch, "
            f"median ratio vs off {ratios[mode]:.3f}x{extra}"
        )
    emit(f"  (batch = {n_sims} simulations; metrics identical in all modes)")

    # The CI gate: telemetry enabled with a null sink must stay within
    # budget of the fully-off path at every scale.
    assert ratios["null"] <= NULL_OVERHEAD_BUDGET, (
        f"NullRecorder overhead {ratios['null']:.3f}x exceeds "
        f"{NULL_OVERHEAD_BUDGET}x budget"
    )

    if quick:
        emit("  (quick scale: record not written)")
        return
    write_record(
        RECORD_PATH,
        "telemetry_overhead",
        {
            "scale": "full",
            "workload": {
                "evaluator": "NetworkSetEvaluator.evaluate_many (serial)",
                "density_per_km2": 300,
                "n_nodes": evaluator.n_nodes,
                "n_networks": evaluator.n_networks,
                "n_param_vectors": len(params),
                "n_simulations_per_batch": n_sims,
                "timing": (
                    f"{reps} interleaved rounds (off, null, jsonl, deep "
                    "per round); headline = median per-round ratio vs off"
                ),
            },
            "baseline": (
                "REPRO_TELEMETRY unset — get_recorder() returns the NULL "
                "singleton, spans are shared no-op context managers"
            ),
            "modes": {
                mode: {
                    "min_ms_per_batch": min(times[mode]) * 1e3,
                    "median_ratio_vs_off": ratios[mode],
                    **(
                        {"jsonl_lines_per_batch": lines_per_batch[mode]}
                        if mode in lines_per_batch
                        else {}
                    ),
                }
                for mode in modes
            },
            "null_overhead_budget": NULL_OVERHEAD_BUDGET,
            "metrics_identical_all_modes": True,
        },
    )
    emit(f"  -> {RECORD_PATH.name} written")
