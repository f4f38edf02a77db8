"""Compiled event-core benchmark: the C kernel vs the pure warm path.

PR 8's tentpole claim (DESIGN.md §14): with the substrate cached, the
remaining per-evaluation cost is Python's event dispatch itself — and
moving the broadcast window
into the compiled kernel (``repro.manet._evcore``) buys ≥ 3× on the
dense warm path while every ``BroadcastMetrics`` stays bit-identical.

Workload: ``evaluate_many`` over the dense 300-node networks with the
standard benchmark trio.  The baseline is the pure-Python path
(``REPRO_COMPILED=off``), and the candidate flips one env var
(``REPRO_COMPILED=on``).

At full scale (``REPRO_SCALE`` != quick) the record lands in
``BENCH_PR8.json`` at the repo root; quick (CI smoke) runs exercise the
kernel end to end, assert the bit-identity invariant, and leave the
committed record untouched.  Timing interleaves the two modes rep by
rep (matched pairs cancel shared-host drift) and reports both the
median per-pair ratio and the min-based ratio; identity is asserted on
every rep at every scale.  Hosts without the built extension skip
(the fallback is covered by tier-1; there is nothing to measure).
"""

import os
import statistics
import time
from pathlib import Path

import pytest
from _common import write_record

from repro.experiments.config import get_scale
from repro.manet import AEDBParams, clear_runtime_cache
from repro.manet.compiled import compiled_core_available, compiled_core_reason
from repro.tuning import NetworkSetEvaluator

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"

#: The repo's standard benchmark trio (same as bench_telemetry.py).
PARAM_VECTORS = (
    AEDBParams(),
    AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
    AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
)


def _evaluator(quick: bool) -> NetworkSetEvaluator:
    return NetworkSetEvaluator.for_density(
        300,
        n_networks=1 if quick else 2,
        n_nodes=16 if quick else 300,
    )


def _timed_batch(monkeypatch, mode, evaluator, params):
    monkeypatch.setenv("REPRO_COMPILED", mode)
    start = time.perf_counter()
    metrics = evaluator.evaluate_many(params)
    return time.perf_counter() - start, metrics


def test_compiled_core_speedup_and_identity(emit, monkeypatch):
    if not compiled_core_available():
        pytest.skip(f"no extension ({compiled_core_reason()})")
    scale = get_scale()
    quick = scale.name == "quick"
    clear_runtime_cache()
    evaluator = _evaluator(quick)
    reps = 2 if quick else 20
    params = list(PARAM_VECTORS)

    # Warm both modes (runtime precompute, buffers, import costs).
    _timed_batch(monkeypatch, "off", evaluator, params)
    _timed_batch(monkeypatch, "on", evaluator, params)

    pure_times, kern_times = [], []
    for _ in range(reps):
        t_pure, m_pure = _timed_batch(monkeypatch, "off", evaluator, params)
        t_kern, m_kern = _timed_batch(monkeypatch, "on", evaluator, params)
        # THE invariant this PR is pinned by: identical metrics, any path.
        assert m_kern == m_pure, "compiled kernel diverged from pure path"
        pure_times.append(t_pure)
        kern_times.append(t_kern)

    pair_ratios = [p / k for p, k in zip(pure_times, kern_times)]
    speedup = statistics.median(pair_ratios)
    min_ratio = min(pure_times) / min(kern_times)
    cores = os.cpu_count() or 1

    emit()
    emit(
        f"compiled event core, evaluate_many x{len(PARAM_VECTORS)} params "
        f"on {evaluator.n_networks} network(s) of {evaluator.n_nodes} "
        f"nodes ({'quick' if quick else 'full'} scale, {cores} core(s))"
    )
    emit(
        f"  pure Python (per-event path)   "
        f"min {min(pure_times) * 1e3:8.1f} ms / batch"
    )
    emit(
        f"  compiled kernel (PR8)          "
        f"min {min(kern_times) * 1e3:8.1f} ms / batch"
    )
    emit(
        f"  speedup: median pair {speedup:.2f}x, min-based "
        f"{min_ratio:.2f}x (metrics bit-identical)"
    )

    if quick:
        emit("  (quick scale: record not written)")
        return
    results_record = {
        "scale": "full",
        "workload": {
            "evaluator": "NetworkSetEvaluator.evaluate_many (serial)",
            "density_per_km2": 300,
            "n_nodes": evaluator.n_nodes,
            "n_networks": evaluator.n_networks,
            "n_param_vectors": len(PARAM_VECTORS),
            "n_simulations_per_batch": len(PARAM_VECTORS) * evaluator.n_networks,
            "timing": (
                f"{reps} interleaved matched pairs (pure batch, then "
                "compiled batch); headline = median per-pair ratio"
            ),
        },
        "baseline": "REPRO_COMPILED=off — the pure-Python per-event path",
        "pure_ms_per_batch_min": min(pure_times) * 1e3,
        "compiled_ms_per_batch_min": min(kern_times) * 1e3,
        "speedup_median_pair": speedup,
        "speedup_min_based": min_ratio,
        "metrics_bit_identical": True,
        "note": (
            "single shared measurement host (1 core); the kernel "
            "replays the exact pure-path arithmetic (no -ffast-math, "
            "FMA contraction disabled, numpy's own log10/power ufuncs "
            "bridged for the path-loss transcendentals), so the "
            "speedup is pure dispatch/loop overhead removed — the "
            "bit-identity assertion is exact on every rep"
        ),
    }
    write_record(RECORD_PATH, "compiled_event_core", results_record)
    emit(f"  -> {RECORD_PATH.name} written")
