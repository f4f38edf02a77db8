"""Resilience overhead benchmark: fault tolerance must be ~free (§13).

PR 7's tentpole guarantee: the retry/lease/heartbeat machinery that
lets a campaign survive worker crashes, hangs, and torn files costs
(nearly) nothing on the fault-free path — the only path production runs
ever take.  Three policies drive the same dense-300 evaluate campaign
through the pool backend (where the lease table, breakage handling, and
heartbeat monitor all live):

- ``fail-fast``  — ``RetryPolicy.disabled()``: one attempt, no
  timeouts, no heartbeats — the pre-§13 baseline semantics.
- ``resilient``  — the default policy (3 attempts, backoff armed): what
  every ``campaign run`` now ships with.  **The gated mode.**
- ``guarded``    — per-cell timeout + worker heartbeats: lease policing
  ticks, heartbeat files, and the parent-side monitor all active.

Timing interleaves the modes round by round (matched pairs cancel host
drift); the headline is the median per-round ratio against
``fail-fast``.  Stores are asserted byte-identical across modes on
every round — the resilience layer observes and schedules, it must
never perturb results.

Quick scale (the CI smoke) asserts the ``resilient`` ratio stays within
5% and writes nothing.  Full scale records all ratios in
``BENCH_PR7.json`` at the repo root.
"""

import hashlib
import statistics
import time
from pathlib import Path

from _common import write_record

from repro.utils import flags
from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore
from repro.campaigns.resilience import RetryPolicy
from repro.manet import AEDBParams

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

WORKERS = 2

#: The repo's standard benchmark trio.
PARAM_VECTORS = tuple(
    tuple(float(v) for v in p.as_array())
    for p in (
        AEDBParams(),
        AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
        AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
    )
)

#: The fault-free overhead budget the CI smoke enforces (median ratio).
RESILIENT_OVERHEAD_BUDGET = 1.05

MODES = {
    "fail-fast": RetryPolicy.disabled(),
    "resilient": RetryPolicy(),
    "guarded": RetryPolicy(cell_timeout_s=120.0, heartbeat_s=0.5),
}


def bench_spec(quick: bool) -> CampaignSpec:
    """A dense-300 evaluate campaign, pool-backend shaped (many cells)."""
    return CampaignSpec(
        name="bench-resilience",
        densities=(300,),
        n_seeds=4,
        params=PARAM_VECTORS[:1] if quick else PARAM_VECTORS,
        n_networks=1,
        n_nodes=16 if quick else 300,
    )


def _store_digests(root: Path) -> dict:
    return {
        p.name: hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted((root / "cells").glob("*.jsonl"))
    }


def _run_once(spec, policy, root) -> float:
    store = ResultStore(root)
    start = time.perf_counter()
    report = CampaignExecutor(
        spec, store, backend="pool", max_workers=WORKERS,
        retry_policy=policy,
    ).run()
    elapsed = time.perf_counter() - start
    assert report.failed == [], "fault-free run must not quarantine"
    assert len(report.executed) == spec.n_cells
    return elapsed


def test_resilience_overhead(emit, tmp_path):
    quick = (flags.read_raw("REPRO_SCALE") or "quick") == "quick"
    spec = bench_spec(quick)
    reps = 3 if quick else 7

    # Warm runtime caches and worker-pool startup once per mode.
    for mode, policy in MODES.items():
        _run_once(spec, policy, tmp_path / f"warmup-{mode}")

    times: dict[str, list[float]] = {m: [] for m in MODES}
    reference = None
    for rep in range(reps):
        for mode, policy in MODES.items():
            root = tmp_path / f"{mode}-{rep}"
            times[mode].append(_run_once(spec, policy, root))
            digests = _store_digests(root)
            # THE invariant: resilience never perturbs results.
            if reference is None:
                reference = digests
            assert digests == reference, f"{mode} mode perturbed the store"

    ratios = {
        mode: statistics.median(
            t / base for t, base in zip(times[mode], times["fail-fast"])
        )
        for mode in MODES
    }

    n_sims = spec.n_cells * spec.n_networks * len(spec.params or (1,))
    emit()
    emit(
        f"resilience overhead, pool backend x{WORKERS} workers, "
        f"{spec.n_cells}-cell dense-300 campaign "
        f"({'quick' if quick else 'full'} scale, median of {reps} "
        f"interleaved rounds)"
    )
    for mode in MODES:
        emit(
            f"  {mode:>9s}: min {min(times[mode]):7.3f} s / campaign, "
            f"median ratio vs fail-fast {ratios[mode]:.3f}x"
        )
    emit(
        f"  (campaign = {n_sims} simulations; stores byte-identical "
        f"in all modes)"
    )

    # The CI gate: default-policy campaigns must stay within budget of
    # the fail-fast baseline at every scale.
    assert ratios["resilient"] <= RESILIENT_OVERHEAD_BUDGET, (
        f"resilient-mode overhead {ratios['resilient']:.3f}x exceeds "
        f"{RESILIENT_OVERHEAD_BUDGET}x budget"
    )

    if quick:
        emit("  (quick scale: record not written)")
        return
    write_record(
        RECORD_PATH,
        "resilience_overhead",
        {
            "scale": "full",
            "workload": {
                "backend": f"pool x{WORKERS} workers",
                "density_per_km2": 300,
                "n_nodes": 300,
                "n_cells": spec.n_cells,
                "n_simulations_per_campaign": n_sims,
                "timing": (
                    f"{reps} interleaved rounds (fail-fast, resilient, "
                    "guarded per round); headline = median per-round "
                    "ratio vs fail-fast"
                ),
            },
            "baseline": (
                "RetryPolicy.disabled() — one attempt per cell, no lease "
                "deadlines, no heartbeats (pre-§13 semantics)"
            ),
            "modes": {
                mode: {
                    "min_s_per_campaign": min(times[mode]),
                    "median_ratio_vs_fail_fast": ratios[mode],
                    "policy": {
                        "max_attempts": policy.max_attempts,
                        "cell_timeout_s": policy.cell_timeout_s,
                        "heartbeat_s": policy.heartbeat_s,
                    },
                }
                for mode, policy in MODES.items()
            },
            "resilient_overhead_budget": RESILIENT_OVERHEAD_BUDGET,
            "stores_byte_identical_all_modes": True,
        },
    )
    emit(f"  -> {RECORD_PATH.name} written")
