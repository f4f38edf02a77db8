"""Campaign-backend benchmark: inline vs pool vs shard:2 (DESIGN.md §10).

Measures the PR-4 claim the backend seam has to back up: backend choice
is purely an execution decision — the 30-cell benchmark campaign
produces **byte-identical** stores through every backend while the
wall-clock varies with the strategy (one shared pool interleaving all
cells' simulations vs N shard subprocesses each draining its own slice
serially vs the serial reference).

At full scale (``REPRO_SCALE`` != quick, the paper's dense 75-node
networks) the record lands in ``BENCH_PR4.json`` at the repo root;
quick (CI smoke) runs only assert the identity invariant and leave the
committed record untouched.

The record carries the host's core count, because the wall-clock story
is meaningless without it: on a single-core host every multi-process
backend is pure overhead over inline (subprocess startup, the pool's
upfront shared-memory arena pack, result IPC), and the measured gaps
*are* that overhead — the number a deployment decision needs.  With
real cores, the shard backend parallelises the substrate precompute
itself (each shard builds only its own scenarios'), which the pool
backend's parent-side arena pack cannot.
"""

import hashlib
import os
import time
from pathlib import Path

from _common import write_record

from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore
from repro.experiments.config import get_scale
from repro.manet import AEDBParams

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR4.json"

BACKENDS = ("inline", "pool", "shard:2")
WORKERS = 4

#: Three configurations per evaluate cell (default + a fast-flooding and
#: a conservative variant), so each cell's scenario substrates are
#: reused across vectors — the workload shape campaigns exist for.
PARAM_VECTORS = tuple(
    tuple(float(v) for v in p.as_array())
    for p in (
        AEDBParams(),
        AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
        AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
    )
)


def _store_digests(root: Path) -> dict:
    return {
        p.name: hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted((root / "cells").glob("*.jsonl"))
    }


def bench_spec(quick: bool) -> CampaignSpec:
    """The 30-cell benchmark campaign (30 seeded network populations)."""
    return CampaignSpec(
        name="bench-backends",
        densities=(300,),
        n_seeds=30,
        # Quick runs shrink the per-cell work to one configuration on a
        # single tiny network; full scale scores 3 configurations on 5
        # networks per cell at the paper's dense setting (75 nodes at
        # the 500 m arena) — 450 simulations over 150 substrates.
        params=PARAM_VECTORS[:1] if quick else PARAM_VECTORS,
        n_networks=1 if quick else 5,
        n_nodes=16 if quick else None,
    )


def test_backend_wallclock_and_identity(emit, tmp_path):
    scale = get_scale()
    quick = scale.name == "quick"
    spec = bench_spec(quick)
    assert spec.n_cells == 30

    results = {}
    digests = {}
    for backend in BACKENDS:
        root = tmp_path / backend.replace(":", "-")
        start = time.perf_counter()
        report = CampaignExecutor(
            spec,
            ResultStore(root),
            backend=backend,
            max_workers=WORKERS,
            # No persistent cache: this measures execution, not replay
            # (tests/campaigns/test_eval_cache.py pins the cached re-run).
            eval_cache=None,
        ).run()
        elapsed = time.perf_counter() - start
        n_sims = spec.n_cells * len(spec.params) * spec.n_networks
        assert len(report.executed) == spec.n_cells
        assert report.simulations_executed == n_sims
        results[backend] = {
            "wall_clock_s": elapsed,
            "cells": len(report.executed),
            "simulations": report.simulations_executed,
        }
        digests[backend] = _store_digests(root)

    reference = digests["inline"]
    assert reference and all(d == reference for d in digests.values())

    cores = os.cpu_count() or 1
    emit()
    emit(
        f"backend wall-clock, 30-cell campaign "
        f"({'quick' if quick else 'full'} scale, {WORKERS} workers, "
        f"{cores} core(s))"
    )
    for backend in BACKENDS:
        r = results[backend]
        speedup = results["inline"]["wall_clock_s"] / r["wall_clock_s"]
        emit(
            f"  {backend:>8s}: {r['wall_clock_s']:7.3f}s "
            f"({speedup:4.2f}x vs inline), stores bit-identical"
        )

    if quick:
        emit("  (quick scale: record not written)")
        return
    results_record = {
        "scale": "full",
        "campaign": {
            "n_cells": spec.n_cells,
            "densities": list(spec.densities),
            "n_nodes_per_network": 75,
            "n_seeds": spec.n_seeds,
            "n_networks": spec.n_networks,
            "n_param_vectors": len(spec.params),
            "n_simulations": spec.n_cells * len(spec.params) * spec.n_networks,
        },
        "max_workers": WORKERS,
        "baseline": "inline (serial in-process reference)",
        "note": (
            "single-core hosts cannot profit from multi-process backends; "
            "the gaps vs inline measure pure backend overhead (subprocess "
            "startup, the pool's upfront arena pack, result IPC) while the "
            "stores stay byte-identical — the §10 invariant this benchmark "
            "exists to pin"
        ),
        "backends": {
            backend: {
                **results[backend],
                "speedup_vs_inline": (
                    results["inline"]["wall_clock_s"]
                    / results[backend]["wall_clock_s"]
                ),
            }
            for backend in BACKENDS
        },
        "stores_bit_identical": True,
    }
    write_record(RECORD_PATH, "campaign_backends", results_record)
    emit(f"  -> {RECORD_PATH.name} written")
