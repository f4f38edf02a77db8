"""The benchmark's own tests, at smoke scale.

Run from the root of a repository checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/smoke_checks.py

(The file name keeps it out of the default ``pytest`` collection: the
runs here take about a minute.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import LAYER_TARGETS, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_exactly_the_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("store")
    spec = workloads._spec_dict("paper-rw", 3, smoke=True)
    spec.update(algorithms=["NSGAII"], densities=[100])
    (store.parent / "spec.json").write_text(json.dumps(spec))
    from repro.cli import main

    assert main(["campaign", "run", "--out", str(store), "--backend",
                 "inline", "--spec", str(store.parent / "spec.json")]) == 0
    return store


def test_perturbed_record_trips_the_digest_gate(small_store, tmp_path):
    import shutil

    ok = workloads.check_campaign(small_store, 0)
    assert ok.failed == 0 and ok.problems == [] and ok.sims > 0
    copy = tmp_path / "store"
    shutil.copytree(small_store, copy)
    (cell_file,) = (copy / "cells").glob("*.jsonl")
    lines = cell_file.read_text().splitlines()
    record = json.loads(lines[1])
    # The wall-clock field is outside the digest ...
    record["runtime_s"] = record["runtime_s"] + 1.0
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    cell_file.write_text("\n".join(lines) + "\n")
    assert workloads.records_digest(copy) == ok.digest
    # ... any result value is inside it.
    record["front"][0]["objectives"][0] += 1e-9
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    cell_file.write_text("\n".join(lines) + "\n")
    assert workloads.records_digest(copy) != ok.digest


def test_structural_checks_catch_a_broken_cell(small_store, tmp_path):
    import shutil

    copy = tmp_path / "store"
    shutil.copytree(small_store, copy)
    (cell_file,) = (copy / "cells").glob("*.jsonl")
    lines = cell_file.read_text().splitlines()
    record = json.loads(lines[1])
    record["evaluations"] -= 1
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    cell_file.write_text("\n".join(lines) + "\n")
    bad = workloads.check_campaign(copy, 0)
    assert bad.failed == 1 and "budget" in bad.problems[0]
    cell_file.write_text("\n".join(lines[:-1]) + "\n")  # drop the done marker
    assert "incomplete" in workloads.check_campaign(copy, 0).problems[0]


def test_front_checks():
    a = {"objectives": [1.0, 1.0], "constraint_violation": 0.0}
    b = {"objectives": [2.0, 2.0], "constraint_violation": 0.0}
    c = {"objectives": [0.5, 3.0], "constraint_violation": 0.0}
    assert workloads.front_problems([a, c]) == []
    assert "member 1 is dominated" in workloads.front_problems([a, b])
    assert "infeasible member" in workloads.front_problems(
        [a, dict(c, constraint_violation=0.5)]
    )


def _live(module_name: str, dotted: str):
    owner = sys.modules[module_name]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_run_restores_every_wrapped_callable(tmp_path):
    Tracer.import_targets()
    targets = [(m, d) for m, d, *_ in LAYER_TARGETS if m in sys.modules]
    before = {t: _live(*t) for t in targets}
    tracer = Tracer(tmp_path)
    missing = tracer.install()
    assert all("_evcore" in m for m in missing), missing
    assert all(_live(*t) is not before[t] for t in targets)
    import repro.cli

    with tracer.root("process", 0.0):
        assert repro.cli.main(["simulate", "--density", "100"]) == 0
    tracer.restore()
    assert tracer.n_patches == 0
    assert all(_live(*t) is before[t] for t in targets)
    names = {tracer.names[nid] for _, nid, *_ in tracer.spans}
    assert {"cli.main", "sim.construct", "sim.run"} <= names


def test_layer_tree_self_times_add_up_to_the_root(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.install()
    import time

    import repro.cli

    try:
        with tracer.root("process", time.perf_counter()):
            repro.cli.main(["simulate", "--density", "100"])
    finally:
        tracer.restore()
    tracer.dump()
    from tracer import load_trace_dir

    (trace,) = load_trace_dir(tmp_path)
    rows = self_times(trace)
    (root,) = [r for r in rows if r["parent"] == -1]
    assert len(rows) > 3
    assert sum(r["self"] for r in rows) == pytest.approx(root["dur"], abs=1e-9)
    assert all(r["self"] >= -1e-9 for r in rows)
