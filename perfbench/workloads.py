"""The campaign workloads: their inputs, commands and output checks.

Every workload turns the benchmark seed into its inputs (the seed is the
campaign ``master_seed``; ``sweep-pool`` also draws its parameter
vectors from it), runs as one fresh ``repro`` process, and is checked
from what it wrote:

* deterministic workloads (``paper-rw``, ``sweep-pool``) hash their
  cell records with the wall-clock ``runtime_s`` removed; the digest
  must equal the pinned one for the default seed's input sets
  (``pins.json``) and be the same on every repetition of an input set
  within a run, traced or not;
* every workload passes structural checks: each cell complete, tune
  cells spent exactly their evaluation budget and returned a feasible,
  mutually non-dominated front, evaluate cells hold one record per
  parameter vector with one result per network.

An operation is one cell (one tune job for ``mls-parallel``); a failed
check fails the operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: The seed whose record digests are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: Input sets per run: repetition k of a run uses input set k mod this.
INPUTS_PER_RUN = 4


def input_seeds(seed: int) -> list[int]:
    """The campaign master seeds of one run's input sets."""
    return [seed * 1000 + j for j in range(INPUTS_PER_RUN)]


@dataclass(frozen=True)
class Workload:
    #: "cli" (a ``repro-aedb campaign run``) or "mls" (:mod:`mls_job`).
    entry: str
    deterministic: bool


#: How each workload runs; ``BENCHMARK.json`` says what each is for.
WORKLOADS = {
    "paper-rw": Workload("cli", True),
    "sweep-pool": Workload("cli", True),
    "mls-parallel": Workload("mls", False),
}

#: ``sweep-pool`` scores this many parameter vectors per cell.
SWEEP_PARAMS = 4
SWEEP_NETWORKS = 5


#: ``--smoke`` inputs: a few 8-node networks, for the benchmark's own
#: tests (the numbers are not comparable with full runs).
SMOKE_NODES = 8


def _spec_dict(workload: str, seed: int, smoke: bool) -> dict:
    """The campaign spec (as JSON data) of a campaign workload."""
    spec = _full_spec_dict(workload, seed)
    if smoke:
        spec.update(n_networks=1, n_nodes=SMOKE_NODES)
        if workload == "sweep-pool":
            spec.update(n_seeds=1, densities=[100, 300])
    return spec


def _full_spec_dict(workload: str, seed: int) -> dict:
    if workload == "paper-rw":
        return {
            "name": "paper-rw", "densities": [100, 300],
            "mobility_models": ["random-walk"], "n_seeds": 1,
            "algorithms": ["AEDB-MLS", "NSGAII", "CellDE"],
            "n_networks": 2, "master_seed": seed, "scale": "quick",
        }
    if workload == "sweep-pool":
        import numpy as np

        from repro.tuning.bounds import lower_bounds, upper_bounds

        rng = np.random.default_rng([seed, 0x5EE9])
        lo, hi = lower_bounds(), upper_bounds()
        params = rng.uniform(lo, hi, size=(SWEEP_PARAMS, len(lo)))
        return {
            "name": "sweep-pool", "densities": [100, 200, 300],
            "mobility_models": ["random-walk", "gauss-markov",
                                "random-waypoint"],
            "n_seeds": 2, "algorithms": ["evaluate"],
            "params": [[float(v) for v in p] for p in params],
            "n_networks": SWEEP_NETWORKS, "master_seed": seed,
            "scale": "quick",
        }
    raise KeyError(workload)


def prepare(workload: str, seed: int, work: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs under ``work``; return its plan."""
    if WORKLOADS[workload].entry == "cli":
        from repro.campaigns import CampaignSpec

        spec = CampaignSpec.from_dict(_spec_dict(workload, seed, smoke))
        spec_path = work / "spec.json"
        spec_path.write_text(spec.to_json())
        backend = (
            ["--backend", "pool", "--workers", "2"]
            if workload == "sweep-pool" else ["--backend", "inline"]
        )
        return {"spec_path": str(spec_path), "backend": backend}
    size = (
        ["--networks", "1", "--nodes", str(SMOKE_NODES), "--evals-per-thread", "10"]
        if smoke else ["--networks", "5", "--evals-per-thread", "150"]
    )
    return {"mls_args": ["--seed", str(seed), *size]}


def command(workload: str, plan: dict, out: Path, setup_only: bool = False):
    """``(entry, args)``: what one workload process runs.

    ``setup_only`` is the set-up probe: for a campaign it re-runs the
    same command on ``out`` once that store is complete (a real no-op
    resume: start-up, imports, spec parse, store scan); for the API job
    it imports, checks the kernel and builds the problem, then stops.
    """
    if WORKLOADS[workload].entry == "cli":
        return "cli", [
            "campaign", "run", "--out", str(out),
            "--spec", plan["spec_path"], *plan["backend"],
        ]
    args = ["--out", str(out / "result.json"), *plan["mls_args"]]
    if setup_only:
        args.append("--setup-only")
    return "mls", args


# --------------------------------------------------------------------- #
# checks
def _dominates(a: list[float], b: list[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def front_problems(front: list[dict]) -> list[str]:
    """Why a front is not a feasible, mutually non-dominated set."""
    if not front:
        return ["empty front"]
    problems = []
    objs = [s["objectives"] for s in front]
    if any(not all(math.isfinite(v) for v in o) for o in objs):
        problems.append("non-finite objective")
    if any(s["constraint_violation"] != 0.0 for s in front):
        problems.append("infeasible member")
    for i, a in enumerate(objs):
        if any(_dominates(b, a) for j, b in enumerate(objs) if j != i):
            problems.append(f"member {i} is dominated")
            break
    return problems


def records_digest(store: Path) -> str:
    """sha256 over every cell file's entries, ``runtime_s`` removed."""
    h = hashlib.sha256()
    for path in sorted((store / "cells").glob("*.jsonl")):
        h.update(path.name.encode())
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            entry.pop("runtime_s", None)
            h.update(json.dumps(entry, sort_keys=True,
                                separators=(",", ":")).encode())
    return h.hexdigest()


def pinned_digests(workload: str) -> list[str] | None:
    """Record digests of :data:`DEFAULT_SEED`'s input sets, in order."""
    try:
        return json.loads(PINS_PATH.read_text())[workload]
    except (FileNotFoundError, KeyError):
        return None


@dataclass
class Outcome:
    """What one workload process produced."""

    attempted: int
    failed: int
    sims: int
    digest: str | None
    problems: list[str]


def check_campaign(store: Path, exit_code: int) -> Outcome:
    """Structural checks over a campaign store (digest computed, not
    compared: the caller knows which digest it expects)."""
    from repro.campaigns import CampaignSpec, ResultStore
    from repro.campaigns.spec import EVALUATE
    from repro.experiments.config import get_scale

    spec = CampaignSpec.from_file(store / "spec.json")
    rs = ResultStore(store)
    cells = spec.cells()
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"campaign exited {exit_code}")
    failures = store / "failures.jsonl"
    if failures.exists() and failures.read_text().strip():
        problems.append("quarantined cells in failures.jsonl")
    failed = 0
    sims = 0
    for cell in cells:
        bad = _cell_problems(rs, cell, get_scale(spec.scale), EVALUATE)
        if isinstance(bad, int):
            sims += bad
        else:
            failed += 1
            problems.append(f"{cell.key}: {bad}")
    if problems and not failed:
        failed = len(cells)  # a run-level failure fails every cell
    return Outcome(len(cells), failed, sims, records_digest(store), problems)


def _cell_problems(rs, cell, scale, evaluate_label):
    """Simulations the cell ran (int), or why it is wrong (str)."""
    if not rs.is_complete(cell):
        return "incomplete"
    records = rs.read_cell(cell)
    if cell.algorithm == evaluate_label:
        if len(records) != len(cell.params):
            return f"{len(records)} records for {len(cell.params)} params"
        for rec in records:
            runs = rec["per_network"]
            if len(runs) != cell.n_networks:
                return f"{len(runs)} network results, want {cell.n_networks}"
            for run in runs:
                if not 0 <= run["coverage"] <= run["n_nodes"]:
                    return "coverage out of range"
                if not all(math.isfinite(run[k]) for k in
                           ("energy_dbm", "forwardings", "broadcast_time_s")):
                    return "non-finite metric"
        return len(cell.params) * cell.n_networks
    (rec,) = records
    budget = (
        scale.mls.total_evaluations if cell.algorithm == "AEDB-MLS"
        else scale.moea_evaluations
    )
    if rec["evaluations"] != budget:
        return f"{rec['evaluations']} evaluations, budget {budget}"
    bad = front_problems(rec["front"])
    if bad:
        return "; ".join(bad)
    return rec["evaluations"] * cell.n_networks


def check_mls(out: Path, exit_code: int) -> Outcome:
    try:
        result = json.loads((out / "result.json").read_text())
    except FileNotFoundError:
        return Outcome(1, 1, 0, None, [f"no result (exit {exit_code})"])
    problems = [] if exit_code == 0 else [f"exited {exit_code}"]
    if result["evaluations"] != result["budget"]:
        problems.append(
            f"{result['evaluations']} evaluations, budget {result['budget']}"
        )
    problems += front_problems(result["front"])
    sims = result["evaluations"] * result["n_networks"]
    return Outcome(1, 1 if problems else 0, sims, None, problems)


def check(workload: str, out: Path, exit_code: int) -> Outcome:
    if WORKLOADS[workload].entry == "cli":
        return check_campaign(out, exit_code)
    return check_mls(out, exit_code)

