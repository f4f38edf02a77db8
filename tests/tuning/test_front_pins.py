"""Golden digests of the fronts the paper's three optimisers produce.

NSGA-II, CellDE and serial AEDB-MLS on the AEDB tuning problem at 100
and 300 dev/km² over 2 networks, and NSGA-II and CellDE on the
constrained analytic Srinivas problem (cheap: no simulator, so it also
checks the operators on hosts without the compiled kernel).  A digest
hashes the front's variables and objectives as ``float.hex`` plus the
run's ``info``; it moves if any ``Generator`` call, any operator's
arithmetic, the ranking, the crowding truncation or the archive
changes.

The budgets are chosen so that every run exercises the bookkeeping
under test: CellDE's archive overflows its capacity, NSGA-II runs at
least three generations, and infeasible solutions (broadcast time over
the 2 s limit) are evaluated.  The AEDB runs are pinned on the pure
window (``REPRO_COMPILED=off``) and through the compiled kernel, to the
same digest.  The ``processes`` engine is pinned to the serial AEDB-MLS
run for 1–4 populations, on both paths: front, stats and ``archived``
counts alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import AEDBMLS, MLSConfig
from repro.moo.algorithms import NSGAII, CellDE
from repro.moo.archive import CrowdingDistanceArchive
from repro.moo.problems.misc import Srinivas
from repro.tuning import make_tuning_problem

#: CellDE's archive capacity in every pinned run: small enough that the
#: budget overflows it.
CELLDE_CAPACITY = 5

MLS_CFG = MLSConfig(
    n_populations=2,
    threads_per_population=2,
    evaluations_per_thread=12,
    reset_iterations=4,
    archive_capacity=6,
)


def _digest(result, info: dict | None = None) -> str:
    """sha256 prefix over the front (variables and objectives as
    ``float.hex``) and the run's ``info`` (or ``info``) without its
    config."""
    h = hashlib.sha256()
    for sol in result.front:
        h.update(",".join(float(v).hex() for v in sol.variables).encode())
        h.update(";".join(float(v).hex() for v in sol.objectives).encode())
        h.update(float(sol.constraint_violation).hex().encode())
    info = {k: v for k, v in (info or result.info).items() if k != "config"}
    h.update(json.dumps(info, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _make(algorithm: str, problem, seed: int):
    if algorithm == "NSGAII":
        return NSGAII(problem, max_evaluations=72, population_size=12, rng=seed)
    if algorithm == "CellDE":
        return CellDE(
            problem, max_evaluations=80, grid_side=4,
            archive_capacity=CELLDE_CAPACITY, rng=seed,
        )
    return AEDBMLS(problem, MLS_CFG, seed=seed)


def _record_violations(problem) -> list[float]:
    """Patch ``problem`` to log each evaluated constraint violation."""
    violations: list[float] = []
    evaluate = problem.evaluate

    def logged(solution):
        evaluate(solution)
        violations.append(solution.constraint_violation)
        return solution

    problem.evaluate = logged
    return violations


@pytest.fixture()
def truncations(monkeypatch) -> list[int]:
    """Log the size of every CellDE archive that overflowed."""
    sizes: list[int] = []
    on_accept = CrowdingDistanceArchive._on_accept

    def logged(self, candidate):
        if len(self) > self.capacity:
            sizes.append(len(self))
        on_accept(self, candidate)

    monkeypatch.setattr(CrowdingDistanceArchive, "_on_accept", logged)
    return sizes


#: (algorithm, density) -> digest of the run at seed 5.
AEDB_DIGESTS = {
    ("NSGAII", 100): "ebff738c0fdd1abe",
    ("NSGAII", 300): "0bb031c71ce60b34",
    ("CellDE", 100): "161f2bc1f84421ff",
    ("CellDE", 300): "0587d3eaacf0c183",
    ("AEDB-MLS", 100): "97a4cc86a492a6eb",
    ("AEDB-MLS", 300): "51b2fe08ec8c0500",
}

#: (algorithm, seed) -> digest of the run on Srinivas.
ANALYTIC_DIGESTS = {
    ("NSGAII", 1): "28a580b121ba697b",
    ("NSGAII", 2): "4bc732f3b777d7ab",
    ("CellDE", 1): "b04f37867f6e9389",
    ("CellDE", 2): "05aead7a2375c18b",
}


@pytest.mark.parametrize(
    "compiled", ["off", pytest.param("auto", marks=pytest.mark.compiled)]
)
@pytest.mark.parametrize("algorithm, density", sorted(AEDB_DIGESTS))
def test_aedb_front_digest(
    algorithm, density, compiled, monkeypatch, truncations
):
    monkeypatch.setenv("REPRO_COMPILED", compiled)
    problem = make_tuning_problem(density, n_networks=2, master_seed=0xF207)
    violations = _record_violations(problem)
    result = _make(algorithm, problem, seed=5).run()
    assert any(v > 0.0 for v in violations), "no infeasible evaluation"
    if algorithm == "NSGAII":
        assert result.info["generations"] >= 3
    if algorithm == "CellDE":
        assert truncations, "the archive never overflowed"
    assert _digest(result) == AEDB_DIGESTS[algorithm, density]


@pytest.mark.parametrize("algorithm, seed", sorted(ANALYTIC_DIGESTS))
def test_analytic_front_digest(algorithm, seed, truncations):
    problem = Srinivas()
    violations = _record_violations(problem)
    if algorithm == "NSGAII":
        alg = NSGAII(problem, max_evaluations=400, population_size=20, rng=seed)
    else:
        alg = CellDE(
            problem, max_evaluations=400, grid_side=5,
            archive_capacity=10, rng=seed,
        )
    result = alg.run()
    assert any(v > 0.0 for v in violations), "no infeasible evaluation"
    if algorithm == "CellDE":
        assert truncations, "the archive never overflowed"
    assert _digest(result) == ANALYTIC_DIGESTS[algorithm, seed]


@pytest.mark.parametrize(
    "compiled", ["off", pytest.param("auto", marks=pytest.mark.compiled)]
)
@pytest.mark.parametrize("density", [100, 300])
@pytest.mark.parametrize("n_populations", [1, 2, 3, 4])
def test_processes_front_digest_is_serial(
    n_populations, density, compiled, monkeypatch
):
    monkeypatch.setenv("REPRO_COMPILED", compiled)
    problem = make_tuning_problem(density, n_networks=2, master_seed=0xF207)
    config = dataclasses.replace(MLS_CFG, n_populations=n_populations)
    expected = _digest(AEDBMLS(problem, config, seed=5).run())
    if n_populations == MLS_CFG.n_populations:
        assert expected == AEDB_DIGESTS["AEDB-MLS", density]
    config = dataclasses.replace(config, engine="processes")
    for _ in range(2):
        result = AEDBMLS(problem, config, seed=5).run()
        info = {**result.info, "engine": "serial"}
        assert info.pop("archive_messages") > 0
        assert _digest(result, info) == expected
