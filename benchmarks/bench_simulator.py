"""Microbenchmarks of the MANET simulator substrate.

Not a paper artefact — these keep the cost model of the evaluation
pipeline visible (the optimiser's wall-clock is simulator-bound) and
guard against performance regressions in the hot paths identified in
DESIGN.md (beacon rounds, frame resolution).
"""

import pytest

from repro.manet import AEDBParams, make_scenarios
from repro.manet.beacons import NeighborTables
from repro.manet.simulator import BroadcastSimulator
from repro.tuning import NetworkSetEvaluator

PARAMS = AEDBParams(
    min_delay_s=0.0,
    max_delay_s=1.0,
    border_threshold_dbm=-90.0,
    margin_threshold_db=1.0,
    neighbors_threshold=10.0,
)


@pytest.mark.parametrize("density", [100, 200, 300])
def test_single_simulation(benchmark, density, emit):
    scenario = make_scenarios(density, n_networks=1)[0]

    def run():
        return BroadcastSimulator(scenario, PARAMS).run()

    metrics = benchmark(run)
    assert metrics.n_nodes == scenario.n_nodes
    assert metrics.coverage >= 0


def test_beacon_round_75_nodes(benchmark, emit):
    scenario = make_scenarios(300, n_networks=1)[0]
    mobility = scenario.build_mobility()
    tables = NeighborTables(scenario.n_nodes, scenario.sim, mobility)

    def round_():
        tables.beacon_round(30.0)

    benchmark(round_)
    assert tables.rounds_run > 0


def test_full_evaluation_10_networks(benchmark, emit):
    """Per-call recompute cost of one full evaluation (no runtime cache).

    Memoisation is disabled for the duration so every round measures the
    cold substrate path — otherwise the first round would populate the
    process-global runtime LRU and the rest would silently measure the
    warm path (that cost is ``test_warm_runtime_evaluation``'s job).
    """
    from repro.manet import set_runtime_memoisation

    evaluator = NetworkSetEvaluator.for_density(100, n_networks=10)

    set_runtime_memoisation(False)
    try:
        metrics = benchmark(lambda: evaluator.evaluate(PARAMS))
    finally:
        set_runtime_memoisation(True)
    assert metrics.n_nodes == 25


@pytest.mark.parametrize("density", [100, 300])
def test_warm_runtime_evaluation(benchmark, density, emit):
    """Evaluation cost once the scenario runtimes are precomputed.

    This is the steady-state cost an optimiser pays from evaluation #2
    onward; contrast with ``test_full_evaluation_10_networks`` (per-call
    recompute) and see ``bench_runtime_cache.py`` for the recorded ratio.
    """
    from repro.manet import get_runtime

    evaluator = NetworkSetEvaluator.for_density(density, n_networks=10)
    for s in evaluator.scenarios:
        get_runtime(s)  # precompute outside the timed region

    metrics = benchmark(lambda: evaluator.evaluate(PARAMS))
    assert metrics.n_nodes == evaluator.n_nodes


def test_mobility_position_queries(benchmark, emit):
    scenario = make_scenarios(300, n_networks=1)[0]
    mobility = scenario.build_mobility()

    def queries():
        for t in range(40):
            mobility.positions_at(float(t))

    benchmark(queries)
