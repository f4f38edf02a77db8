#!/usr/bin/env python
# Demonstrates: README §The command line (repro-aedb protocols); DESIGN.md §6 AEDB state machine.
"""Protocol showdown: AEDB against the classic broadcast-storm schemes.

The paper motivates AEDB with the *broadcast storm problem* (Ni et
al. [12]): blind flooding wastes energy and collides itself into poor
coverage.  This example runs the whole baseline suite — blind flooding,
jittered flooding, gossip, counter-based and distance-based suppression —
plus AEDB (untuned and tuned) on the same evaluation networks, at every
paper density, and prints the reachability / saved-rebroadcast /
energy trade-off table.

The "tuned" AEDB row uses a configuration from a short AEDB-MLS run,
closing the loop: the optimiser exists precisely to push that row toward
the top of this table.

Run:  python examples/protocol_showdown.py
"""

from repro import AEDBParams, make_scenarios
from repro.core import AEDBMLS, MLSConfig
from repro.manet.protocols import compare_protocols, standard_protocol_suite
from repro.manet.protocols.compare import render_comparison
from repro.tuning import AEDBTuningProblem, NetworkSetEvaluator


def tuned_params(scenarios) -> AEDBParams:
    """A quick MLS run; picks the highest-coverage feasible solution."""
    problem = AEDBTuningProblem(NetworkSetEvaluator(scenarios))
    config = MLSConfig(
        n_populations=2,
        threads_per_population=2,
        evaluations_per_thread=15,
        engine="serial",
    )
    result = AEDBMLS(problem, config, seed=0xC0FFEE).run()
    front = result.feasible_front() or result.front
    best = max(front, key=lambda s: -s.objectives[1])  # objectives store -coverage
    return AEDBParams.from_array(best.variables).clipped()


def main() -> None:
    for density in (100, 200, 300):
        scenarios = make_scenarios(density_per_km2=density, n_networks=3)
        print(f"\n=== {density} devices/km^2 ({scenarios[0].n_nodes} nodes) ===")

        suite = standard_protocol_suite()
        suite["AEDB(tuned)"] = tuned_params(scenarios)
        comparison = compare_protocols(suite, scenarios)
        print(render_comparison(comparison))

        best_reach = comparison.ranking("reachability")[0]
        best_srb = comparison.ranking("saved_rebroadcasts")[0]
        print(f"  best reachability: {best_reach}; most storm removed: {best_srb}")

    print(
        "\nBlind flooding self-collides (low reach, zero savings); the "
        "suppression schemes trade a little reach for large savings; AEDB "
        "adds power adaptation on top, and tuning picks the knee."
    )


if __name__ == "__main__":
    main()
