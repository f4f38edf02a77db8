#!/usr/bin/env python
# Demonstrates: README §Package map (core engines); the paper's parallel local-search claim.
"""The two AEDB-MLS execution engines side by side.

Same algorithm, same budget, two execution models (paper Sect. IV:
"hybrid parallel model: message-passing ... between the distributed
populations and the external archive, and shared-memory ... between
solutions in the same population"):

* serial    — deterministic round-robin reference, every population in
  one thread;
* processes — one process per population, with a parent archive server
  reached over pipes, the paper's deployment model.

Both engines step a population's procedures round-robin in one thread
(the shared-memory level), and both give one front for one seed: the
parent applies the populations' archive traffic in the serial engine's
order, and a population sends one message per reset.

Run:  python examples/parallel_engines.py
"""

from repro.core import AEDBMLS, MLSConfig
from repro.core.config import ENGINE_NAMES
from repro.tuning import make_tuning_problem


def main() -> None:
    base = dict(
        n_populations=2,
        threads_per_population=2,
        evaluations_per_thread=25,
        reset_iterations=15,
        archive_capacity=50,
    )
    print(f"{'engine':>10s} {'wall[s]':>8s} {'evals':>6s} {'front':>6s} "
          f"{'best coverage':>14s}")
    fronts = {}
    for engine in ENGINE_NAMES:
        problem = make_tuning_problem(100, n_networks=3)
        config = MLSConfig(**base, engine=engine)
        result = AEDBMLS(problem, config, seed=11).run()
        display = problem.display_objectives(result.objectives_matrix())
        fronts[engine] = result.objectives_matrix().tolist()
        print(
            f"{engine:>10s} {result.runtime_s:>8.2f} "
            f"{result.evaluations:>6d} {len(result.front):>6d} "
            f"{display[:, 1].max():>14.1f}"
        )
        if engine == "processes":
            msgs = result.info["archive_messages"]
            print(f"{'':>10s} archive served {msgs} messages over pipes")

    same = len({repr(front) for front in fronts.values()}) == 1
    print(
        f"\nOne front from both engines: {same}.  On a many-core host the "
        "process engine is the one that scales (the paper used 8 nodes x "
        "12 threads)."
    )


if __name__ == "__main__":
    main()
