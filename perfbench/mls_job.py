"""The ``mls-parallel`` workload: one AEDB-MLS run on the processes engine.

Called through the public API, as a library user would: build the
tuning problem, configure :class:`repro.core.AEDBMLS` with one
population per core on the ``processes`` engine (the paper's parallel
model: populations in worker processes, the archive served by the
parent over pipes) at 300 dev/km², run it, and write the result as
JSON::

    PYTHONPATH=src python3 perfbench/mls_job.py --out result.json \\
        --seed 7 --networks 5 --evals-per-thread 150
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DENSITY = 300


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--networks", type=int, default=5)
    parser.add_argument("--nodes", type=int, default=None,
                        help="node-count override (smoke runs)")
    parser.add_argument("--evals-per-thread", type=int, default=150)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop after imports, the kernel check and problem set-up",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.core import AEDBMLS, MLSConfig
    from repro.manet.compiled import compiled_core_available
    from repro.tuning import make_tuning_problem

    problem = make_tuning_problem(
        DENSITY, n_networks=args.networks, master_seed=args.seed,
        n_nodes=args.nodes,
    )
    config = MLSConfig(
        n_populations=os.cpu_count() or 1,
        threads_per_population=4,
        evaluations_per_thread=args.evals_per_thread,
        reset_iterations=50,
        archive_capacity=100,
        engine="processes",
    )
    if args.setup_only:
        compiled_core_available()
        return 0
    result = AEDBMLS(problem, config, seed=args.seed).run()
    payload = {
        "algorithm": result.algorithm,
        "evaluations": int(result.evaluations),
        "budget": int(config.total_evaluations),
        "n_networks": int(args.networks),
        "front": [
            {
                "objectives": [float(v) for v in s.objectives],
                "constraint_violation": float(s.constraint_violation),
            }
            for s in result.front
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
