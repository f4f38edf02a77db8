"""Command-line interface: ``repro-aedb`` (or ``python -m repro``).

Subcommands map to the deliverables:

* ``simulate``    — run AEDB on one evaluation network, print metrics;
* ``tune``        — run AEDB-MLS on a density, print the front found;
* ``compare``     — mini-campaign NSGA-II vs CellDE vs AEDB-MLS with
  indicator boxplots and Wilcoxon verdicts;
* ``sensitivity`` — FAST99 (or Sobol') study (Fig. 2) and the Table I
  summary;
* ``timing``      — the execution-time experiment;
* ``protocols``   — broadcast-storm baseline suite vs AEDB (Sect. I
  context);
* ``campaign``    — declarative scenario-space sweeps (densities ×
  mobility models × arenas × seeds × algorithms) with two execution
  backends (``--backend {inline,pool}``) and a resumable result store:
  ``campaign run``, ``campaign status``, ``campaign report``,
  ``campaign telemetry`` (replay a run's ``telemetry.jsonl`` — recorded
  when ``REPRO_TELEMETRY`` is set — into a timing/counter summary or a
  Prometheus snapshot), and ``campaign failures`` (the quarantine
  ledger: cells that exhausted their retry budget, DESIGN.md §13 —
  ``campaign run`` takes ``--retries/--cell-timeout``, rejects a bad
  value of either with exit code 2, and exits 2
  when cells were quarantined, never aborting the run);
* ``cache``       — maintenance of the persistent evaluation cache
  (the ``evaluations.jsonl`` sidecar): ``cache stats``, ``cache flush``.

Every command honours ``--scale {quick,medium,paper}`` (or the
``REPRO_SCALE`` env var) and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _policy_arg(field: str, cast):
    """An argparse type checking one :class:`RetryPolicy` field, so a bad
    ``--retries``/``--cell-timeout`` value (zero, NaN, infinite, ...)
    exits 2 naming the flag before any run starts."""

    def parse(text: str):
        from repro.campaigns.resilience import RetryPolicy

        value = cast(text)
        try:
            RetryPolicy(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid <name> value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    from repro.core.config import ENGINE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-aedb",
        description=(
            "Reproduction of 'A Parallel Multi-objective Local Search for "
            "AEDB Protocol Tuning' (IPPS 2013)."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "medium", "paper"),
        default=None,
        help="experiment scale preset (default: REPRO_SCALE or quick)",
    )
    parser.add_argument("--seed", type=int, default=0xAEDB, help="master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one AEDB broadcast")
    sim.add_argument("--density", type=int, default=300, help="devices/km^2")
    sim.add_argument("--network", type=int, default=0, help="network index")
    sim.add_argument("--min-delay", type=float, default=0.0)
    sim.add_argument("--max-delay", type=float, default=1.0)
    sim.add_argument("--border", type=float, default=-90.0, help="dBm")
    sim.add_argument("--margin", type=float, default=1.0, help="dB")
    sim.add_argument("--neighbors", type=float, default=10.0)

    tune = sub.add_parser("tune", help="run AEDB-MLS")
    tune.add_argument("--density", type=int, default=100)
    tune.add_argument("--engine", choices=ENGINE_NAMES, default=None)

    comp = sub.add_parser("compare", help="algorithm comparison campaign")
    comp.add_argument("--density", type=int, default=100)
    comp.add_argument("--runs", type=int, default=None)

    sens = sub.add_parser("sensitivity", help="FAST99/Sobol study + Table I")
    sens.add_argument("--density", type=int, default=300)
    sens.add_argument(
        "--method",
        choices=("fast99", "sobol"),
        default="fast99",
        help="variance-decomposition estimator (fast99 = the paper's)",
    )

    sub.add_parser("timing", help="execution-time comparison")

    prot = sub.add_parser(
        "protocols", help="broadcast-storm baselines vs AEDB"
    )
    prot.add_argument("--density", type=int, default=200)

    camp = sub.add_parser(
        "campaign", help="declarative scenario-space sweeps"
    )
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)

    run_p = camp_sub.add_parser("run", help="execute the pending cells")
    run_p.add_argument("--out", required=True, help="campaign directory")
    run_p.add_argument(
        "--spec", default=None,
        help="JSON spec file (overrides the grid flags below)",
    )
    run_p.add_argument("--name", default="campaign", help="campaign name")
    run_p.add_argument(
        "--densities", default="100,200,300",
        help="comma-separated devices/km^2",
    )
    run_p.add_argument(
        "--mobility", default="random-walk",
        help="comma-separated mobility models",
    )
    run_p.add_argument(
        "--arenas", default="500", help="comma-separated arena sides, m"
    )
    run_p.add_argument(
        "--seeds", type=int, default=1, help="grid points on the seeds axis"
    )
    run_p.add_argument(
        "--algorithms", default="evaluate",
        help="comma-separated: 'evaluate' and/or optimiser names",
    )
    run_p.add_argument(
        "--networks", type=int, default=None,
        help="evaluation networks per cell (default: scale preset)",
    )
    run_p.add_argument(
        "--nodes", type=int, default=None,
        help="node-count override (quick sweeps)",
    )
    run_p.add_argument(
        "--workers", type=int, default=None, help="process pool size"
    )
    run_p.add_argument(
        "--serial", action="store_true", help="run in-process, no pool"
    )
    run_p.add_argument(
        "--backend", default=None,
        metavar="{inline,pool}",
        help="execution backend (default: pool, one process-pool task "
             "per cell; --serial = inline)",
    )
    cache_group = run_p.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persistent evaluation cache file (default: the campaign's "
             "evaluations.jsonl sidecar; point several campaigns at one "
             "file to share results across them)",
    )
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent evaluation cache",
    )
    run_p.add_argument(
        "--retries", type=_policy_arg("max_attempts", int), default=None,
        metavar="N",
        help="attempts per cell before quarantine (default 3; 1 = "
             "fail-fast, no retries)",
    )
    run_p.add_argument(
        "--cell-timeout", type=_policy_arg("cell_timeout_s", float),
        default=None, metavar="S",
        help="wall-clock cap in seconds on one attempt of a cell (pool "
             "backend): an attempt still running after S is failed and "
             "retried (default: no timeout)",
    )

    status_p = camp_sub.add_parser("status", help="completion census")
    status_p.add_argument("--out", required=True, help="campaign directory")

    tele_p = camp_sub.add_parser(
        "telemetry",
        help="replay a campaign's telemetry.jsonl (REPRO_TELEMETRY runs)",
    )
    tele_p.add_argument("--out", required=True, help="campaign directory")
    tele_p.add_argument(
        "--top", type=int, default=10,
        help="slowest cells to list (default 10)",
    )
    tele_p.add_argument(
        "--export-prom", default=None, metavar="PATH",
        help="also write the summary as Prometheus text format "
             "('-' = stdout)",
    )

    report_p = camp_sub.add_parser("report", help="render completed results")
    report_p.add_argument("--out", required=True, help="campaign directory")

    fail_p = camp_sub.add_parser(
        "failures",
        help="report quarantined cells (the failures.jsonl ledger)",
    )
    fail_p.add_argument("--out", required=True, help="campaign directory")

    cache_p = sub.add_parser(
        "cache", help="persistent evaluation-cache maintenance"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cstats = cache_sub.add_parser("stats", help="entry/size census")
    cstats.add_argument(
        "--path", required=True, help="cache file (…/evaluations.jsonl)"
    )
    cflush = cache_sub.add_parser("flush", help="delete every cached result")
    cflush.add_argument(
        "--path", required=True, help="cache file (…/evaluations.jsonl)"
    )
    return parser


def _cmd_simulate(args) -> int:
    from repro.manet import AEDBParams, make_scenarios, simulate_broadcast

    scenario = make_scenarios(
        args.density, n_networks=args.network + 1, master_seed=args.seed
    )[args.network]
    params = AEDBParams(
        min_delay_s=args.min_delay,
        max_delay_s=args.max_delay,
        border_threshold_dbm=args.border,
        margin_threshold_db=args.margin,
        neighbors_threshold=args.neighbors,
    ).clipped()
    metrics = simulate_broadcast(scenario, params)
    print(f"scenario: density={args.density} network={args.network} "
          f"n_nodes={scenario.n_nodes} source={scenario.source}")
    print(f"params:   {params}")
    print(f"metrics:  {metrics}")
    return 0


def _cmd_tune(args, scale) -> int:
    from repro.core import AEDBMLS
    from repro.experiments.runner import make_algorithm
    from repro.tuning import make_tuning_problem

    problem = make_tuning_problem(
        args.density, n_networks=scale.n_networks, master_seed=args.seed
    )
    alg = make_algorithm("AEDB-MLS", problem, scale, args.seed, args.engine)
    assert isinstance(alg, AEDBMLS)
    result = alg.run()
    display = problem.display_objectives(result.objectives_matrix())
    print(
        f"AEDB-MLS ({result.info['engine']}): {len(result.front)} "
        f"non-dominated solutions, {result.evaluations} evaluations, "
        f"{result.runtime_s:.1f}s"
    )
    print(f"{'energy[dBm]':>12s} {'coverage':>9s} {'forwardings':>12s}   parameters")
    order = np.argsort(display[:, 1])
    for i in order:
        sol = result.front[i]
        vars_str = np.array2string(sol.variables, precision=3)
        print(
            f"{display[i, 0]:>12.2f} {display[i, 1]:>9.1f} "
            f"{display[i, 2]:>12.1f}   {vars_str}"
        )
    return 0


def _cmd_compare(args, scale) -> int:
    from repro.experiments import build_density_artifacts, run_campaign
    from repro.experiments.figures import fig6_series, fig7_series
    from repro.experiments.report import render_fig6, render_fig7
    from repro.experiments.tables import table4

    campaigns = {}
    for name in ("NSGAII", "CellDE", "AEDB-MLS"):
        print(f"running {name} x{args.runs or scale.n_runs} ...", flush=True)
        campaigns[name] = run_campaign(
            name, args.density, scale=scale, n_runs=args.runs
        )
    artifacts = build_density_artifacts(campaigns, args.density)
    print(render_fig6(fig6_series(artifacts)))
    print()
    print(render_fig7(fig7_series(artifacts)))
    print()
    print(table4({args.density: artifacts}).render())
    return 0


def _cmd_sensitivity(args, scale) -> int:
    from repro.experiments.figures import fig2_series
    from repro.experiments.report import render_fig2
    from repro.experiments.tables import table1

    data = fig2_series(
        args.density,
        n_networks=scale.n_networks,
        n_samples=scale.fast_samples,
        master_seed=args.seed,
        method=args.method,
    )
    print(render_fig2(data))
    print()
    print(
        table1(
            args.density,
            n_networks=scale.n_networks,
            n_samples=scale.fast_samples,
            master_seed=args.seed,
        ).render()
    )
    return 0


def _cmd_timing(args, scale) -> int:
    from repro.experiments.timing import run_timing_experiment

    report = run_timing_experiment(
        densities=tuple(scale.densities), scale=scale, seed=args.seed
    )
    print(report.render())
    for density in scale.densities:
        print(
            f"density {density}: per-eval speedup MLS vs NSGAII = "
            f"{report.speedup(density):.2f}x, eval ratio = "
            f"{report.eval_ratio(density):.2f}x"
        )
    return 0


def _cmd_protocols(args, scale) -> int:
    from repro.manet import make_scenarios
    from repro.manet.protocols import compare_protocols, standard_protocol_suite
    from repro.manet.protocols.compare import render_comparison

    scenarios = make_scenarios(
        args.density, n_networks=scale.n_networks, master_seed=args.seed
    )
    comparison = compare_protocols(standard_protocol_suite(), scenarios)
    print(render_comparison(comparison))
    print(
        f"best reachability: {comparison.ranking('reachability')[0]}; "
        f"most storm removed: {comparison.ranking('saved_rebroadcasts')[0]}"
    )
    return 0


def _campaign_spec_from_args(args, scale):
    from repro.campaigns import CampaignSpec

    if args.spec is not None:
        return CampaignSpec.from_file(args.spec)
    return CampaignSpec(
        name=args.name,
        densities=tuple(int(d) for d in args.densities.split(",")),
        mobility_models=tuple(args.mobility.split(",")),
        area_sides_m=tuple(float(a) for a in args.arenas.split(",")),
        n_seeds=args.seeds,
        algorithms=tuple(args.algorithms.split(",")),
        n_networks=(
            args.networks if args.networks is not None else scale.n_networks
        ),
        n_nodes=args.nodes,
        master_seed=args.seed,
        scale=scale.name,
    )


def _cmd_campaign(args, scale) -> int:
    from repro.campaigns import (
        CampaignExecutor,
        ResultStore,
        render_failures,
        render_report,
        render_status,
    )

    store = ResultStore(args.out)
    if args.campaign_command == "status":
        print(render_status(store.load_spec(), store))
        return 0
    if args.campaign_command == "failures":
        print(render_failures(store.load_spec(), store))
        return 0
    if args.campaign_command == "telemetry":
        from repro.telemetry import (
            TelemetrySummary,
            render_telemetry,
            to_prometheus,
        )

        summary = TelemetrySummary.from_file(store.telemetry_path)
        print(render_telemetry(summary, top=args.top))
        if args.export_prom is not None:
            text = to_prometheus(summary)
            if args.export_prom == "-":
                print(text, end="")
            else:
                from pathlib import Path

                Path(args.export_prom).write_text(text)
                print(f"prometheus snapshot written to {args.export_prom}")
        return 0
    if args.campaign_command == "report":
        print(render_report(store.load_spec(), store))
        return 0

    spec = _campaign_spec_from_args(args, scale)
    retry_policy = None
    if args.retries is not None or args.cell_timeout is not None:
        from repro.campaigns import RetryPolicy

        defaults = RetryPolicy()
        retry_policy = RetryPolicy(
            max_attempts=(
                defaults.max_attempts if args.retries is None
                else args.retries
            ),
            cell_timeout_s=args.cell_timeout,
        )
    # --backend wins; otherwise --serial, then the spec's own hint, then
    # pool (the executor's precedence; it rejects a bad name before it
    # touches the store).
    executor = CampaignExecutor(
        spec, store, max_workers=args.workers, serial=args.serial,
        backend=args.backend,
        eval_cache=(
            None if args.no_cache
            else args.cache if args.cache is not None
            else "auto"
        ),
        retry_policy=retry_policy,
    )
    report = executor.run(
        progress=lambda r: print(f"  cell {r.cell.key} done", flush=True)
    )
    print(
        f"campaign '{spec.name}': {len(report.executed)} cells executed, "
        f"{len(report.skipped)} already complete "
        f"({report.simulations_executed} simulations run, "
        f"{report.cache_hits} served from cache)"
    )
    print(render_status(spec, store))
    if report.failed:
        # A quarantined cell is a partial result, not an abort: exit 2
        # so scripts can tell "grid incomplete" from argparse errors.
        print(
            f"warning: {len(report.failed)} cell(s) quarantined after "
            f"exhausting retries — `repro-aedb campaign failures "
            f"--out {args.out}` for details"
        )
        return 2
    return 0


def _cmd_cache(args) -> int:
    from repro.tuning import PersistentEvaluationCache

    cache = PersistentEvaluationCache(args.path)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache:   {stats['path']}")
        print(f"entries: {stats['entries']}")
        print(f"on disk: {stats['disk_bytes']} bytes")
        return 0
    removed = cache.flush()
    print(f"flushed {removed} cached evaluations from {args.path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    from repro.experiments.config import get_scale

    scale = get_scale(args.scale)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "tune":
        return _cmd_tune(args, scale)
    if args.command == "compare":
        return _cmd_compare(args, scale)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args, scale)
    if args.command == "timing":
        return _cmd_timing(args, scale)
    if args.command == "protocols":
        return _cmd_protocols(args, scale)
    if args.command == "campaign":
        return _cmd_campaign(args, scale)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
