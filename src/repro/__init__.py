"""repro — reproduction of *A Parallel Multi-objective Local Search for
AEDB Protocol Tuning* (Iturriaga et al., IPPS 2013).

Public API layers (see DESIGN.md for the full inventory):

* :mod:`repro.manet` — the MANET broadcast simulator, the AEDB protocol,
  and the broadcast-storm baseline protocols
  (:mod:`repro.manet.protocols`);
* :mod:`repro.moo` — the multi-objective optimisation framework (NSGA-II,
  CellDE, MOCell, SPEA2, PAES, archives incl. AGA and ε-dominance,
  quality indicators, anytime tracking, validation problems);
* :mod:`repro.tuning` — the AEDB tuning problem (5 variables, 3 objectives,
  broadcast-time constraint) evaluated on fixed network sets, serially
  or on a process pool;
* :mod:`repro.core` — AEDB-MLS, the paper's parallel multi-objective local
  search, with a serial reference engine and a process engine, and the
  CellDE-MLS hybrid (§VII future work);
* :mod:`repro.sensitivity` — FAST99 global sensitivity analysis (Fig. 2 /
  Table I) plus Sobol'/Saltelli and Morris cross-checks;
* :mod:`repro.stats` — Wilcoxon rank-sum comparisons (Table IV), boxplot
  summaries (Fig. 7), Friedman/Holm, effect sizes, bootstrap intervals;
* :mod:`repro.experiments` — campaign runner and the per-figure/table
  harnesses used by ``benchmarks/``.

Quickstart::

    from repro import AEDBParams, make_scenarios, simulate_broadcast

    scenario = make_scenarios(density_per_km2=300, n_networks=1)[0]
    metrics = simulate_broadcast(scenario, AEDBParams())
    print(metrics)
"""

from repro._version import __version__
from repro.manet import (
    AEDBParams,
    BroadcastMetrics,
    BroadcastSimulator,
    make_scenarios,
    simulate_broadcast,
)

__all__ = [
    "__version__",
    "AEDBParams",
    "BroadcastMetrics",
    "BroadcastSimulator",
    "make_scenarios",
    "simulate_broadcast",
]
