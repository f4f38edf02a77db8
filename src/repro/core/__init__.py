"""AEDB-MLS — the paper's parallel multi-objective local search.

The algorithm (Sect. IV):

* P distributed populations × T threads; each thread owns one solution
  and improves it with an iterated local search (Fig. 3);
* each iteration perturbs the owned solution with a directional BLX-α
  operator (Eq. 2) along one of three *search criteria* derived from the
  sensitivity analysis (Sect. IV-B); the reference solution ``t`` is a
  random peer from the same population;
* any *feasible* perturbed solution is accepted and offered to the shared
  Adaptive Grid Archive;
* every ``reset_iterations`` iterations a population re-initialises all
  its solutions from the archive (diversity + inter-population
  collaboration);
* execution engines: ``serial`` (the reference, every population in one
  thread) and ``processes`` (one process per population, message passing
  to the archive — the paper's hybrid MPI+pthreads model); both step a
  population's T procedures round-robin in one thread, and both give one
  front for one seed: the process engine replays serial's order of
  archive operations, one message per population reset.
"""

from repro.core.config import MLSConfig
from repro.core.criteria import SEARCH_CRITERIA, SearchCriterion, select_criterion
from repro.core.hybrid import CellDEMLS
from repro.core.mls import AEDBMLS
from repro.core.operators import blx_alpha_step

__all__ = [
    "AEDBMLS",
    "CellDEMLS",
    "MLSConfig",
    "SearchCriterion",
    "SEARCH_CRITERIA",
    "select_criterion",
    "blx_alpha_step",
]
