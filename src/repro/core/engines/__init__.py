"""Execution engines for AEDB-MLS.

The same local-search procedure (:mod:`repro.core.localsearch`) runs under
two engines, and both step each population through one
:class:`~repro.core.engines.cooperative.PopulationRun`:

* :mod:`~repro.core.engines.serial` — every population in one thread,
  round-robin; deterministic, the reference semantics used by the tests;
* :mod:`~repro.core.engines.processes` — one OS process per population,
  with the archive hosted by the parent and reached by message passing —
  the paper's hybrid parallel model and the fast path.
"""

from repro.core.engines.processes import ProcessEngine
from repro.core.engines.serial import SerialEngine

ENGINES = {engine.name: engine for engine in (SerialEngine, ProcessEngine)}

__all__ = ["SerialEngine", "ProcessEngine", "ENGINES"]
