"""Message-passing (multi-process) AEDB-MLS engine.

The paper's hybrid parallel model: "message-passing is used for the
collaboration between the distributed populations and the external
archive, and shared-memory is used in the collaboration between solutions
in the same population" (Sect. IV).

Topology here: one OS **process per population**, each running its T
local-search procedures round-robin via
:func:`~repro.core.engines.cooperative.run_population_cooperative`; the
parent process hosts the Adaptive Grid Archive and serves ``add`` /
``sample`` requests over per-population pipes.  Solutions cross the
process boundary as plain ``(variables, objectives, violation)`` tuples.

The archive protocol is deliberately the serial engine's
:class:`~repro.core.localsearch.ArchivePort`, so the algorithm code cannot
tell which engine it runs under.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from multiprocessing.connection import Connection, wait as mp_wait

import numpy as np

from repro.core.config import MLSConfig
from repro.core.engines.cooperative import build_archive, run_population_cooperative
from repro.core.localsearch import ArchivePort
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution
from repro.utils.rng import RngFactory

__all__ = ["ProcessEngine"]


def _pack(solution: FloatSolution) -> tuple:
    return (
        np.asarray(solution.variables, dtype=float),
        np.asarray(solution.objectives, dtype=float),
        float(solution.constraint_violation),
    )


def _unpack(payload: tuple) -> FloatSolution:
    variables, objectives, violation = payload
    sol = FloatSolution(variables, len(objectives))
    sol.objectives = np.asarray(objectives, dtype=float).copy()
    sol.constraint_violation = violation
    return sol


class _PipeArchiveClient(ArchivePort):
    """Archive port that forwards operations over a pipe.

    A lock serialises each message sequence on the connection (a
    ``sample`` request and its reply must not interleave with another
    message).  ``add`` is fire-and-forget — its boolean result only
    feeds per-procedure statistics, and a blocking round trip per
    evaluation would serialise the workers on the archive server.  The
    optimistic ``True`` makes the local ``archived`` counters upper
    bounds; the authoritative counts live in the server-side archive.
    """

    def __init__(self, conn: Connection):
        self._conn = conn
        self._lock = threading.Lock()
        super().__init__(self._add_remote, self._sample_remote)

    def _add_remote(self, solution: FloatSolution) -> bool:
        with self._lock:
            self._conn.send(("add", _pack(solution)))
        return True

    def _sample_remote(self, k: int) -> list[FloatSolution]:
        with self._lock:
            self._conn.send(("sample", int(k)))
            payloads = self._conn.recv()
        return [_unpack(p) for p in payloads]


def _population_worker(
    problem: Problem,
    config: MLSConfig,
    population_index: int,
    seed: int,
    conn: Connection,
) -> None:
    """Process entry point: run one population, then report stats.

    The population's procedures take turns in this process's one thread
    (:mod:`repro.core.engines.cooperative`).
    """
    try:
        factory = RngFactory(seed)
        port = _PipeArchiveClient(conn)
        stats = run_population_cooperative(
            problem, config, population_index, port, factory
        )
        conn.send(("done", stats))
    except BaseException as exc:  # surfaced in the parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


class ProcessEngine:
    """Populations as processes, archive served by the parent."""

    name = "processes"

    def run(
        self,
        problem: Problem,
        config: MLSConfig,
        seed: int = 0,
    ) -> tuple[list[FloatSolution], dict]:
        """Execute a full AEDB-MLS run; return (archive members, stats)."""
        ctx = mp.get_context()
        factory = RngFactory(seed)
        archive = build_archive(problem, config, factory)

        parent_conns: list[Connection] = []
        processes: list[mp.process.BaseProcess] = []
        for p in range(config.n_populations):
            parent_conn, child_conn = ctx.Pipe()
            worker_seed = int(
                factory.seed_sequence("worker", p).generate_state(1)[0]
            )
            proc = ctx.Process(
                target=_population_worker,
                args=(problem, config, p, worker_seed, child_conn),
                name=f"mls-pop{p}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            parent_conns.append(parent_conn)
            processes.append(proc)

        # Archive server loop: service requests until every population
        # reports done (or errors).
        per_population: list[list[dict]] = [[] for _ in range(config.n_populations)]
        open_conns = dict(enumerate(parent_conns))
        errors: list[str] = []
        messages = 0
        while open_conns:
            ready = mp_wait(list(open_conns.values()), timeout=60.0)
            if not ready:
                errors.append("archive server timed out waiting for workers")
                break
            for conn in ready:
                idx = next(i for i, c in open_conns.items() if c is conn)
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    del open_conns[idx]
                    continue
                messages += 1
                if kind == "add":
                    archive.add(_unpack(payload))  # fire-and-forget
                elif kind == "sample":
                    samples = archive.sample(int(payload))
                    conn.send([_pack(s) for s in samples])
                elif kind == "done":
                    per_population[idx] = payload
                    del open_conns[idx]
                elif kind == "error":
                    errors.append(f"population {idx}: {payload}")
                    del open_conns[idx]

        for proc in processes:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        if errors:
            raise RuntimeError("; ".join(errors))

        stats = {
            "engine": self.name,
            "evaluations": sum(s["evaluations"] for pop in per_population for s in pop),
            "archive_size": len(archive),
            "archive_messages": messages,
            "per_population": per_population,
        }
        return [m.copy() for m in archive.members], stats
