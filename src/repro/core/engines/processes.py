"""Message-passing (multi-process) AEDB-MLS engine.

The paper's hybrid parallel model: "message-passing is used for the
collaboration between the distributed populations and the external
archive, and shared-memory is used in the collaboration between solutions
in the same population" (Sect. IV).

Topology here: one OS **process per population**, each stepping its T
local-search procedures round-robin through one
:class:`~repro.core.engines.cooperative.PopulationRun`; the parent process
hosts the Adaptive Grid Archive.  Solutions cross the process boundary as
plain ``(variables, objectives, violation)`` tuples.

The front is the serial engine's, byte for byte.  A procedure reads the
archive only through the one ``sample`` a population draws per reset, and
an add's outcome feeds only the stats, so the sequence of archive
operations in serial order fixes the run: ``initialise`` is round 0, then
(round, population, slot).  Hence:

* a worker draws serial's ``("mls", p, t)`` streams from the master seed;
* it buffers its adds per round as ``(slot, solution)`` and sends one
  message per reset segment: the ``(round, adds)`` batches since its last
  message and the sample size; it sends once more, with its stats, when
  its budget is spent, and blocks only on a sample's reply;
* the parent walks a cursor over (round, population), applies each batch
  when the cursor reaches it and answers a sample at the sample's turn,
  so the sample sees exactly the archive the serial engine would show it.
  It counts the true add outcomes per (population, slot) for the stats.

It cannot deadlock: the cursor waits on population p at round r only
while p has not reported through r, and then p is running, since its last
sample (at a round before r) was answered when the cursor passed it.

A worker that reports an error, or exits without reporting, fails the run
at once: the parent terminates the other workers and raises.
"""

from __future__ import annotations

import multiprocessing as mp
from collections import deque
from multiprocessing.connection import Connection, wait as mp_wait

from repro.core.config import MLSConfig
from repro.core.engines.cooperative import PopulationRun, build_archive
from repro.core.localsearch import ArchivePort
from repro.moo.archive import AdaptiveGridArchive
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution
from repro.utils.rng import RngFactory

__all__ = ["ProcessEngine"]

#: ``through`` of a population whose budget is spent: every round is known.
_FINISHED = float("inf")


def _pack(solution: FloatSolution) -> tuple:
    return (
        solution.variables.tolist(),
        solution.objectives.tolist(),
        float(solution.constraint_violation),
    )


def _unpack(payload: tuple) -> FloatSolution:
    variables, objectives, violation = payload
    sol = FloatSolution(variables, len(objectives))
    sol.objectives[:] = objectives
    sol.constraint_violation = violation
    return sol


class _SegmentPort(ArchivePort):
    """A worker's archive port: adds are buffered by round and travel with
    the next sample request (or the final report).

    ``add`` returns False: the outcome is decided in the parent, which
    counts it into the stats.  Both operations are overridden, so the
    base class's callables are not used.
    """

    def __init__(self, conn: Connection):
        self._conn = conn
        #: The round the population is in: 0 while initialising.
        self.round = 0
        self._batches: list[tuple[int, list[tuple[int, tuple]]]] = []

    def add(self, solution: FloatSolution, slot: int) -> bool:
        if not self._batches or self._batches[-1][0] != self.round:
            self._batches.append((self.round, []))
        self._batches[-1][1].append((slot, _pack(solution)))
        return False

    def sample(self, k: int) -> list[FloatSolution]:
        self._conn.send(("sample", self.round, self.take(), int(k)))
        return [_unpack(p) for p in self._conn.recv()]

    def take(self) -> list[tuple[int, list[tuple[int, tuple]]]]:
        """The batches buffered since the last message."""
        batches, self._batches = self._batches, []
        return batches


def _population_worker(
    problem: Problem,
    config: MLSConfig,
    population_index: int,
    seed: int,
    conn: Connection,
) -> None:
    """Process entry point: run one population, then report its stats."""
    try:
        port = _SegmentPort(conn)
        run = PopulationRun(problem, config, population_index, port, RngFactory(seed))
        run.initialise()
        resets = 0
        while not run.done:
            port.round += 1
            resets += run.step()
        conn.send(("done", port.take(), (run.stats(), resets)))
    except BaseException as exc:  # surfaced in the parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


class _ArchiveServer:
    """The parent's side: the archive, applied in serial order.

    Per population it keeps the batches not yet applied, the last round
    whose adds have arrived (``through``) and a pending sample's size.
    """

    def __init__(
        self,
        archive: AdaptiveGridArchive,
        conns: list[Connection],
        processes: list[mp.process.BaseProcess],
        threads: int,
    ):
        self.archive = archive
        self.conns = conns
        self.processes = processes
        n_pop = len(conns)
        self.pending: list[deque] = [deque() for _ in range(n_pop)]
        self.through: list[float] = [-1] * n_pop
        self.sample_k: list[int | None] = [None] * n_pop
        self.reports: list[tuple | None] = [None] * n_pop
        #: True add outcomes per (population, slot).
        self.archived = [[0] * threads for _ in range(n_pop)]
        self.messages = 0
        # What to wait on: each live worker's pipe and process sentinel.
        self._owner = {c: q for q, c in enumerate(conns)}
        self._owner.update({proc.sentinel: q for q, proc in enumerate(processes)})

    def serve(self) -> None:
        """Walk the (round, population) cursor until every worker has
        reported and every batch is applied."""
        n_pop = len(self.conns)
        r = p = 0
        while True:
            while self.through[p] < r:
                self._receive()
            batches = self.pending[p]
            while batches and batches[0][0] == r:
                for slot, payload in batches.popleft()[1]:
                    self.archived[p][slot] += self.archive.add(_unpack(payload))
            if self.sample_k[p] is not None and self.through[p] == r:
                samples = self.archive.sample(self.sample_k[p])
                self.conns[p].send([_pack(s) for s in samples])
                self.sample_k[p] = None
            p += 1
            if p == n_pop:
                p, r = 0, r + 1
                if all(self.reports) and not any(self.pending):
                    return

    def _receive(self) -> None:
        # Block until some worker speaks or dies; queue what it says.
        for obj in mp_wait(list(self._owner)):
            q = self._owner.get(obj)
            if q is None:  # both handles of a finished worker were ready
                continue
            conn = self.conns[q]
            if obj is not conn and not conn.poll():
                raise RuntimeError(
                    f"population {q}: worker exited with code "
                    f"{self.processes[q].exitcode} before reporting"
                )
            try:
                kind, *payload = conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"population {q}: worker closed its pipe before reporting"
                ) from None
            self.messages += 1
            if kind == "error":
                raise RuntimeError(f"population {q}: {payload[0]}")
            if kind == "sample":
                self.through[q], batches, self.sample_k[q] = payload
            else:  # "done"
                batches, self.reports[q] = payload
                self.through[q] = _FINISHED
                del self._owner[conn], self._owner[self.processes[q].sentinel]
            self.pending[q].extend(batches)


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
        archive = build_archive(problem, config, RngFactory(seed))
        conns: list[Connection] = []
        processes: list[mp.process.BaseProcess] = []
        try:
            for p in range(config.n_populations):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_population_worker,
                    args=(problem, config, p, seed, child_conn),
                    name=f"mls-pop{p}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                processes.append(proc)
            server = _ArchiveServer(
                archive, conns, processes, config.threads_per_population
            )
            server.serve()
        except BaseException:
            for proc in processes:
                proc.terminate()
            raise
        finally:
            for proc in processes:
                proc.join(timeout=30.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.kill()
                    proc.join()

        per_population = []
        resets = 0
        for pop_report, pop_archived in zip(server.reports, server.archived):
            pop_stats, pop_resets = pop_report
            for slot_stats, n_archived in zip(pop_stats, pop_archived):
                slot_stats["archived"] = n_archived
            per_population.append(pop_stats)
            resets += pop_resets
        stats = {
            "engine": self.name,
            "evaluations": sum(s["evaluations"] for pop in per_population for s in pop),
            "population_resets": resets,
            "archive_size": len(archive),
            "archive_messages": server.messages,
            "per_population": per_population,
        }
        return [m.copy() for m in archive.members], stats
