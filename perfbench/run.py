"""Campaign benchmark: end-to-end numbers and a per-layer ledger.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload paper-rw --seed 1 --seconds 40 --trace 0

One client, closed loop: the runner launches one workload process,
waits for it to finish, checks what it wrote, and launches the next,
until ``--seconds`` have passed (at least :data:`MIN_ITERATIONS`).
Repetitions cycle through the four input sets the seed defines
(:func:`workloads.input_seeds`).  Every workload process is a fresh
interpreter with every ``REPRO_*`` flag unset (telemetry off, all
defaults).

``--trace 0`` reports the end-to-end metrics, each the median over the
run's repetitions: ``wall_s`` (one workload process, start-up
included), ``setup_s`` (a no-op resume of the finished store: start-up,
imports, spec parse, store scan), ``sims_per_s`` (broadcast simulations
counted from the records, over ``wall_s - setup_s``), ``cpu_s`` (user +
system time of the process tree) and ``peak_rss_mb`` (largest resident
set of any one process).

``--trace 1`` runs untraced/traced pairs of repetitions, both of a pair
on the same input set, and reports the per-layer metrics of
:mod:`ledger` (medians over the traced ones), the share of traced wall
time the layer spans cover, and the tracing overhead (median over the
pairs of traced / untraced wall time).  Metric names and units are the
ones ``BENCHMARK.json`` declares; a run whose metrics differ from them
fails.

Set-up, not timed: the compiled event core is built in place
(``python setup.py build_ext --inplace``) when it is missing, and the
run fails if it still cannot be used, rather than timing the pure
path.  The last stdout line is the JSON result; the lines before it
carry host facts, a fixed-work calibration loop timed next to every
repetition (to tell a slow host from a slow commit) and the layer
table.  Exit code 2: no repository source tree next to ``perfbench/``
or the kernel is unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
DECLARATION = ROOT / "BENCHMARK.json"

MIN_ITERATIONS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150.0
BUILD_TIMEOUT_S = 600.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (exit 2, no result line)."""


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int


# --------------------------------------------------------------------- #
# processes
def _child_env(work: Path) -> dict:
    """Every ``REPRO_*`` flag unset; temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    (work / "tmp").mkdir()
    env["TMPDIR"] = str(work / "tmp")
    return env


def _become_subreaper() -> None:
    """Orphans of workload processes (e.g. the shared-memory resource
    tracker) get re-parented here, so they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait until every process of the workload's group has ended."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        if time.monotonic() > deadline:
            if killed:
                return  # only unreapable zombies can be left
            os.killpg(pgid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + 1.0
        time.sleep(0.01)


def run_process(args: list[str], log: Path, env: dict,
                timeout: float = CHILD_TIMEOUT_S) -> Proc:
    """Run ``python3 ARGS`` from the checkout root, in its own process
    group; measure wall time and the tree's rusage.  ``{launch}`` in
    ARGS is replaced by the launch instant (``time.perf_counter``)."""
    with open(log, "ab") as fh:
        launch = time.perf_counter()
        argv = [sys.executable] + [a.replace("{launch}", repr(launch)) for a in args]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - launch
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return Proc(wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# --------------------------------------------------------------------- #
# set-up
def kernel_facts() -> dict:
    """Is the compiled kernel usable here, and does a random-walk
    simulation take it?  Plus the host facts that go with the answer."""
    import platform

    import numpy

    from repro.manet import make_scenarios
    from repro.manet.aedb import AEDBParams
    from repro.manet.compiled import compiled_core_available, compiled_core_reason
    from repro.manet.runtime import get_runtime
    from repro.manet.simulator import BroadcastSimulator

    blocker = None
    if compiled_core_available():
        scenario = make_scenarios(100, n_networks=1, master_seed=1)[0]
        blocker = BroadcastSimulator(
            scenario, AEDBParams(), runtime=get_runtime(scenario)
        ).compiled_reason
    return {
        "kernel_available": compiled_core_available(),
        "kernel_reason": compiled_core_reason(),
        "random_walk_blocker": blocker,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_cores": os.cpu_count(),
    }


def ensure_kernel(env: dict, work: Path) -> dict:
    """Build the compiled event core if needed; return host facts."""
    facts = kernel_facts()
    facts["kernel_built_now"] = False
    if not facts["kernel_available"]:
        build_env = dict(env, REPRO_REQUIRE_COMPILED="1")
        log = work / "build.log"
        with open(log, "wb") as fh:
            code = subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=ROOT, env=build_env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=BUILD_TIMEOUT_S,
            ).returncode
        if code != 0:
            raise BenchmarkError(
                f"building the compiled event core failed:\n{log.read_text()}"
            )
        # This process cached the failed import: ask a fresh interpreter.
        probe = subprocess.run(
            [sys.executable, "-c",
             f"import json, sys; sys.path.insert(0, {str(HERE)!r}); "
             "import run; print(json.dumps(run.kernel_facts()))"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if probe.returncode != 0:
            raise BenchmarkError(f"kernel probe failed:\n{probe.stderr}")
        facts = json.loads(probe.stdout.strip().splitlines()[-1])
        facts["kernel_built_now"] = True
    if not facts["kernel_available"]:
        raise BenchmarkError(
            f"compiled event core unusable: {facts['kernel_reason']}"
        )
    if facts["random_walk_blocker"] is not None:
        raise BenchmarkError(
            "a random-walk simulation misses the compiled path: "
            f"{facts['random_walk_blocker']}"
        )
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(HERE)],
        cwd=ROOT, env=env, check=True, capture_output=True,
    )
    return facts


def calibrate() -> float:
    """Fixed pure-Python work, timed (seconds): host speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def _dir_bytes(path: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in path.glob(pattern))


# --------------------------------------------------------------------- #
class Session:
    """One benchmark run: repetitions, checks, and their bookkeeping."""

    def __init__(self, workload: str, seed: int, work: Path, env: dict,
                 smoke: bool = False):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.smoke = smoke
        self.min_repetitions = 1 if smoke else MIN_ITERATIONS
        # Repetitions cycle through the run's input sets, so one run's
        # median spans several network draws, not one.
        self.plans = []
        for j, sub_seed in enumerate(workloads.input_seeds(seed)):
            (work / f"in{j}").mkdir()
            self.plans.append(
                workloads.prepare(workload, sub_seed, work / f"in{j}", smoke)
            )
        pinned = workloads.pinned_digests(workload)
        self.references: list[str | None] = (
            list(pinned) if seed == workloads.DEFAULT_SEED and pinned
            and not smoke else [None] * len(self.plans)
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibration: list[float] = []
        self._runs = 0

    def _args(self, plan: dict, out: Path, traced: bool,
              setup_only: bool = False):
        entry, args = self.w.command(self.workload, plan, out, setup_only)
        if traced:
            return [str(HERE / "traced.py"), str(out / "trace"), "{launch}",
                    entry, *args]
        if entry == "cli":
            return ["-m", "repro", *args]
        return [str(HERE / "mls_job.py"), *args]

    def repetition(self, i: int, traced: bool = False, probe: bool = False):
        """One workload process on input set ``i mod len(plans)`` (then,
        with ``probe``, one set-up probe on its output); returns
        ``(proc, outcome, out_dir, setup_s)``."""
        j = i % len(self.plans)
        plan = self.plans[j]
        self.calibration.append(calibrate())
        out = self.work / f"rep{self._runs}"
        self._runs += 1
        out.mkdir()
        proc = run_process(self._args(plan, out, traced),
                           self.work / "workload.log", self.env)
        outcome = self.w.check(self.workload, out, proc.code)
        if self.w.WORKLOADS[self.workload].deterministic and outcome.digest:
            if self.references[j] is None:
                self.references[j] = outcome.digest
            elif outcome.digest != self.references[j]:
                outcome.problems.append(f"record digest mismatch (input {j})")
                outcome.failed = outcome.attempted
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        setup = None
        if probe:
            check = run_process(self._args(plan, out, False, setup_only=True),
                                self.work / "probe.log", self.env)
            if check.code != 0:
                self.problems.append(f"set-up probe exited {check.code}")
                self.failed += 1
            setup = check.wall
        return proc, outcome, out, setup


def _keep_going(deadline: float, durations: list[float], minimum: int) -> bool:
    """Closed-loop stop rule: at least ``minimum`` repetitions, and no
    new one that would end more than half a repetition past the
    deadline."""
    if len(durations) < minimum:
        return True
    return deadline - time.perf_counter() > 0.5 * statistics.median(durations)


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics over repetitions (closed loop)."""
    deadline = time.perf_counter() + seconds
    procs, sims, setups, durations = [], [], [], []
    while _keep_going(deadline, durations, session.min_repetitions):
        t0 = time.perf_counter()
        # A set-up probe after every other repetition: enough for a
        # median, and the time goes to repetitions instead.
        probe = len(procs) % 2 == 0
        proc, outcome, out, setup = session.repetition(len(procs), probe=probe)
        procs.append(proc)
        sims.append(outcome.sims)
        if probe:
            setups.append(setup)
        shutil.rmtree(out)
        durations.append(time.perf_counter() - t0)
    setup = statistics.median(setups)
    metrics = {
        "wall_s": statistics.median(p.wall for p in procs),
        "setup_s": setup,
        "sims_per_s": statistics.median(
            n / max(p.wall - setup, 1e-9) for n, p in zip(sims, procs)
        ),
        "cpu_s": statistics.median(p.cpu for p in procs),
        "peak_rss_mb": statistics.median(p.rss_mb for p in procs),
    }
    detail = {
        "repetitions": len(procs),
        "calibration_ms_each": [round(c * 1e3, 2) for c in session.calibration],
        "setup_probes": len(setups),
        "wall_s_each": [round(p.wall, 4) for p in procs],
        "setup_s_each": [round(s, 4) for s in setups],
        "sims_per_repetition": sims,
    }
    return metrics, detail


def measure_traced(session: Session, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: untraced/traced pairs of repetitions, each pair
    on one input set."""
    from ledger import layer_metrics, median_metrics
    from tracer import load_trace_dir

    deadline = time.perf_counter() + seconds
    plain, traced, samples, facts, durations = [], [], [], None, []
    minimum = min(MIN_TRACED, session.min_repetitions)
    while _keep_going(deadline, durations, minimum):
        t0 = time.perf_counter()
        pair = len(samples)
        proc, _, out, _ = session.repetition(pair)
        plain.append(proc.wall)
        shutil.rmtree(out)
        proc, _, out, _ = session.repetition(pair, traced=True)
        traced.append(proc.wall)
        traces = load_trace_dir(out / "trace")
        main = traces[0] if traces and traces[0]["label"] == "main" else None
        if main is None:
            log = (session.work / "workload.log").read_text()[-3000:]
            raise BenchmarkError(f"traced run left no main trace:\n{log}")
        if main["not_restored"]:
            raise BenchmarkError(
                f"traced run did not restore {main['not_restored']}"
            )
        metrics, facts = layer_metrics(
            traces, proc.wall,
            store_bytes=_dir_bytes(out, "cells/*.jsonl"),
            cache_bytes=_dir_bytes(out, "evaluations.jsonl"),
        )
        samples.append(metrics)
        shutil.rmtree(out)
        durations.append(time.perf_counter() - t0)
    metrics = median_metrics(samples)
    metrics["trace.overhead"] = statistics.median(
        t / p for t, p in zip(traced, plain)
    )
    if (session.workload == "paper-rw" and not session.smoke
            and metrics["sim.compiled_frac"] < 1.0):
        raise BenchmarkError(
            f"paper-rw ran {metrics['sim.compiled_frac']:.3f} of its "
            "simulations on the compiled kernel; expected all of them"
        )
    detail = {
        "repetitions": len(samples),
        "untraced_wall_s_each": [round(w, 4) for w in plain],
        "traced_wall_s_each": [round(w, 4) for w in traced],
        "layers_last_traced": facts,
    }
    return metrics, detail


# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and a single repetition, for the benchmark's own "
             "tests; the numbers are not comparable with full runs",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file() or not (ROOT / "setup.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]  # defaults everywhere, this process included
    import workloads

    declared = json.loads(DECLARATION.read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    _become_subreaper()
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env(work)
    try:
        host = ensure_kernel(env, work)
        session = Session(args.workload, args.seed, work, env, args.smoke)
        measure_run = measure_traced if args.trace else measure
        values, detail = measure_run(session, args.seconds)
        if set(values) != set(units):
            raise BenchmarkError(
                "measured metrics differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(units))}"
            )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    calib = session.calibration
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host,
        "calibration_ms": {
            "median": round(statistics.median(calib) * 1e3, 3),
            "min": round(min(calib) * 1e3, 3),
            "max": round(max(calib) * 1e3, 3),
            "n": len(calib),
        },
        "input_seeds": session.w.input_seeds(args.seed),
        "record_digests": session.references,
        "problems": session.problems[:20],
        **detail,
    }
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
