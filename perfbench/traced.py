"""Run one workload process under the span tracer.

Usage (the runner builds this command line)::

    PYTHONPATH=src python3 perfbench/traced.py TRACE_DIR LAUNCH {cli|mls} ARGS...

``LAUNCH`` is the launching process's ``time.perf_counter()`` just
before it started this interpreter, so the ``proc.start`` span covers
interpreter start-up and the ``repro`` imports.  ``cli`` runs
``repro.cli.main(ARGS)``, ``mls`` runs :func:`mls_job.main`.  Spans of
this process land in ``TRACE_DIR/spans-main.json``; forked workers
write their own files next to it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mls_job  # noqa: E402
import repro.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_dir, launch, entry, *argv = sys.argv[1:]
    launch_t = float(launch)
    Tracer.import_targets()
    imported_t = time.perf_counter()
    tracer = Tracer(trace_dir)
    missing = tracer.install()
    patches = tracer.patched()
    try:
        with tracer.root("process", launch_t) as root:
            tracer.add_span("proc.start", launch_t, imported_t, parent=root)
            if entry == "cli":
                rc = repro.cli.main(argv)
            elif entry == "mls":
                rc = mls_job.main(argv)
            else:
                raise SystemExit(f"unknown entry {entry!r}")
    finally:
        tracer.restore()
    left = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patches
        if (owner.__dict__.get(attr) if isinstance(owner, type)
            else getattr(owner, attr)) is not original
    ]
    tracer.dump({
        "missing": missing,
        "n_patches": len(patches),
        "not_restored": left,
        "exit_code": rc,
    })
    return rc


if __name__ == "__main__":
    sys.exit(main())
