"""Start-up guard: the run paths work without scipy and import no extras.

scipy serves only the quality indicators, the statistics and the
sensitivity study, and each of those imports it inside the function
that calls it (DESIGN.md §2, "Start-up").  The run-path cases run in a
child interpreter that blocks scipy before anything else is imported,
so a module-level ``from scipy...`` import anywhere on a run path fails
the child with ``ImportError``.  The import case lists what a plain
``import repro.cli`` loads, with scipy available.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_REPRO_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: Module families that no ``repro.cli`` import may load.
_HEAVY_PREFIXES = ("scipy", "networkx", "numpy.f2py", "charset_normalizer")


def _run_child(
    script: str, *args: str, block_scipy: bool = True
) -> subprocess.CompletedProcess:
    prelude = "import sys\n"
    if block_scipy:
        prelude += 'sys.modules["scipy"] = None\n'
    proc = subprocess.run(
        [sys.executable, "-c", prelude + script, *args],
        env=dict(os.environ, PYTHONPATH=_REPRO_ROOT),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


_CAMPAIGN = """
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_campaign_and_resume_run_without_scipy(tmp_path):
    argv = [
        "campaign", "run", "--out", str(tmp_path / "store"),
        "--densities", "100", "--algorithms", "AEDB-MLS,NSGAII,CellDE",
        "--seeds", "1", "--networks", "1", "--nodes", "8",
        "--backend", "inline",
    ]
    first = _run_child(_CAMPAIGN, *argv)
    assert "3 cells executed, 0 already complete" in first.stdout
    resume = _run_child(_CAMPAIGN, *argv)
    assert "0 cells executed, 3 already complete" in resume.stdout


_MLS = """
from repro.core import AEDBMLS, MLSConfig
from repro.tuning import make_tuning_problem

problem = make_tuning_problem(100, n_networks=1, master_seed=3, n_nodes=8)
config = MLSConfig(
    n_populations=2, threads_per_population=2, evaluations_per_thread=4,
    reset_iterations=2, archive_capacity=10, engine="serial",
)
result = AEDBMLS(problem, config, seed=3).run()
print(result.evaluations, len(result.front))
"""


def test_public_api_mls_runs_without_scipy():
    evaluations, front = map(int, _run_child(_MLS).stdout.split())
    assert evaluations > 0
    assert front > 0


_IMPORT_CLI = """
import json
import repro.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_loads_no_heavy_module():
    loaded = json.loads(_run_child(_IMPORT_CLI, block_scipy=False).stdout)
    heavy = [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in _HEAVY_PREFIXES)
    ]
    assert heavy == []
