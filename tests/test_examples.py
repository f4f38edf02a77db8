"""Smoke tests for the runnable scripts under ``examples/``."""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parallel_engines_runs_every_engine(capsys):
    from repro.core.config import ENGINE_NAMES

    _load("parallel_engines").main()
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert [name for name in rows if name in ENGINE_NAMES] == list(ENGINE_NAMES)
