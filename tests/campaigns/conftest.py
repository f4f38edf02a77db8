"""Shared campaign-test fixtures — the reusable bit-identity probes.

Before PR 4 every campaign test hand-rolled its own ``store_digests``
helper and tiny spec; these fixtures are the one canonical copy, and
``test_backend_identity.py`` builds the golden cross-backend harness on
top of them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.campaigns import CampaignExecutor, CampaignSpec, ResultStore


def _store_digests(root) -> dict:
    """``{cell file name: sha1 of its bytes}`` — THE bit-identity probe.

    Hashes only ``cells/*.jsonl``: cell records are the deterministic
    artefact; the ``evaluations.jsonl`` sidecar's *entry order* follows
    completion order (already scheduler-dependent under the pool
    backend), so sidecars are compared as key sets, not bytes.
    """
    return {
        p.name: hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(Path(root, "cells").glob("*.jsonl"))
    }


@pytest.fixture()
def store_digests():
    """The digest helper as a fixture: ``store_digests(root) -> dict``."""
    return _store_digests


@pytest.fixture()
def golden_spec():
    """The golden identity campaign: 6 evaluate cells, 8-node networks.

    Evaluate-only on purpose — tune records carry the ``runtime_s``
    wall-clock diagnostic, the one intentionally non-reproducible field,
    so byte-identity is only a contract for evaluate cells.  Six cells
    keep both workers of a 2-worker pool busy with several tasks each.
    """
    return CampaignSpec(
        name="golden",
        densities=(100,),
        mobility_models=("random-walk", "random-waypoint"),
        n_seeds=3,
        n_networks=1,
        n_nodes=8,
    )


@pytest.fixture()
def run_backend(tmp_path):
    """``run_backend(backend, subdir, spec, **kw) -> (report, store)``.

    One campaign run through the named backend into a fresh store under
    this test's tmp dir; 2 workers so the pool backend actually
    exercises concurrency.
    """

    def run(backend, subdir: str, spec: CampaignSpec, **kwargs):
        kwargs.setdefault("max_workers", 2)
        store = ResultStore(tmp_path / subdir)
        report = CampaignExecutor(
            spec, store, backend=backend, **kwargs
        ).run()
        return report, store

    return run
