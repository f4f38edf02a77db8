"""Benchmark fixtures.

The experiment benchmarks share one campaign set per density (running
NSGA-II / CellDE / AEDB-MLS K times is the expensive part; Fig. 6, Fig. 7,
Table IV and the domination counts all derive from the same runs, exactly
as in the paper).  Campaigns are cached for the pytest session.

Scale: ``REPRO_SCALE={quick,medium,paper}`` (default quick).  The quick
preset keeps the full bench suite in the minutes range; recorded
numbers state their preset.
"""

from __future__ import annotations

import pytest

from repro.experiments import build_density_artifacts, run_campaign
from repro.experiments.config import get_scale

COMPARED_ALGORITHMS = ("NSGAII", "CellDE", "AEDB-MLS")


@pytest.fixture()
def emit(pytestconfig):
    """Print bypassing pytest's capture.

    The whole point of these benchmarks is the rendered tables/figures;
    they must reach the console (and ``tee``'d logs) even without ``-s``.
    """
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _emit(text: str = "") -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text, flush=True)
        else:  # pragma: no cover - capture always present under pytest
            print(text, flush=True)

    return _emit


@pytest.fixture(scope="session")
def scale():
    return get_scale()


@pytest.fixture(scope="session")
def campaign_cache():
    return {}


@pytest.fixture(scope="session")
def campaigns_for(scale, campaign_cache):
    """campaigns_for(density) -> {algorithm: Campaign} (session-cached)."""

    def build(density: int):
        if density not in campaign_cache:
            campaign_cache[density] = {
                name: run_campaign(name, density, scale=scale)
                for name in COMPARED_ALGORITHMS
            }
        return campaign_cache[density]

    return build


@pytest.fixture(scope="session")
def artifacts_for(campaigns_for, scale, campaign_cache):
    """artifacts_for(density) -> DensityArtifacts (session-cached)."""
    cache = {}

    def build(density: int):
        if density not in cache:
            cache[density] = build_density_artifacts(
                campaigns_for(density),
                density,
                archive_capacity=scale.archive_capacity,
            )
        return cache[density]

    return build
