"""The kernel's direct numpy loops and its one-pass power choice.

The compiled kernel runs numpy's own float64 ``log10`` and
``power(10.0, x)`` strided loops, fetched once per process as NEP 43
call-info capsules, instead of calling the ufunc objects (DESIGN.md
§14).  These tests pin what that rests on:

* ``probe_ops`` runs both loops the kernel's way, and the self-check
  compares them bitwise with the ufuncs at every tail length; a
  mismatch, or a numpy that cannot hand the loops out, lands on the
  pure path with a named reason;
* the loops skip the ufunc's floating-point checks, so a compiled
  evaluation under ``np.errstate(all="raise")`` must raise nothing,
  equal the pure result and leave no stale flag behind;
* ``k_select_tx_power`` picks the forwarding power in one pass: static
  networks with exact rx ties in the dense and the sparse regime, and
  the full-power branch, give the pure path's decision log.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

import repro.manet.compiled as compiled_mod
from repro.manet import AEDBParams, make_scenarios
from repro.manet.config import SimulationConfig
from repro.manet.mobility import StaticMobility
from repro.manet.runtime import ScenarioRuntime
from repro.manet.scenarios import NetworkScenario
from repro.manet.simulator import BroadcastSimulator
from repro.tuning import NetworkSetEvaluator
from tests.manet.test_property_compiled_core import (
    assert_identical,
    metric_bytes,
    run_pair,
)

pytestmark = pytest.mark.compiled


def _evcore():
    from repro.manet import _evcore

    return _evcore


class TestEvcoreSurface:
    def test_module_holds_exactly_two_callables(self):
        public = sorted(n for n in vars(_evcore()) if not n.startswith("_"))
        assert public == ["probe_ops", "run_window"]

    @pytest.mark.parametrize(
        "op, low, high, reference",
        [
            (3, 1.0, 3000.0, np.log10),
            (4, -20.0, 3.0, lambda x: np.power(10.0, x)),
        ],
        ids=["log10", "power"],
    )
    def test_loop_ops_match_the_ufunc_at_any_offset_and_length(
        self, op, low, high, reference
    ):
        """A loop call on any slice gives what the ufunc gives over the
        whole vector: the position independence the per-row kernel
        calls lean on."""
        assert compiled_mod.compiled_core_available()
        x = np.random.default_rng(29).uniform(low, high, 200)
        whole = reference(x)
        loop = compiled_mod._LOOPS[op - 3]
        for start in range(8):
            for m in range(1, 65):
                out = np.empty(m)
                _evcore().probe_ops(op, x[start:], x[start:], out, loop)
                assert out.tobytes() == whole[start:start + m].tobytes()


class _Ufunc:
    """A ufunc stand-in: calls go to ``call``; the strided-loop methods
    come from ``loops``, or are missing, as on a numpy without them."""

    def __init__(self, call, loops=None):
        self._call = call
        if loops is not None:
            self._resolve_dtypes_and_context = loops._resolve_dtypes_and_context
            self._get_strided_loop = loops._get_strided_loop

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)


class _NumpyWith:
    """numpy as ``compiled`` sees it, with ``log10`` swapped."""

    def __init__(self, log10):
        self.log10 = log10

    def __getattr__(self, name):
        return getattr(np, name)


class TestLoopSelfCheck:
    """The self-check rung for numpy's loops (ladder step 2)."""

    @pytest.mark.parametrize(
        "log10, reason",
        [
            (
                _Ufunc(np.log10, loops=np.log2),
                "self-check failed: numpy's log10 loop differs from np.log10",
            ),
            (
                _Ufunc(np.log10),
                "numpy's strided loops are unavailable "
                "(ufunc._resolve_dtypes_and_context / _get_strided_loop)",
            ),
        ],
        ids=["mismatch", "no-loop-access"],
    )
    def test_lands_on_the_pure_path_with_a_reason(
        self, monkeypatch, log10, reason
    ):
        loops = compiled_mod._LOOPS
        monkeypatch.setattr(compiled_mod, "np", _NumpyWith(log10))
        monkeypatch.setattr(compiled_mod, "_STATE", None)
        assert not compiled_mod.compiled_core_available()
        assert compiled_mod.compiled_core_reason() == reason
        assert compiled_mod._LOOPS is loops  # a failed check keeps none

        scenario = make_scenarios(100, n_networks=1, master_seed=3, n_nodes=8)[0]
        sim = BroadcastSimulator(
            scenario, AEDBParams(), runtime=ScenarioRuntime(scenario),
            compiled="auto",
        )
        assert not sim.compiled_active
        assert sim.compiled_reason == reason
        sim.run()
        with pytest.raises(RuntimeError, match=re.escape(reason)):
            BroadcastSimulator(scenario, AEDBParams(), compiled="on")


class TestFloatingPointState:
    def test_compiled_evaluate_under_errstate_raise(self, monkeypatch):
        """numpy's own check around a loop is skipped on the compiled
        path: it must not be needed.  32 nodes and the zero-delay corner
        force collisions, so both loops run."""
        scenarios = make_scenarios(300, n_networks=2, master_seed=29, n_nodes=32)
        params = AEDBParams(0.0, 0.0, -70.0, 0.0, 0.0)
        evcore = _evcore()
        run_window = evcore.run_window
        calls = []

        def counting_window(*args):
            calls.append(1)
            return run_window(*args)

        monkeypatch.setattr(evcore, "run_window", counting_window)
        monkeypatch.setenv("REPRO_COMPILED", "on")
        compiled = NetworkSetEvaluator(list(scenarios))
        with np.errstate(all="raise"):
            got = compiled.evaluate(params)
        assert len(calls) == len(scenarios)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.add(np.ones(4), 1.0)
            np.float64(1.0) / np.float64(3.0)

        monkeypatch.setenv("REPRO_COMPILED", "off")
        reference = NetworkSetEvaluator(list(scenarios)).evaluate(params)
        assert len(calls) == len(scenarios)
        assert metric_bytes(got) == metric_bytes(reference)


def _static_scenario(positions):
    sim = SimulationConfig()
    scenario = NetworkScenario(
        density_per_km2=100.0,
        network_index=0,
        n_nodes=len(positions),
        mobility_seed=1,
        source=0,
        sim=sim,
    )
    mobility = StaticMobility(np.asarray(positions, dtype=float), sim.area_side_m)
    return scenario, mobility


#: Node 0 is the source at (200, 250); node 1, 100 m away at (300, 250),
#: hears it below the -80 dBm border, arms and forwards.  Its two other
#: neighbours sit mirrored about the source-forwarder line, so node 1
#: hears their beacons at exactly equal rx.  Each case names node 1's
#: logged forward power.
TIES = {
    # 60 m: both neighbours are in node 1's forwarding area, with the
    # source 3 candidates > neighbors_threshold 2, so the dense regime
    # aims at the strongest: a tie at -84.00 dBm, power 5.02 dBm.
    "dense-first-max": (
        [(200.0, 250.0), (300.0, 250.0), (300.0, 310.0), (300.0, 190.0)],
        AEDBParams(0.1, 0.5, -80.0, 1.0, 2.0),
        "forward:5.02dBm",
    ),
    # 130 m: out of the source's range, so unheard when node 1 fires;
    # the sparse regime aims at the weakest: a tie at -94.08 dBm,
    # power 15.10 dBm.
    "sparse-first-min": (
        [(200.0, 250.0), (300.0, 250.0), (300.0, 380.0), (300.0, 120.0)],
        AEDBParams(0.1, 0.5, -80.0, 1.0, 10.0),
        "forward:15.10dBm",
    ),
    # Node 1's only live neighbour is the source it heard: full power.
    "no-unheard-neighbour": (
        [(200.0, 250.0), (300.0, 250.0)],
        AEDBParams(0.1, 0.5, -80.0, 1.0, 10.0),
        "forward:16.02dBm",
    ),
}


class TestPowerChoiceTies:
    """The one-pass power choice on exact rx ties.

    The chosen power depends only on the extremum's rx, so which of two
    tied neighbours wins does not show in the bytes; what these pin is
    that both paths take the tied branch and log the same decisions.
    """

    @pytest.mark.parametrize("case", list(TIES))
    def test_compiled_log_equals_pure(self, case):
        positions, params, forward = TIES[case]
        scenario, mobility = _static_scenario(positions)
        reference, candidate = run_pair(scenario, params, mobility)
        assert candidate.compiled_active, candidate.compiled_reason
        assert_identical(reference, candidate)
        decisions = candidate.protocol.decisions
        assert (1, forward) in [(node, label) for _, node, label in decisions]
        rx = reference.tables.rx_power[1]
        if len(positions) > 2:
            assert rx[2].tobytes() == rx[3].tobytes()
