"""Utility layer: RNG fan-out, unit conversions, validation, flags."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import flags
from repro.utils.rng import RngFactory, as_generator, spawn_generators
from repro.utils.units import DBM_MINUS_INF, dbm_sum, dbm_to_mw, mw_to_dbm
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_probability,
)


class TestRngFactory:
    def test_same_key_same_stream(self):
        f = RngFactory(7)
        a = f.generator("x", 1).random(5)
        b = f.generator("x", 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        f = RngFactory(7)
        a = f.generator("x", 1).random(5)
        b = f.generator("x", 2).random(5)
        assert not np.array_equal(a, b)

    def test_order_independent(self):
        f1, f2 = RngFactory(7), RngFactory(7)
        a1 = f1.generator("a").random()
        b1 = f1.generator("b").random()
        b2 = f2.generator("b").random()
        a2 = f2.generator("a").random()
        assert a1 == a2 and b1 == b2

    def test_master_seed_matters(self):
        a = RngFactory(1).generator("k").random(3)
        b = RngFactory(2).generator("k").random(3)
        assert not np.array_equal(a, b)

    def test_child_namespacing(self):
        f = RngFactory(7)
        child = f.child("ns")
        a = child.generator("k").random(3)
        b = f.child("ns").generator("k").random(3)
        np.testing.assert_array_equal(a, b)

    def test_generators_batch(self):
        gens = RngFactory(0).generators(4, "pool")
        values = {g.random() for g in gens}
        assert len(values) == 4


class TestRngHelpers:
    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_from_int(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_spawn_generators_independent(self):
        gens = spawn_generators(3, 5)
        assert len(gens) == 5
        streams = [g.random(4).tobytes() for g in gens]
        assert len(set(streams)) == 5

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestUnits:
    def test_known_points(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(10.0) == pytest.approx(10.0)
        assert mw_to_dbm(1.0) == pytest.approx(0.0)
        assert mw_to_dbm(100.0) == pytest.approx(20.0)

    @given(st.floats(-100.0, 40.0))
    def test_roundtrip(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)

    def test_nonpositive_maps_to_sentinel(self):
        assert mw_to_dbm(0.0) == DBM_MINUS_INF
        assert mw_to_dbm(-1.0) == DBM_MINUS_INF

    def test_dbm_sum_doubling(self):
        # Two equal powers sum to +3.01 dB.
        assert dbm_sum([10.0, 10.0]) == pytest.approx(13.0103, abs=1e-3)

    def test_dbm_sum_empty(self):
        assert dbm_sum([]) == DBM_MINUS_INF

    def test_vectorised(self):
        arr = np.array([0.0, 10.0])
        np.testing.assert_allclose(dbm_to_mw(arr), [1.0, 10.0])


class TestValidation:
    def test_check_finite(self):
        assert check_finite(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_finite(math.inf, "x")
        with pytest.raises(ValueError):
            check_finite(math.nan, "x")

    def test_check_positive(self):
        assert check_positive(2.0, "x") == 2.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        assert check_positive(0.0, "x", strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive(-1.0, "x", strict=False)

    def test_check_in_range(self):
        assert check_in_range(0.5, "x", 0.0, 1.0) == 0.5
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_check_probability(self):
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.1, "p")


class TestEnsureLineBoundary:
    def test_torn_tail_is_terminated_once(self, tmp_path):
        from repro.utils import ensure_line_boundary

        path = tmp_path / "log.jsonl"
        assert not ensure_line_boundary(path)  # missing: nothing to do
        path.write_text("")
        assert not ensure_line_boundary(path)  # empty: nothing to do
        path.write_text('{"a":1}\n{"torn')
        assert ensure_line_boundary(path)
        assert path.read_text() == '{"a":1}\n{"torn\n'
        assert not ensure_line_boundary(path)  # idempotent

    def test_appends_after_repair_stay_parseable(self, tmp_path):
        """The scenario the guard exists for: a crash mid-append must not
        eat the NEXT writer's first record."""
        import json

        from repro.utils import ensure_line_boundary

        path = tmp_path / "log.jsonl"
        path.write_text('{"a":1}\n{"torn')
        ensure_line_boundary(path)
        with path.open("a") as fh:
            fh.write('{"b":2}\n')
        parsed = []
        for line in path.read_text().splitlines():
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        assert parsed == [{"a": 1}, {"b": 2}]


class TestFlagRegistry:
    def test_registry_holds_six_flags_in_table_order(self):
        assert [f.name for f in flags.all_flags()] == [
            "REPRO_SCALE", "REPRO_COMPILED", "REPRO_TELEMETRY",
            "REPRO_FAULTS", "REPRO_REQUIRE_COMPILED", "REPRO_SANITIZE",
        ]

    @pytest.mark.parametrize(
        "name", ["REPRO_HEARTBEAT_DIR", "REPRO_HEARTBEAT_INTERVAL"]
    )
    def test_retired_heartbeat_flags_are_unknown(self, name, monkeypatch):
        """A stale export in a user's shell is not read back: the
        registry refuses the name whatever the environment holds."""
        monkeypatch.setenv(name, "1")
        assert not flags.is_registered(name)
        with pytest.raises(flags.UnknownFlagError, match=name):
            flags.read_raw(name)
