"""Recorder semantics: modes, sinks, registry, and file-merge append."""

import json

import pytest

from repro.telemetry import (
    MODE_DEEP,
    MODE_OFF,
    MODE_ON,
    NULL,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    Recorder,
    TelemetrySummary,
    deep_telemetry_enabled,
    get_recorder,
    telemetry_enabled,
    telemetry_mode,
    using,
)


class TestModes:
    @pytest.mark.parametrize(
        "raw", ["", "0", "off", "OFF", "none", "false", "no", "  off  "]
    )
    def test_off_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TELEMETRY", raw)
        assert telemetry_mode() == MODE_OFF
        assert not telemetry_enabled()
        assert not deep_telemetry_enabled()

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_mode() == MODE_OFF

    @pytest.mark.parametrize("raw", ["1", "on", "jsonl", "anything"])
    def test_on_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TELEMETRY", raw)
        assert telemetry_mode() == MODE_ON
        assert telemetry_enabled()
        assert not deep_telemetry_enabled()

    def test_deep(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "Deep")
        assert telemetry_mode() == MODE_DEEP
        assert telemetry_enabled()
        assert deep_telemetry_enabled()


class TestNullRecorder:
    def test_span_is_one_shared_reentrant_instance(self):
        a = NULL.span("x", attr=1)
        b = NULL.span("y")
        assert a is b  # no allocation on the off path
        with a:
            with b:
                pass  # re-entrant: nesting the shared span is fine

    def test_all_operations_are_noops(self):
        NULL.count("c", 5, k="v")
        NULL.gauge("g", 1.0)
        NULL.event("e")
        NULL.record_span("s", 0.1)
        NULL.flush()
        NULL.close()

    def test_satisfies_protocol(self):
        assert isinstance(NULL, Recorder)
        assert isinstance(MemoryRecorder(), Recorder)


class TestMemoryRecorder:
    def test_span_nesting_records_inner_before_outer(self):
        rec = MemoryRecorder()
        with rec.span("outer", level=0):
            with rec.span("inner", level=1):
                pass
        names = [name for name, _, _ in rec.spans]
        assert names == ["inner", "outer"]  # completion order
        (_, inner_s, inner_attrs) = rec.spans[0]
        (_, outer_s, _) = rec.spans[1]
        assert inner_attrs == {"level": 1}
        assert 0.0 <= inner_s <= outer_s

    def test_span_records_even_when_body_raises(self):
        rec = MemoryRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("failing", cell="c1"):
                raise RuntimeError("boom")
        assert [name for name, _, _ in rec.spans] == ["failing"]

    def test_counters_accumulate_per_attrs_and_total(self):
        rec = MemoryRecorder()
        rec.count("hits")
        rec.count("hits", 2)
        rec.count("hits", 3, shard=1)
        assert rec.counter_total("hits") == 6
        assert rec.counter_total("misses") == 0

    def test_counter_big_int_no_overflow(self):
        rec = MemoryRecorder()
        rec.count("huge", 2**70)
        rec.count("huge", 1)
        assert rec.counter_total("huge") == 2**70 + 1  # python ints: exact

    def test_gauge_last_write_wins(self):
        rec = MemoryRecorder()
        rec.gauge("temp", 1.0)
        rec.gauge("temp", 2.5)
        assert rec.gauges[("temp", ())] == 2.5

    def test_bounded_records_count_drops(self):
        rec = MemoryRecorder(max_records=2)
        for i in range(4):
            rec.record_span("s", 0.0, i=i)
            rec.event("e", i=i)
        assert len(rec.spans) == 2
        assert len(rec.events) == 2
        assert rec.dropped == 4

    def test_clear_resets_everything(self):
        rec = MemoryRecorder(max_records=1)
        rec.count("c")
        rec.gauge("g", 1.0)
        rec.record_span("s", 0.0)
        rec.event("e")
        rec.event("e2")  # dropped
        rec.clear()
        assert not rec.counters and not rec.gauges
        assert not rec.spans and not rec.events
        assert rec.dropped == 0

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError, match="max_records"):
            MemoryRecorder(max_records=0)


class TestRegistry:
    def test_off_resolves_to_null(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert get_recorder() is NULL

    def test_on_resolves_to_ambient_memory_recorder(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        rec = get_recorder()
        assert isinstance(rec, MemoryRecorder)
        assert get_recorder() is rec  # one process-global instance

    def test_using_overrides_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        rec = MemoryRecorder()
        with using(rec) as installed:
            assert installed is rec
            assert get_recorder() is rec  # even with telemetry off
            inner = MemoryRecorder()
            with using(inner):
                assert get_recorder() is inner
            assert get_recorder() is rec  # dynamic scoping restores
        assert get_recorder() is NULL

    def test_using_restores_on_exception(self):
        rec = MemoryRecorder()
        with pytest.raises(RuntimeError):
            with using(rec):
                raise RuntimeError("boom")
        assert get_recorder() is not rec


class TestJsonlRecorder:
    def _lines(self, path):
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]

    def test_events_and_spans_stream_immediately(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlRecorder(path)
        rec.event("cell.queued", cell="c1")
        with rec.span("work", cell="c1"):
            pass
        rec.gauge("load", 0.5)
        # No flush/close yet: events/spans/gauges are already on disk.
        kinds = [obj["kind"] for obj in self._lines(path)]
        assert kinds == ["event", "span", "gauge"]
        rec.close()

    def test_counters_buffer_until_flush_as_deltas(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlRecorder(path)
        rec.count("hits", 2)
        rec.count("hits", 3)
        assert not path.exists()  # buffered, no write yet
        rec.flush()
        rec.count("hits", 5)
        rec.count("zero", 0)  # zero delta: skipped entirely
        rec.close()  # close flushes the second delta
        lines = self._lines(path)
        assert [obj["n"] for obj in lines] == [5, 5]  # two deltas
        assert all(obj["name"] == "hits" for obj in lines)
        # Replaying the stream sums the deltas back to the true total.
        assert TelemetrySummary.from_file(path).counter("hits") == 10

    def test_counter_big_int_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            rec.count("huge", 2**70)
        assert TelemetrySummary.from_file(path).counter("huge") == 2**70

    def test_close_is_idempotent_and_final(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlRecorder(path)
        rec.event("e")
        rec.close()
        rec.close()  # second close: no error
        rec.event("late")  # writes after close are dropped
        rec.flush()
        assert [obj["name"] for obj in self._lines(path)] == ["e"]

    def test_untouched_recorder_creates_no_file(self, tmp_path):
        path = tmp_path / "sub" / "t.jsonl"
        with JsonlRecorder(path):
            pass
        assert not path.exists()  # lazy handle: no telemetry, no file


class TestNullRecorderIsDefaultEverywhere:
    def test_instrumented_call_with_telemetry_off_records_nothing(
        self, monkeypatch
    ):
        """An instrumentation point running under the defaults is silent."""
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        rec = get_recorder()
        assert isinstance(rec, NullRecorder)
        with rec.span("sim.run", n_nodes=8):
            rec.count("sim.events_fired", 1000)
