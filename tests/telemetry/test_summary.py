"""Replay side: summary aggregation, torn-tail tolerance, rendering."""

import json

from repro.telemetry import JsonlRecorder, TelemetrySummary, render_telemetry


def _line(**kw):
    obj = {"v": 1, "attrs": {}}
    obj.update(kw)
    return json.dumps(obj)


class TestFromLines:
    def test_counters_sum_across_attribute_combinations(self):
        summary = TelemetrySummary.from_lines([
            _line(kind="count", name="hits", n=2, attrs={"shard": 0}),
            _line(kind="count", name="hits", n=3, attrs={"shard": 1}),
            _line(kind="count", name="hits", n=5),
        ])
        assert summary.counter("hits") == 10
        assert summary.counter("absent") == 0
        assert summary.counter("absent", default=-1) == -1

    def test_span_stats_and_cell_seconds(self):
        summary = TelemetrySummary.from_lines([
            _line(kind="span", name="campaign.cell", dur_s=2.0,
                  attrs={"cell": "a"}),
            _line(kind="span", name="campaign.cell", dur_s=1.0,
                  attrs={"cell": "b"}),
            _line(kind="span", name="campaign.cell", dur_s=0.5,
                  attrs={"cell": "a"}),  # resumed cell: accumulates
            _line(kind="span", name="eval.evaluate", dur_s=4.0),
        ])
        stat = summary.spans["campaign.cell"]
        assert stat.count == 3
        assert stat.total_s == 3.5
        assert stat.max_s == 2.0
        assert stat.mean_s == 3.5 / 3
        assert summary.cell_seconds == {"a": 2.5, "b": 1.0}
        assert summary.top_cells(1) == [("a", 2.5)]
        assert summary.top_cells() == [("a", 2.5), ("b", 1.0)]

    def test_events_and_gauges(self):
        summary = TelemetrySummary.from_lines([
            _line(kind="event", name="cell.started", t=1.0,
                  attrs={"cell": "a"}),
            _line(kind="event", name="cell.started", t=2.0,
                  attrs={"cell": "b"}),
            _line(kind="event", name="cell.finished", t=3.0),
            _line(kind="gauge", name="load", value=0.5),
            _line(kind="gauge", name="load", value=0.75),  # last wins
        ])
        assert summary.event_counts() == {
            "cell.started": 2, "cell.finished": 1,
        }
        assert summary.events[0] == (1.0, "cell.started", {"cell": "a"})
        assert summary.gauges == {"load": 0.75}

    def test_torn_tail_and_garbage_skipped_never_an_error(self):
        summary = TelemetrySummary.from_lines([
            _line(kind="count", name="hits", n=1),
            '{"v":1,"kind":"count","name":"hi',  # torn mid-append
            "not json at all",
            "",
            "   ",
            _line(kind="count", name="hits", n=1),
        ])
        assert summary.counter("hits") == 2
        assert summary.n_lines == 4  # blanks are not lines
        assert summary.n_skipped == 2

    def test_foreign_version_and_unknown_kind_skipped(self):
        summary = TelemetrySummary.from_lines([
            json.dumps({"v": 2, "kind": "count", "name": "hits", "n": 9}),
            json.dumps([1, 2, 3]),  # not even an object
            _line(kind="histogram", name="h"),  # future kind
            _line(kind="count", name="hits"),  # missing "n"
            _line(kind="count", name="hits", n=1),
        ])
        assert summary.counter("hits") == 1
        assert summary.n_skipped == 4

    def test_from_missing_file_is_empty(self, tmp_path):
        summary = TelemetrySummary.from_file(tmp_path / "nope.jsonl")
        assert summary.is_empty
        assert summary.n_lines == 0

    def test_round_trip_through_jsonl_recorder(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            rec.event("cell.queued", cell="c")
            with rec.span("campaign.cell", cell="c"):
                rec.count("eval_cache.miss", 3)
        summary = TelemetrySummary.from_file(path)
        assert summary.counter("eval_cache.miss") == 3
        assert summary.spans["campaign.cell"].count == 1
        assert list(summary.cell_seconds) == ["c"]
        assert summary.n_skipped == 0


class TestRender:
    def test_empty_summary_explains_the_env_switch(self):
        text = render_telemetry(TelemetrySummary())
        assert "no telemetry recorded" in text
        assert "REPRO_TELEMETRY" in text

    def test_sections_render(self):
        summary = TelemetrySummary.from_lines([
            _line(kind="span", name="campaign.cell", dur_s=1.25,
                  attrs={"cell": "d100-rw-s0"}),
            _line(kind="count", name="campaign.cache_hits", n=7),
            _line(kind="gauge", name="load", value=0.5),
            _line(kind="event", name="cell.finished"),
            "garbage",
        ])
        text = render_telemetry(summary, top=5)
        assert "campaign.cell" in text
        assert "campaign.cache_hits" in text and "7" in text
        assert "cell.finished" in text
        assert "slowest cells" in text and "d100-rw-s0" in text
        assert "1 of 5 lines skipped" in text

    def test_top_limits_the_cell_list(self):
        summary = TelemetrySummary.from_lines([
            _line(kind="span", name="campaign.cell", dur_s=float(i),
                  attrs={"cell": f"c{i}"})
            for i in range(12)
        ])
        text = render_telemetry(summary, top=3)
        assert "top 3 slowest cells" in text
        assert "c11" in text and "c2" not in text

