"""Unit tests for the Prometheus text-format exposition renderer."""

from __future__ import annotations

import re

from repro.obs import CONTENT_TYPE, Recorder, render_prometheus

SAMPLE = re.compile(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)")


def _samples(text: str) -> list[tuple[str, str, str]]:
    """(name, labels, value) for every non-comment line, parse-checked."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = SAMPLE.fullmatch(line)
        assert match, f"malformed sample line: {line!r}"
        rows.append((match.group(1), match.group(2) or "", match.group(3)))
    return rows


class TestRenderPrometheus:
    def test_counter_becomes_total_with_type_line(self):
        recorder = Recorder()
        recorder.counter("serve.requests", op="optimize").add(3)
        text = render_prometheus(recorder.events())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{op="optimize"} 3' in text

    def test_gauge_keeps_name_and_gets_max_twin(self):
        recorder = Recorder()
        gauge = recorder.gauge("queue.depth")
        gauge.set(5)
        gauge.set(2)
        text = render_prometheus(recorder.events())
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert "repro_queue_depth_max 5" in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        recorder = Recorder()
        h = recorder.histogram("latency")
        h.observe(0.0)     # zero bucket
        h.observe(0.4)     # (0.25, 0.5]
        h.observe(0.5)     # (0.25, 0.5]
        h.observe(3.0)     # (2, 4]
        text = render_prometheus(recorder.events())
        assert "# TYPE repro_latency histogram" in text
        buckets = [
            (labels, value)
            for name, labels, value in _samples(text)
            if name == "repro_latency_bucket"
        ]
        assert buckets == [
            ('{le="0"}', "1"),
            ('{le="0.5"}', "3"),
            ('{le="4"}', "4"),
            ('{le="+Inf"}', "4"),
        ]
        assert "repro_latency_count 4" in text
        assert "repro_latency_sum 3.9" in text

    def test_histogram_labels_precede_le(self):
        recorder = Recorder()
        recorder.histogram("latency", op="optimize").observe(0.5)
        text = render_prometheus(recorder.events())
        assert 'repro_latency_bucket{op="optimize",le="0.5"} 1' in text
        assert 'repro_latency_sum{op="optimize"} 0.5' in text

    def test_duplicate_series_aggregate(self):
        # Events pooled from several recorders (daemon + workers) may
        # repeat a (name, labels) pair; the exposition must stay unique.
        left, right = Recorder(), Recorder()
        left.counter("hits").add(2)
        right.counter("hits").add(3)
        left.gauge("depth").set(4)
        right.gauge("depth").set(9)
        left.histogram("lat").observe(0.5)
        right.histogram("lat").observe(0.5)
        text = render_prometheus(left.events() + right.events())
        series = [(name, labels) for name, labels, _ in _samples(text)]
        assert len(series) == len(set(series))
        assert "repro_hits_total 5" in text
        assert "repro_depth_max 9" in text
        assert "repro_lat_count 2" in text

    def test_names_and_labels_are_sanitized_and_escaped(self):
        recorder = Recorder()
        recorder.counter(
            "serve.errors", **{"class": 'Time"out\nerror\\x'}
        ).add(1)
        text = render_prometheus(recorder.events())
        (sample,) = _samples(text)
        assert sample[0] == "repro_serve_errors_total"
        assert sample[1] == '{class="Time\\"out\\nerror\\\\x"}'

    def test_spans_and_structured_events_are_skipped(self):
        recorder = Recorder()
        with recorder.span("serve.request"):
            recorder.record_event("decision", verdict="keep")
        assert render_prometheus(recorder.events()) == ""

    def test_none_value_renders_as_nan(self):
        events = [{"type": "gauge", "name": "g", "tags": {}, "value": None,
                   "max": None}]
        assert "repro_g NaN" in render_prometheus(events)

    def test_prefix_is_configurable(self):
        recorder = Recorder()
        recorder.counter("hits").add(1)
        text = render_prometheus(recorder.events(), prefix="etl_")
        assert "etl_hits_total 1" in text

    def test_content_type_is_the_prometheus_text_version(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_server_exports_the_memo_size_next_to_the_memo_gauges(self):
        from repro.core.search.transposition import TranspositionCache
        from repro.serve.memo import MemoEntry
        from repro.serve.server import OptimizerServer

        server = OptimizerServer()
        server.cache, _ = TranspositionCache.resolve(None)
        server.memo.put("a", MemoEntry("x" * 40, "fp", 0))
        server.memo.put("b", MemoEntry("y" * 2, "fp", 0))
        text = server.metrics_text()
        samples = {name: value for name, _, value in _samples(text)}
        assert "# TYPE repro_serve_memo_bytes gauge" in text
        assert float(samples["repro_serve_memo_bytes"]) == 42
        assert float(samples["repro_serve_memo_entries"]) == 2
