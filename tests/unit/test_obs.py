"""Unit tests for repro.obs: registry semantics (get-or-create handles,
counter/histogram propagation, callback gauges, reset, NullRegistry),
histogram bucketing, the span tree, and the JSON/Prometheus exporters."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    TRACE_COLUMNS,
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    QueryTrace,
    Span,
    global_registry,
    prometheus_name,
    reset_global_registry,
    to_json_lines,
    to_prometheus,
)


class TestRegistry:
    def test_handles_are_get_or_create_and_stable(self):
        registry = MetricsRegistry(parent=None)
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.names() == ["a", "g", "h"]

    def test_counters_propagate_to_the_parent(self):
        parent = MetricsRegistry(parent=None)
        child = MetricsRegistry(parent=parent)
        child.counter("exec.queries").inc()
        child.counter("exec.queries").inc(4)
        assert child.counter("exec.queries").value == 5
        assert parent.counter("exec.queries").value == 5

    def test_two_children_aggregate_in_one_parent(self):
        parent = MetricsRegistry(parent=None)
        left = MetricsRegistry(parent=parent)
        right = MetricsRegistry(parent=parent)
        left.counter("n").inc(2)
        right.counter("n").inc(3)
        assert left.counter("n").value == 2
        assert right.counter("n").value == 3
        assert parent.counter("n").value == 5

    def test_histograms_propagate_to_the_parent(self):
        parent = MetricsRegistry(parent=None)
        child = MetricsRegistry(parent=parent)
        child.histogram("t").observe(0.25)
        assert parent.histogram("t").count == 1
        assert parent.histogram("t").total == pytest.approx(0.25)

    def test_default_parent_is_the_global_registry(self):
        reset_global_registry()
        registry = MetricsRegistry()
        registry.counter("k").inc(7)
        assert global_registry().counter("k").value == 7
        reset_global_registry()
        assert global_registry().names() == []

    def test_callback_gauges_read_live_state(self):
        state = {"rows": 0}
        registry = MetricsRegistry(parent=None)
        gauge = registry.gauge("delta.buffered_rows", fn=lambda: state["rows"])
        assert gauge.value == 0
        state["rows"] = 42
        assert registry.snapshot()["delta.buffered_rows"] == 42

    def test_setting_a_callback_gauge_raises(self):
        registry = MetricsRegistry(parent=None)
        gauge = registry.gauge("g", fn=lambda: 1)
        with pytest.raises(ObservabilityError):
            gauge.set(9)

    def test_gauge_reregistration_rebinds_the_callback(self):
        registry = MetricsRegistry(parent=None)
        registry.gauge("g", fn=lambda: 1)
        registry.gauge("g", fn=lambda: 2)
        assert registry.gauge("g").value == 2

    def test_plain_gauges_are_settable(self):
        gauge = MetricsRegistry(parent=None).gauge("depth")
        gauge.set(3)
        assert gauge.value == 3

    def test_snapshot_shapes(self):
        registry = MetricsRegistry(parent=None)
        registry.counter("c").inc(2)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.002)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2
        assert snapshot["g"] == 1
        assert snapshot["h"]["count"] == 1
        assert list(snapshot) == sorted(snapshot)

    def test_reset_zeroes_counters_and_histograms_not_parents(self):
        parent = MetricsRegistry(parent=None)
        child = MetricsRegistry(parent=parent)
        child.counter("c").inc(5)
        child.histogram("h").observe(1.0)
        child.reset()
        assert child.counter("c").value == 0
        assert child.histogram("h").count == 0
        assert child.histogram("h").min is None
        # The parent keeps its aggregate: reset is per-registry.
        assert parent.counter("c").value == 5
        assert parent.histogram("h").count == 1

    def test_standalone_counter_without_parent(self):
        counter = Counter("lonely")
        counter.inc(3)
        assert counter.value == 3


class TestHistogram:
    def test_bucketing_is_upper_bound_inclusive(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [2, 1, 1]  # <=0.1, <=1.0, +Inf
        assert histogram.count == 4
        assert histogram.min == pytest.approx(0.05)
        assert histogram.max == pytest.approx(2.0)
        assert histogram.mean == pytest.approx((0.05 + 0.1 + 0.5 + 2.0) / 4)

    def test_as_dict_carries_buckets_and_inf(self):
        histogram = Histogram("h", buckets=(0.1,))
        histogram.observe(5.0)
        stats = histogram.as_dict()
        assert stats["buckets"] == {"0.1": 0, "+Inf": 1}
        assert stats["sum"] == pytest.approx(5.0)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_timer_records_one_observation(self):
        histogram = Histogram("h")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.total >= 0.0


class TestNullRegistry:
    def test_every_operation_is_a_noop(self):
        registry = NullRegistry()
        registry.counter("c").inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        with registry.histogram("h").time():
            pass
        assert registry.counter("c").value == 0
        assert registry.names() == []
        assert registry.snapshot() == {}
        registry.reset()


class TestSpans:
    def test_trace_rows_have_the_fixed_shape(self):
        trace = QueryTrace("SELECT 1", timed=True)
        root = trace.root = Span("select", "table=r")
        scan = root.child("scan", "table=r")
        scan.batches = 2
        scan.rows_out = 10
        root.rows_out = 10
        rows = trace.finalize().rows()
        assert [len(row) for row in rows] == [len(TRACE_COLUMNS)] * 2
        assert rows[0][0] == "select"
        assert rows[1][0] == "  scan"  # two-space depth indent

    def test_finalize_chains_rows_in_from_the_predecessor(self):
        trace = QueryTrace()
        root = trace.root = Span("select")
        scan = root.child("scan")
        scan.rows_out = 8
        filter_span = root.child("filter")
        filter_span.rows_out = 3
        trace.finalize()
        assert filter_span.rows_in == 8   # consumes what the scan produced
        assert root.rows_in == 3          # parent consumes its last stage

    def test_as_dict_nests_children(self):
        trace = QueryTrace("SELECT 1")
        trace.root = Span("select")
        trace.root.child("scan")
        plan = trace.as_dict()["plan"]
        assert plan["operator"] == "select"
        assert plan["children"][0]["operator"] == "scan"

    def test_empty_trace_renders_no_rows(self):
        assert QueryTrace().rows() == []
        assert QueryTrace().as_dict()["plan"] is None

    def test_stage_timer_counts_chunks_and_batches(self):
        from repro.exec import ValuesBatch
        from repro.exec.planner import _timed

        chunks = Span("project")
        assert list(_timed(iter([[(1,), (2,)], [(3,)]]), chunks)) == [
            [(1,), (2,)], [(3,)],
        ]
        assert (chunks.batches, chunks.rows_out) == (0, 3)
        assert chunks.seconds >= 0.0
        scan = Span("scan", "table=r")
        batch = ValuesBatch.from_rows(("k",), [(1,), (2,)])
        list(_timed(iter([batch, batch]), scan))
        assert (scan.batches, scan.rows_out) == (2, 4)
        assert scan.detail == "table=r [ValuesBatch]"


class TestExporters:
    def test_prometheus_name_flattens_punctuation(self):
        assert prometheus_name("exec.rows_decoded") == "exec_rows_decoded"
        assert prometheus_name("a.b-c d") == "a_b_c_d"

    def test_json_lines_round_trip(self):
        registry = MetricsRegistry(parent=None)
        registry.counter("exec.queries").inc(2)
        registry.gauge("delta.tables").set(1)
        registry.histogram("exec.select_seconds").observe(0.002)
        lines = to_json_lines(registry.snapshot()).splitlines()
        records = {
            record["metric"]: record
            for record in map(json.loads, lines)
        }
        assert records["exec.queries"]["value"] == 2
        assert records["delta.tables"]["value"] == 1
        assert records["exec.select_seconds"]["type"] == "histogram"
        assert records["exec.select_seconds"]["count"] == 1

    def test_json_lines_empty_snapshot(self):
        assert to_json_lines({}) == ""

    def test_prometheus_buckets_are_cumulative(self):
        histogram = Histogram("exec.select_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(3.0)
        text = to_prometheus({"exec.select_seconds": histogram.as_dict()})
        assert "# TYPE exec_select_seconds histogram" in text
        assert 'exec_select_seconds_bucket{le="0.1"} 1' in text
        assert 'exec_select_seconds_bucket{le="1.0"} 2' in text
        assert 'exec_select_seconds_bucket{le="+Inf"} 3' in text
        assert "exec_select_seconds_count 3" in text

    def test_prometheus_plain_samples(self):
        text = to_prometheus({"txn.commits": 4})
        assert text == "txn_commits 4\n"
