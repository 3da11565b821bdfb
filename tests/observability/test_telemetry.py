"""The instrumentation core: spans and scalar instruments."""

import pytest

from repro.observability import (
    Telemetry,
    format_phase_table,
    percentile,
)


class TestPercentile:
    def test_closest_rank_interpolation(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0.0) == 10.0
        assert percentile(samples, 1.0) == 40.0
        assert percentile(samples, 0.5) == pytest.approx(25.0)
        assert percentile(samples, 0.25) == pytest.approx(17.5)

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([7.0], q) == 7.0

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_input_is_not_mutated(self):
        samples = [3.0, 1.0, 2.0]
        percentile(samples, 0.5)
        assert samples == [3.0, 1.0, 2.0]

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestScalarInstruments:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("messages")
        tel.count("messages", 4)
        assert tel.counters == {"messages": 5}

    def test_histogram_stats(self):
        tel = Telemetry()
        for value in (1.0, 2.0, 3.0):
            tel.observe("latency", value)
        stats = tel.histogram_stats("latency")
        assert stats == {
            "count": 3,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
            "p50": 2.0,
            "p95": pytest.approx(2.9),
            "p99": pytest.approx(2.98),
        }

    def test_histogram_names(self):
        tel = Telemetry()
        assert tel.histogram_names == []
        tel.observe("a", 1.0)
        tel.observe("b", 2.0)
        assert tel.histogram_names == ["a", "b"]

    def test_observe_many_equals_repeated_observe(self):
        batches = [("b", [3.0, 1.0]), ("a", [2.0]), ("b", [0.5, 4.0, 1.0])]
        one_by_one, many = Telemetry(), Telemetry()
        one_by_one.observe("a", 9.0)
        many.observe("a", 9.0)
        for name, values in batches:
            for value in values:
                one_by_one.observe(name, value)
            many.observe_many(name, values)
        assert many.histogram_names == one_by_one.histogram_names == ["a", "b"]
        assert many._histograms == one_by_one._histograms
        for name in ("a", "b"):
            assert many.histogram_stats(name) == one_by_one.histogram_stats(name)

    def test_samples_are_float64(self):
        tel = Telemetry()
        tel.observe("a", 2)
        tel.observe_many("a", [3, 0.5])
        samples = tel._histograms["a"]
        assert list(samples) == [2.0, 3.0, 0.5]
        assert all(type(sample) is float for sample in samples)
        assert samples.itemsize == 8
        assert tel.histogram_stats("a")["max"] == 3.0

    def test_observe_many_of_nothing_creates_no_histogram(self):
        tel = Telemetry()
        tel.observe_many("latency", [])
        assert tel.histogram_names == []
        tel.observe("latency", 1.0)
        tel.observe_many("latency", ())
        assert tel.histogram_stats("latency")["count"] == 1

    def test_observe_many_copies_its_input(self):
        tel = Telemetry()
        values = [1.0, 2.0]
        tel.observe_many("latency", values)
        values.append(100.0)
        assert tel.histogram_stats("latency")["max"] == 2.0


class TestSpans:
    def test_span_records_calls_and_nonnegative_times(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("phase"):
                pass
        stats = tel.span_stats("phase")
        assert stats["calls"] == 3
        assert stats["total_s"] >= stats["self_s"] >= 0.0

    def test_nested_spans_attribute_self_time_disjointly(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                # Enough work that inner's elapsed is strictly positive.
                sum(range(20_000))
        outer = tel.span_stats("outer")
        inner = tel.span_stats("inner")
        # Inclusive outer total covers inner's total; outer's *self* time
        # excludes it, so the per-phase attribution stays disjoint.
        assert outer["total_s"] >= inner["total_s"] > 0.0
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"]
        )
        assert tel.total_span_seconds() == pytest.approx(
            outer["self_s"] + inner["self_s"]
        )

    def test_total_span_seconds_never_exceeds_outer_wall(self):
        from time import perf_counter

        tel = Telemetry()
        start = perf_counter()
        with tel.span("a"):
            with tel.span("b"):
                sum(range(10_000))
            with tel.span("b"):
                pass
        wall = perf_counter() - start
        assert 0.0 < tel.total_span_seconds() <= wall

    def test_sibling_spans_feed_the_same_parent(self):
        tel = Telemetry()
        with tel.span("parent"):
            with tel.span("child"):
                pass
            with tel.span("child"):
                pass
        assert tel.span_stats("child")["calls"] == 2
        parent = tel.span_stats("parent")
        child = tel.span_stats("child")
        assert parent["self_s"] == pytest.approx(
            parent["total_s"] - child["total_s"]
        )

    def test_span_survives_exceptions(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("failing"):
                raise RuntimeError("boom")
        assert tel.span_stats("failing")["calls"] == 1
        assert not tel._stack  # the stack unwound cleanly


class TestFormatPhaseTable:
    def _telemetry(self):
        tel = Telemetry()
        # Fixed span records: [calls, total_seconds, self_seconds].
        tel._spans["kernel.apply"] = [8, 0.004, 0.004]
        tel._spans["kernel.send"] = [8, 0.002, 0.002]
        return tel

    def test_orders_by_descending_self_time(self):
        table = format_phase_table(self._telemetry())
        lines = table.splitlines()
        assert "phase" in lines[0] and "self-ms" in lines[0]
        assert lines[2].startswith("kernel.apply")
        assert lines[3].startswith("kernel.send")

    def test_wall_seconds_adds_share_and_coverage_footer(self):
        table = format_phase_table(self._telemetry(), wall_seconds=0.008)
        assert "share" in table.splitlines()[0]
        assert "spans cover" in table.splitlines()[-1]
        assert "75.0%" in table.splitlines()[-1]  # 6 ms of 8 ms wall

    def test_histograms_render_percentile_table(self):
        tel = self._telemetry()
        for value in range(1, 101):
            tel.observe("request_latency", float(value))
        table = format_phase_table(tel)
        assert "histogram" in table
        assert "request_latency" in table
        # p50/p95/p99 of 1..100 under closest-rank interpolation.
        for column in ("50.5", "95.05", "99.01"):
            assert column in table

    def test_no_histograms_no_histogram_table(self):
        assert "histogram" not in format_phase_table(self._telemetry())
