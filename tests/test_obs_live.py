"""Live-telemetry primitives: histogram correctness (property-based),
rolling window, access log, exposition rendering.

The :class:`~repro.obs.live.Histogram` claims in its docstring are the
telemetry contract the manifest and the diff engine build on, so they
are proved here with hypothesis rather than spot-checked: merging is
associative and commutative, bucket counts are exact under any
interleaving or partitioning of the sample stream, and the quantile
estimate obeys its one-bucket error bound.
"""

from __future__ import annotations

import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (ACCESS_LOG_FIELDS, BUCKET_BOUNDS, BUCKET_GROWTH,
                       AccessLog, Histogram, LiveTelemetry,
                       RollingWindow, aggregate_access_log,
                       classify_status, load_access_log,
                       render_prometheus)

# Durations inside the committed bucket range (0.1 ms .. 100 s); the
# overflow bucket has its own test.
durations = st.floats(min_value=BUCKET_BOUNDS[0],
                      max_value=BUCKET_BOUNDS[-1],
                      allow_nan=False, allow_infinity=False)


def _hist(values):
    hist = Histogram()
    for value in values:
        hist.record(value)
    return hist


class TestClassifyStatus:
    @pytest.mark.parametrize("status,outcome", [
        (200, "ok"), (204, "ok"), (304, "ok"),
        (429, "shed"), (504, "deadline"),
        (400, "error"), (404, "error"), (500, "error"), (503, "error"),
    ])
    def test_mapping(self, status, outcome):
        assert classify_status(status) == outcome


class TestHistogramProperties:
    @given(st.lists(durations, max_size=60),
           st.lists(durations, max_size=60),
           st.lists(durations, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_associative_and_commutative(self, a, b, c):
        ab_c = _hist(a).merge(_hist(b)).merge(_hist(c))
        a_bc = _hist(a).merge(_hist(b).merge(_hist(c)))
        cba = _hist(c).merge(_hist(b)).merge(_hist(a))
        for other in (a_bc, cba):
            assert ab_c.counts == other.counts
            assert ab_c.count == other.count
            assert ab_c.max == other.max
            assert ab_c.min == other.min
            assert ab_c.sum == pytest.approx(other.sum)

    @given(st.lists(durations, max_size=120), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_counts_exact_under_any_interleaving(self, values, rnd):
        """The final state is a pure function of the multiset of
        samples: shuffling and re-partitioning the stream changes
        nothing (this is what makes per-thread recording safe)."""
        direct = _hist(values)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        cut = rnd.randrange(len(shuffled) + 1)
        merged = _hist(shuffled[:cut]).merge(_hist(shuffled[cut:]))
        assert merged.counts == direct.counts
        assert merged.count == direct.count == len(values)
        assert sum(direct.counts) == len(values)
        # Every sample landed in the bucket whose bound covers it.
        for value in values:
            i = next(j for j, bound in enumerate(direct.bounds)
                     if value <= bound)
            assert direct.counts[i] >= 1

    @given(st.lists(durations, min_size=1, max_size=120),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_quantile_error_bound(self, values, q):
        """The documented bound: the estimate never undershoots the
        nearest-rank sample and overshoots it by at most one bucket
        ratio (BUCKET_GROWTH)."""
        hist = _hist(values)
        est = hist.quantile(q)
        ordered = sorted(values)
        exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
        assert est >= exact or est == pytest.approx(exact)
        assert est <= max(exact * BUCKET_GROWTH, BUCKET_BOUNDS[0])
        assert est <= hist.max or est == pytest.approx(hist.max)


class TestHistogramBasics:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean() == 0.0
        assert hist.summary_ms()["max_ms"] == 0.0

    def test_negative_values_clamp_to_zero(self):
        hist = _hist([-1.0])
        assert hist.count == 1
        assert hist.max == 0.0
        assert hist.quantile(1.0) == 0.0

    def test_overflow_bucket_reports_observed_max(self):
        hist = _hist([150.0, 0.001])
        assert hist.counts[-1] == 1
        assert hist.quantile(0.99) == 150.0
        assert hist.quantile(1.0) == 150.0

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(bounds=(1.0, 2.0)))

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_copy_is_independent(self):
        hist = _hist([0.01])
        dup = hist.copy()
        dup.record(0.02)
        assert hist.count == 1 and dup.count == 2


class TestRollingWindow:
    def test_expiry_and_qps(self):
        window = RollingWindow(window_s=10)
        window.record("map", "ok", 0.01, now=100.0)
        window.record("map", "ok", 0.02, now=101.0)
        window.record("map", "shed", 0.0, now=101.5)
        snap = window.snapshot(now=101.9)
        totals = snap["totals"]
        assert totals["requests"] == 3
        assert totals["qps"] == pytest.approx(0.3)
        assert totals["shed_fraction"] == pytest.approx(1 / 3, abs=1e-3)
        # ~10 s later the second-100 record has aged out of the window
        # (the window covers the seconds in (int(now) - 10, int(now)]).
        snap = window.snapshot(now=110.9)
        assert snap["totals"]["requests"] == 2
        # And far in the future nothing remains.
        assert window.snapshot(now=1000.0)["endpoints"] == {}

    def test_slot_recycling_overwrites_stale_seconds(self):
        window = RollingWindow(window_s=5)
        window.record("map", "ok", 0.01, now=3.0)
        window.record("map", "ok", 0.01, now=8.0)   # same slot index
        snap = window.snapshot(now=8.0)
        assert snap["totals"]["requests"] == 1

    def test_latency_covers_ok_only(self):
        window = RollingWindow(window_s=5)
        window.record("map", "ok", 0.1, now=1.0)
        window.record("map", "error", 9.0, now=1.0)
        entry = window.snapshot(now=1.0)["endpoints"]["map"]
        assert entry["p99_ms"] <= 0.1 * BUCKET_GROWTH * 1e3

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            RollingWindow(window_s=0)


class TestAccessLog:
    def test_roundtrip_and_fields(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        telemetry = LiveTelemetry(clock=lambda: 123.0,
                                  access_log=AccessLog(path))
        telemetry.observe("map", "ok", 0.01, status=200, path="/v1/map",
                          request_id="req-1", digest="abc")
        telemetry.access_log.close()
        records, malformed = load_access_log(path)
        assert malformed == 0
        assert len(records) == 1
        assert tuple(sorted(records[0])) == tuple(sorted(ACCESS_LOG_FIELDS))
        assert records[0]["request_id"] == "req-1"
        assert records[0]["latency_ms"] == pytest.approx(10.0)

    def test_malformed_lines_counted_not_raised(self, tmp_path):
        path = tmp_path / "access.jsonl"
        path.write_text('{"endpoint": "map", "outcome": "ok"}\n'
                        "not json\n"
                        "[1, 2]\n"
                        '{"endpoint": "cdf", "outcome": "shed"')
        records, malformed = load_access_log(str(path))
        assert len(records) == 1
        assert malformed == 3

    def test_sampling_is_seeded_and_deterministic(self, tmp_path):
        def emitted(seed):
            path = str(tmp_path / f"sampled-{seed}.jsonl")
            with AccessLog(path, sample=0.4, seed=seed) as log:
                kept = [i for i in range(200)
                        if log.emit({"i": i})]
            return kept

        first = emitted(7)
        # A fresh log with the same seed replays identical decisions;
        # a different seed draws a different sample.
        assert emitted(7) == first
        assert emitted(8) != first
        assert 0 < len(first) < 200

    def test_rotation_reopens_by_inode(self, tmp_path):
        path = str(tmp_path / "rotated.jsonl")
        with AccessLog(path) as log:
            log.emit({"n": 1})
            os.rename(path, path + ".1")       # logrotate moved it away
            log.emit({"n": 2})
        assert [r["n"] for r in load_access_log(path)[0]] == [2]
        assert [r["n"] for r in load_access_log(path + ".1")[0]] == [1]

    def test_sample_validation(self, tmp_path):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                AccessLog(str(tmp_path / "x.jsonl"), sample=bad)

    def test_aggregate_matches_window_shape(self):
        records = [
            {"ts": 10.0, "endpoint": "map", "outcome": "ok",
             "latency_ms": 5.0},
            {"ts": 11.0, "endpoint": "map", "outcome": "shed",
             "latency_ms": 0.1},
            {"ts": 12.0, "endpoint": "cdf", "outcome": "ok",
             "latency_ms": 20.0},
        ]
        summary = aggregate_access_log(records)
        assert summary["records"] == 3
        assert summary["span_s"] == pytest.approx(2.0)
        assert summary["endpoints"]["map"]["shed_fraction"] == 0.5
        assert summary["totals"]["requests"] == 3
        assert summary["totals"]["qps"] == pytest.approx(1.5)


class TestLiveTelemetry:
    def test_clock_injection_variants(self):
        class Clock:
            def now(self):
                return 42.0

        assert LiveTelemetry(clock=Clock()).now() == 42.0
        assert LiveTelemetry(clock=lambda: 7.0).now() == 7.0
        assert LiveTelemetry().now() > 0
        with pytest.raises(TypeError):
            LiveTelemetry(clock=123)

    def test_request_ids_are_sequential(self):
        telemetry = LiveTelemetry()
        assert telemetry.next_request_id() == "req-1"
        assert telemetry.next_request_id() == "req-2"

    def test_manifest_section_invariants(self):
        telemetry = LiveTelemetry(clock=lambda: 50.0)
        for latency in (0.001, 0.002, 0.3):
            telemetry.observe("map", "ok", latency)
        telemetry.observe("cdf", "error", 0.0005)
        section = telemetry.manifest_section()
        assert section["unit"] == "ms"
        summed = sum(summary["count"]
                     for outcomes in section["endpoints"].values()
                     for summary in outcomes.values())
        assert summed == section["total"]["count"] == 4
        total = section["total"]
        assert total["p50_ms"] <= total["p99_ms"] <= total["max_ms"]

    def test_empty_telemetry_has_no_section(self):
        telemetry = LiveTelemetry()
        assert telemetry.empty
        assert telemetry.manifest_section() is None
        assert telemetry.latency_snapshot() == {}


class TestPrometheusExposition:
    def test_renders_counters_gauges_and_histogram(self):
        telemetry = LiveTelemetry(clock=lambda: 9.0)
        telemetry.observe("map", "ok", 0.01)
        telemetry.observe("map", "ok", 5e-5)
        text = render_prometheus({"serve.requests.map": 2},
                                 {"mem.peak": 1.5}, telemetry,
                                 digest="d" * 12, draining=True)
        assert 'repro_serve_map_info{digest="dddddddddddd"} 1' in text
        assert "repro_serve_draining 1" in text
        assert "repro_serve_requests_map_total 2" in text
        assert "repro_mem_peak 1.5" in text
        labels = 'endpoint="map",outcome="ok"'
        assert ('repro_serve_latency_seconds_count{%s} 2' % labels) in text
        assert ('repro_serve_latency_seconds_bucket{%s,le="+Inf"} 2'
                % labels) in text
        assert text.endswith("\n")

    def test_buckets_are_cumulative_and_monotone(self):
        telemetry = LiveTelemetry(clock=lambda: 9.0)
        for latency in (0.001, 0.01, 0.1, 1.0, 200.0):
            telemetry.observe("map", "ok", latency)
        text = render_prometheus({}, {}, telemetry)
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("repro_serve_latency_seconds_bucket")]
        assert counts == sorted(counts)
        assert counts[-1] == 5                 # +Inf sees everything
        assert len(counts) == len(BUCKET_BOUNDS) + 1

    def test_no_histogram_block_when_empty(self):
        text = render_prometheus({"a.b": 1}, {}, LiveTelemetry())
        assert "latency_seconds" not in text
        assert json.dumps(text)                # printable/escapable
