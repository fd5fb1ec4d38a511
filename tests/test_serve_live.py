"""Live telemetry wired through the serving stack.

Covers the /v1/metricsz scrape (both formats, and its availability
during overload and drain — the whole point of exempting it from the
admission gate), request-id threading, access logs over real HTTP, the
chaos determinism lock with telemetry enabled, the format-5 manifest
section, diff classification of serve drift, the run report's Serving
block, and the ``repro obs`` CLI.
"""

from __future__ import annotations

import copy
import itertools
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.report import render_run_report
from repro.core.mapstore import MapStore
from repro.faults import FaultPlan
from repro.obs import (AccessLog, LiveTelemetry, Recorder, RunManifest,
                       STATUS_OK, STATUS_REGRESSION, STATUS_WARN,
                       diff_manifests, load_access_log, validate_manifest)
from repro.serve import (AdmissionGate, ChaosEngine, MapService,
                         VirtualClock, replay, run_chaos, seeded_queries,
                         serve_http, serve_manifest_section)

from .test_obs_history import make_payload


@pytest.fixture(scope="module")
def store(small_itm, small_scenario):
    return MapStore.from_map(small_itm, graph=small_scenario.graph)


def _serve_over_http(service):
    httpd = serve_http(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, f"http://127.0.0.1:{httpd.server_port}"


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=30)


class TestMetricszEndpoint:
    def test_text_and_json_formats(self, store):
        service = MapService(store)
        httpd, base = _serve_over_http(service)
        try:
            _get(base + "/v1/map").read()
            with _get(base + "/v1/metricsz") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                text = response.read().decode()
            assert "repro_serve_map_info" in text
            assert "repro_serve_latency_seconds_bucket" in text
            with _get(base + "/v1/metricsz?format=json") as response:
                snap = json.loads(response.read())
            assert snap["digest"] == service.digest
            assert snap["draining"] is False
            assert snap["latency"]["map"]["ok"]["count"] == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/v1/metricsz?format=xml")
            assert excinfo.value.code == 400
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_scrape_is_not_observed(self, store):
        """The scrape must not perturb what it reports, or a post-load
        scrape could never equal the flushed manifest."""
        service = MapService(store)
        httpd, base = _serve_over_http(service)
        try:
            _get(base + "/v1/map").read()
            for __ in range(3):
                snap = json.loads(
                    _get(base + "/v1/metricsz?format=json").read())
            assert snap["latency"] == service.telemetry.latency_snapshot()
            assert "metricsz" not in snap["latency"]
            assert sum(s["count"] for outcomes in snap["latency"].values()
                       for s in outcomes.values()) == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_responds_during_overload_shed(self, store):
        clock = VirtualClock()   # never advances: bucket never refills
        gate = AdmissionGate(max_inflight=8, rate=1.0, burst=1,
                             max_wait_s=0.0, clock=clock)
        service = MapService(store, gate=gate)
        httpd, base = _serve_over_http(service)
        try:
            _get(base + "/v1/map").read()          # drains the bucket
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/v1/map")
            assert excinfo.value.code == 429
            with _get(base + "/v1/metricsz") as response:
                assert response.status == 200      # scrape is ungated
            snap = json.loads(
                _get(base + "/v1/metricsz?format=json").read())
            assert snap["latency"]["map"]["shed"]["count"] == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_responds_during_drain(self, store):
        service = MapService(store)
        service.begin_drain()
        httpd, base = _serve_over_http(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/v1/map")
            assert excinfo.value.code == 503
            with _get(base + "/v1/metricsz") as response:
                assert response.status == 200
                assert "repro_serve_draining 1" in response.read().decode()
            snap = json.loads(
                _get(base + "/v1/metricsz?format=json").read())
            assert snap["draining"] is True
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestRequestIds:
    def test_generated_ids_on_every_response(self, store):
        service = MapService(store)
        httpd, base = _serve_over_http(service)
        try:
            with _get(base + "/v1/map") as response:
                first = response.headers["X-Request-Id"]
            with _get(base + "/v1/health") as response:
                second = response.headers["X-Request-Id"]
            assert first and second and first != second
            # Errors and scrapes carry ids too.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/v1/nope")
            assert excinfo.value.headers["X-Request-Id"]
            with _get(base + "/v1/metricsz") as response:
                assert response.headers["X-Request-Id"]
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_inbound_id_wins_and_lands_in_access_log(self, store,
                                                     tmp_path):
        path = str(tmp_path / "access.jsonl")
        telemetry = LiveTelemetry(access_log=AccessLog(path))
        service = MapService(store, telemetry=telemetry)
        httpd, base = _serve_over_http(service)
        try:
            with _get(base + "/v1/map",
                      headers={"X-Request-Id": "trace-77"}) as response:
                assert response.headers["X-Request-Id"] == "trace-77"
        finally:
            httpd.shutdown()
            httpd.server_close()
            telemetry.access_log.close()
        records, malformed = load_access_log(path)
        assert malformed == 0
        assert [r["request_id"] for r in records] == ["trace-77"]
        assert records[0]["endpoint"] == "map"
        assert records[0]["outcome"] == "ok"
        assert records[0]["status"] == 200
        assert records[0]["digest"] == service.digest



class TestRequestClock:
    def test_wall_clock_step_does_not_skew_latency(self, store,
                                                   monkeypatch):
        """Request latency is measured on a monotonic clock: a wall
        clock stepping back 5 s between a request's two reads must not
        record it as zero (nor a forward step as +5 s)."""
        real_time = time.time
        reads = itertools.count()
        monkeypatch.setattr(
            time, "time", lambda: real_time() - 5.0 * next(reads))
        telemetry = LiveTelemetry()
        reply = MapService(store, telemetry=telemetry).handle("/v1/map")
        assert reply.status == 200
        hist = telemetry.histograms()[("map", "ok")]
        assert hist.count == 1
        assert 0.0 < hist.max < 5.0

def _chaos_setup(store, chaos_seed: int = 11):
    """A gated, chaos-armed service with virtual-clock telemetry."""
    clock = VirtualClock()
    recorder = Recorder()
    gate = AdmissionGate(max_inflight=4, rate=40.0, burst=8,
                         max_wait_s=0.01, deadline_s=0.15,
                         recorder=recorder, clock=clock)
    plan = FaultPlan.serve_chaos(rate=0.08, seed=chaos_seed)
    chaos = ChaosEngine(plan, recorder=recorder, clock=clock,
                        slow_handler_max_s=0.3)
    telemetry = LiveTelemetry(clock=clock)
    service = MapService(store, recorder=recorder, gate=gate,
                         chaos=chaos, telemetry=telemetry)
    return service, recorder, clock


class TestChaosTelemetryDeterminism:
    def test_same_seed_same_histograms(self, store):
        """The chaos determinism lock extends to telemetry: a same-seed
        rerun reproduces every latency histogram bit-identically,
        because all durations come off the virtual clock."""
        queries = seeded_queries(store, 150, seed=5)
        runs = []
        for __ in range(2):
            service, recorder, clock = _chaos_setup(store)
            outcome = run_chaos(service, queries, arrival_rate=120.0,
                                seed=21, clock=clock)
            telemetry = service.telemetry
            runs.append((outcome,
                         telemetry.latency_snapshot(),
                         telemetry.manifest_section(),
                         telemetry.window_snapshot()))
        assert runs[0] == runs[1]
        __, latency, section, __ = runs[0]
        # The load actually exercised several outcomes.
        outcomes = {outcome for by_outcome in latency.values()
                    for outcome in by_outcome}
        assert "ok" in outcomes and "shed" in outcomes
        assert section["total"]["count"] > 0

    def test_replay_records_telemetry(self, store):
        service = MapService(store, telemetry=LiveTelemetry())
        queries = seeded_queries(store, 40, seed=9)
        summary = replay(service, queries)
        section = service.telemetry.manifest_section()
        assert section["total"]["count"] == summary["queries"]


class TestServeManifestSection:
    def test_latency_attached_with_telemetry(self, store):
        service, recorder, clock = _chaos_setup(store)
        queries = seeded_queries(store, 80, seed=2)
        run_chaos(service, queries, arrival_rate=100.0, seed=4,
                  clock=clock)
        section = serve_manifest_section(recorder,
                                         telemetry=service.telemetry)
        assert section["latency"]["unit"] == "ms"
        assert section["latency"] == service.telemetry.manifest_section()
        # Without telemetry the section carries no latency histograms.
        assert "latency" not in serve_manifest_section(recorder)

    def test_telemetry_alone_creates_section(self, store):
        """Latency histograms without an admission gate still earn a
        serve section (an ungated serve run is format 5 too)."""
        recorder = Recorder()
        telemetry = LiveTelemetry(clock=lambda: 1.0)
        telemetry.observe("map", "ok", 0.01)
        section = serve_manifest_section(recorder, telemetry=telemetry)
        assert section is not None
        assert section["latency"]["total"]["count"] == 1
        assert section["admit"]["offered"] == 0

    def test_empty_everything_no_section(self, store):
        recorder = Recorder()
        assert serve_manifest_section(
            recorder, telemetry=LiveTelemetry()) is None


def _latency_section(p50=1.0, p99=4.0, count=10):
    summary = {"count": count, "p50_ms": p50, "p99_ms": p99,
               "mean_ms": p50, "max_ms": max(p50, p99)}
    return {"unit": "ms", "total": dict(summary),
            "endpoints": {"map": {"ok": dict(summary)}}}


def _serve_payload(latency=None, **admit_overrides):
    admit = {"offered": 100, "admitted": 90, "shed": 10,
             "drained": 0, "deadline_expired": 5}
    admit.update(admit_overrides)
    section = {
        "admit": admit,
        "http": {"timeouts": 0, "client_disconnects": 0},
        "watch": {"errors": 0, "circuit_open": 0, "circuit_close": 0},
        "chaos": {"slow_handler": 3},
    }
    if latency is not None:
        section["latency"] = latency
    return make_payload(format_version=5, serve=section)


class TestManifestValidation:
    def test_format5_with_latency_validates(self):
        validate_manifest(_serve_payload(latency=_latency_section()))

    def test_serve_section_needs_format4(self):
        from repro.errors import ValidationError
        payload = _serve_payload()
        payload["format_version"] = 3
        with pytest.raises(ValidationError, match="format_version"):
            validate_manifest(payload)

    def test_latency_needs_format5(self):
        from repro.errors import ValidationError
        payload = _serve_payload(latency=_latency_section())
        payload["format_version"] = 4
        with pytest.raises(ValidationError,
                           match="format_version must be 5, got 4"):
            validate_manifest(payload)

    def test_latency_count_sum_invariant(self):
        from repro.errors import ValidationError
        latency = _latency_section()
        latency["total"]["count"] = 99
        with pytest.raises(ValidationError, match="sum"):
            validate_manifest(_serve_payload(latency=latency))

    def test_latency_quantile_ordering(self):
        from repro.errors import ValidationError
        latency = _latency_section(p50=5.0, p99=1.0)
        latency["total"]["max_ms"] = 5.0
        with pytest.raises(ValidationError, match="p50_ms exceeds"):
            validate_manifest(_serve_payload(latency=latency))

    def test_latency_unit_locked_to_ms(self):
        from repro.errors import ValidationError
        latency = _latency_section()
        latency["unit"] = "s"
        with pytest.raises(ValidationError, match="unit"):
            validate_manifest(_serve_payload(latency=latency))


def _manifest_with(payload):
    return RunManifest.from_dict(payload)


def _serve_findings(diff):
    return [f for f in diff.findings if f.category == "serve"]


class TestServeDiff:
    def test_identical_serve_runs_are_clean(self):
        old = _manifest_with(_serve_payload(latency=_latency_section()))
        new = _manifest_with(copy.deepcopy(old.to_dict()))
        diff = diff_manifests(old, new)
        assert _serve_findings(diff) == []

    def test_shed_fraction_thresholds(self):
        old = _manifest_with(_serve_payload())

        def with_shed(shed):
            return _manifest_with(_serve_payload(
                shed=shed, admitted=100 - shed))

        warn = diff_manifests(old, with_shed(15))      # +5 points
        finding = [f for f in _serve_findings(warn)
                   if f.metric == "admit.shed_fraction"][0]
        assert finding.status == STATUS_WARN
        regression = diff_manifests(old, with_shed(25))  # +15 points
        finding = [f for f in _serve_findings(regression)
                   if f.metric == "admit.shed_fraction"][0]
        assert finding.status == STATUS_REGRESSION
        improved = diff_manifests(old, with_shed(2))
        finding = [f for f in _serve_findings(improved)
                   if f.metric == "admit.shed_fraction"][0]
        assert finding.status == STATUS_OK
        assert "improved" in finding.detail

    def test_latency_regression_and_small_change_shielded(self):
        old = _manifest_with(_serve_payload(
            latency=_latency_section(p50=10.0, p99=40.0)))
        doubled = _manifest_with(_serve_payload(
            latency=_latency_section(p50=25.0, p99=90.0)))
        diff = diff_manifests(old, doubled)
        metrics = {f.metric: f.status for f in _serve_findings(diff)}
        assert metrics["latency.total.p50_ms"] == STATUS_REGRESSION
        assert metrics["latency.total.p99_ms"] == STATUS_REGRESSION
        # Sub-threshold absolute moves stay silent (min_ms floor).
        tiny = _manifest_with(_serve_payload(
            latency=_latency_section(p50=11.0, p99=41.0)))
        assert _serve_findings(diff_manifests(old, tiny)) == []

    def test_one_sided_latency_warns_format_mismatch(self):
        old = _manifest_with(_serve_payload())
        new = _manifest_with(_serve_payload(latency=_latency_section()))
        diff = diff_manifests(old, new)
        finding = [f for f in _serve_findings(diff)
                   if f.metric == "latency"][0]
        assert finding.status == STATUS_WARN
        assert "the old run served no request" in finding.detail

    def test_circuit_open_regresses_and_chaos_drift_warns(self):
        old = _manifest_with(_serve_payload())
        payload = _serve_payload()
        payload["serve"]["watch"]["circuit_open"] = 2
        payload["serve"]["chaos"]["slow_handler"] = 9
        diff = diff_manifests(old, _manifest_with(payload))
        metrics = {f.metric: f.status for f in _serve_findings(diff)}
        assert metrics["watch.circuit_open"] == STATUS_REGRESSION
        assert metrics["chaos.slow_handler"] == STATUS_WARN

    def test_ignore_serve_drops_the_category(self):
        old = _manifest_with(_serve_payload())
        payload = _serve_payload()
        payload["serve"]["watch"]["circuit_open"] = 2
        diff = diff_manifests(old, _manifest_with(payload),
                              ignore=("serve",))
        assert _serve_findings(diff) == []
        assert diff.regressions() == []


class TestRunReportServing:
    def test_serving_section_rendered(self):
        manifest = _manifest_with(_serve_payload(
            latency=_latency_section(p50=1.5, p99=8.0)))
        manifest.counters["serve.cache.hits"] = 30
        manifest.counters["serve.cache.misses"] = 10
        report = render_run_report(manifest)
        assert "Serving:" in report
        assert "100 offered = 90 admitted + 10 shed (10.0% shed)" \
            in report
        assert "deadline expired: 5 of 90" in report
        assert "hit rate 75.0%" in report
        assert "chaos injections: slow_handler=3" in report
        assert "latency (server-side histograms, ms):" in report
        assert "map" in report and "total" in report

    def test_no_serve_section_no_serving_block(self):
        manifest = _manifest_with(make_payload())
        assert "Serving:" not in render_run_report(manifest)


class TestObsCli:
    def test_obs_top_renders_one_frame(self, store, capsys):
        from repro.cli import main
        service = MapService(store)
        httpd, base = _serve_over_http(service)
        try:
            _get(base + "/v1/map").read()
            assert main(["obs", "top", base, "--frames", "1"]) == 0
        finally:
            httpd.shutdown()
            httpd.server_close()
        out = capsys.readouterr().out
        assert service.digest in out
        assert "draining=no" in out
        assert "endpoint" in out and "map" in out

    def test_obs_top_unreachable_exits_2(self, capsys):
        from repro.cli import main
        assert main(["obs", "top", "127.0.0.1:1", "--frames", "1"]) == 2
        assert "cannot scrape" in capsys.readouterr().err

    def test_obs_tail_summarises_log(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "access.jsonl"
        with AccessLog(str(path)) as log:
            log.emit({"ts": 1.0, "endpoint": "map", "outcome": "ok",
                      "latency_ms": 2.0})
            log.emit({"ts": 2.0, "endpoint": "map", "outcome": "shed",
                      "latency_ms": 0.1})
        path.write_text(path.read_text() + "garbage\n")
        assert main(["obs", "tail", str(path)]) == 0
        captured = capsys.readouterr()
        assert "2 request(s)" in captured.out
        assert "map" in captured.out
        assert "skipped 1 malformed" in captured.err
