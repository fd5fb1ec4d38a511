"""The serving layer: endpoints, caching, hot swap, watcher, CLI.

The HTTP tests run a real :class:`~repro.serve.http.QueryServer` on a
loopback port and drive it with ``urllib`` — the same client the CI
smoke job uses — asserting each endpoint's JSON equals the reference
answer computed straight off the dict-based map (floats included: JSON
round-trips Python floats exactly).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import ScenarioConfig, build_scenario
from repro.cli import EXIT_BAD_MAP, main
from repro.core import usecases as uc
from repro.core.mapstore import MapStore
from repro.core.serialize import map_from_dict, map_to_dict, map_to_json
from repro.errors import ValidationError
from repro.obs import AccessLog, LiveTelemetry, Recorder, load_access_log
from repro.serve import (ArtefactWatcher, MapArtefactError, MapService,
                         Query, QueryError, VirtualClock, load_store,
                         replay, replay_http, run_chaos, seeded_queries,
                         serve_http)
from repro.serve.loadgen import _summary


@pytest.fixture(scope="module")
def store(small_itm, small_scenario):
    return MapStore.from_map(small_itm, graph=small_scenario.graph)


@pytest.fixture(scope="module")
def server(store):
    service = MapService(store)
    httpd = serve_http(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)


def _get(server, path):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return (response.status, json.load(response),
                    response.headers.get("X-Map-Digest"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), \
            exc.headers.get("X-Map-Digest")


def _variant_store(small_itm, small_scenario):
    """A second store with a different digest: one activity weight moved
    (legal content, same shape)."""
    payload = map_to_dict(small_itm)
    target = next(iter(payload["users"]["activity_by_prefix"]))
    payload["users"]["activity_by_prefix"][target] *= 0.5
    variant = map_from_dict(
        payload, atlas=small_scenario.atlas,
        prefix_asn=small_scenario.prefixes.asn_array)
    return MapStore.from_map(variant, graph=small_scenario.graph)


class TestEndpoints:
    def test_health(self, server, store):
        status, body, digest = _get(server, "/v1/health")
        assert status == 200
        assert body == {"status": "ok", "digest": store.digest,
                        "format_version": store.format_version}
        assert digest == store.digest

    def test_map_summary(self, server, store, small_itm):
        status, body, __ = _get(server, "/v1/map")
        assert status == 200
        assert body["digest"] == store.digest
        assert body["format_version"] == 2
        assert body["counts"] == store.counts()
        assert body["degraded_components"] == []
        assert body["caveats"] == []
        assert body["route_predictability"] == \
            small_itm.routes.predictability

    def test_cdf_matches_reference(self, server, store, small_itm):
        target = int(store.route_targets()[0])
        status, body, __ = _get(server, f"/v1/cdf?as={target}")
        assert status == 200
        (result,) = body["results"]
        ref = uc.map_path_length_contrast(small_itm, target)
        assert result["weighted"]["points"] == \
            [[x, f] for x, f in ref.weighted.points()]
        assert result["unweighted"]["points"] == \
            [[x, f] for x, f in ref.unweighted.points()]
        assert result["weighted"]["median"] == ref.weighted.median
        assert result["weighted"]["mean"] == ref.weighted.mean()
        assert result["median_shift"] == ref.median_shift()
        assert result["samples"] == len(ref.weighted)

    def test_cdf_batch_equals_singles(self, server, store):
        targets = [int(a) for a in store.route_targets()[:3]]
        batched = _get(server,
                       "/v1/cdf?as=" + ",".join(map(str, targets)))[1]
        singles = [_get(server, f"/v1/cdf?as={t}")[1]["results"][0]
                   for t in targets]
        assert batched["results"] == singles

    def test_cdf_weighted_selector(self, server, store):
        target = int(store.route_targets()[0])
        both = _get(server, f"/v1/cdf?as={target}")[1]["results"][0]
        weighted = _get(server,
                        f"/v1/cdf?as={target}&weighted=true")[1]
        unweighted = _get(server,
                          f"/v1/cdf?as={target}&weighted=false")[1]
        assert weighted["results"][0]["weighted"] == both["weighted"]
        assert "unweighted" not in weighted["results"][0]
        assert unweighted["results"][0]["unweighted"] == \
            both["unweighted"]
        assert "weighted" not in unweighted["results"][0]

    def test_outage_matches_reference(self, server, store, small_itm,
                                      small_scenario):
        asn = int(store.act_asns[0])
        status, body, __ = _get(server, f"/v1/outage?asn={asn}")
        assert status == 200
        analyzer = uc.OutageImpactAnalyzer(
            small_itm, small_scenario.prefixes, small_scenario.graph)
        ref = analyzer.assess_as_outage(asn)
        report = body["report"]
        assert report["asn"] == ref.asn
        assert report["activity_share"] == ref.activity_share
        assert report["affected_prefix_count"] == \
            ref.affected_prefix_count
        assert report["affected_services"] == \
            list(ref.affected_services)
        assert report["alternate_transit"] == ref.alternate_transit
        assert report["rerouted_service_asns"] == {
            str(k): v for k, v in ref.rerouted_service_asns.items()}
        assert report["headline"] == ref.headline()

    def test_outage_hypergiant(self, server, store):
        org = store.organizations[0]
        status, body, __ = _get(
            server, "/v1/outage?hypergiant=" + urllib.parse.quote(org))
        assert status == 200
        assert body["hypergiant"] == org
        assert tuple(body["asns"]) == store.hypergiant_asns(org)
        assert body["kind"] in ("as", "region")

    def test_anycast_matches_reference(self, server, store, small_itm):
        key = store.service_keys[0]
        pid = int(store.svc_clients[0][0])
        status, body, __ = _get(
            server, f"/v1/anycast?service={urllib.parse.quote(key)}"
                    f"&prefix={pid}&k=2")
        assert status == 200
        ref = uc.anycast_site_candidates(small_itm, key, pid, k=2)
        assert body["host_prefix"] == ref.host_pid
        assert body["host_asn"] == ref.host_asn
        assert body["organization"] == ref.organization
        assert [(c["prefix_id"], c["asn"], c["distance_km"])
                for c in body["candidates"]] == \
            [(c.prefix_id, c.asn, c.distance_km) for c in ref.candidates]


class TestErrors:
    def test_unknown_endpoint_404(self, server):
        assert _get(server, "/v1/nope")[0] == 404

    def test_unknown_as_404(self, server):
        status, body, __ = _get(server, "/v1/cdf?as=999999999")
        assert status == 404
        assert "routes" in body["error"]

    def test_missing_params_400(self, server):
        assert _get(server, "/v1/cdf")[0] == 400
        assert _get(server, "/v1/anycast?service=x")[0] == 400
        assert _get(server, "/v1/outage")[0] == 400

    def test_conflicting_outage_params_400(self, server):
        assert _get(server, "/v1/outage?asn=1&hypergiant=x")[0] == 400

    def test_malformed_params_400(self, server):
        assert _get(server, "/v1/cdf?as=abc")[0] == 400
        assert _get(server, "/v1/cdf?as=1&weighted=maybe")[0] == 400
        assert _get(server, "/v1/anycast?service=x&prefix=zz")[0] == 400
        key = "anything"
        assert _get(server, f"/v1/anycast?service={key}"
                            f"&prefix=1&k=-1")[0] == 400

    def test_post_is_405(self, server):
        url = f"http://127.0.0.1:{server.server_port}/v1/health"
        request = urllib.request.Request(url, data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 405


GET_ENDPOINTS = ("/v1/health", "/v1/healthz", "/v1/readyz", "/v1/map",
                 "/v1/cdf", "/v1/outage", "/v1/anycast")


class TestMalformedHttp:
    """Malformed requests over a real socket must answer structured
    4xx JSON — never a 500, never a hung or torn connection."""

    def test_post_to_every_get_endpoint_is_405(self, server):
        for path in GET_ENDPOINTS:
            url = f"http://127.0.0.1:{server.server_port}{path}"
            request = urllib.request.Request(url, data=b"{}",
                                             method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 405, path

    def test_unknown_paths_structured_404(self, server):
        for path in ("/", "/v1", "/v2/cdf", "/v1/cdf/extra",
                     "/v1/unknown"):
            status, body, __ = _get(server, path)
            assert status == 404, path
            assert "error" in body, path

    def test_bad_params_never_500(self, server):
        bad = ("/v1/cdf", "/v1/cdf?as=", "/v1/cdf?as=abc",
               "/v1/cdf?as=1,,2", "/v1/cdf?as=1&weighted=maybe",
               "/v1/outage", "/v1/outage?asn=abc",
               "/v1/outage?asn=1&hypergiant=x",
               "/v1/anycast", "/v1/anycast?service=x",
               "/v1/anycast?service=x&prefix=zz",
               "/v1/anycast?service=x&prefix=1&k=-1",
               "/v1/anycast?service=x&prefix=1&k=abc")
        for path in bad:
            status, body, __ = _get(server, path)
            assert 400 <= status < 500, path
            assert "error" in body, path

    def test_oversized_cdf_batch_400(self, server):
        from repro.serve.service import MAX_CDF_BATCH
        batch = ",".join(str(i + 1) for i in range(MAX_CDF_BATCH + 1))
        status, body, __ = _get(server, f"/v1/cdf?as={batch}")
        assert status == 400
        assert "exceeds" in body["error"]

    def test_probes_answer_without_params(self, server, store):
        status, body, __ = _get(server, "/v1/healthz")
        assert (status, body) == (200, {"status": "alive"})
        status, body, __ = _get(server, "/v1/readyz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["digest"] == store.digest
        assert body["reasons"] == []

    def test_post_body_is_not_parsed_as_next_request(self, server):
        """A 405 leaves the request body unread, so the server must
        close the connection: one response, then EOF. Kept open, the
        body would be parsed and answered as a second request."""
        smuggled = b"GET /v1/map HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (b"POST /v1/health HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(smuggled)
                   + smuggled)
        with socket.create_connection(
                ("127.0.0.1", server.server_port), timeout=5) as sock:
            sock.sendall(request)
            received = b""
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except socket.timeout:
                pytest.fail("connection left open after the 405: "
                            f"{received!r}")
        assert received.startswith(b"HTTP/1.1 405 "), received
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert b"\r\nConnection: close\r\n" in received, received

    def test_slow_request_line_counts_timeout(self, store):
        recorder = Recorder()
        service = MapService(store, recorder=recorder)
        httpd = serve_http(service, port=0, request_timeout=0.2)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with socket.create_connection(
                    ("127.0.0.1", httpd.server_port), timeout=5) as sock:
                sock.sendall(b"GET /v1/health")   # never finished
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if recorder.counters.get(
                            "serve.http.timeouts"):
                        break
                    time.sleep(0.05)
            counters = recorder.counters
            assert counters.get("serve.http.timeouts", 0) >= 1
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)


class TestServiceCacheAndSwap:
    def test_cache_counters_deterministic(self, store):
        recorder = Recorder()
        service = MapService(store, recorder=recorder)
        target = int(store.route_targets()[0])
        first = service.cdf([target])
        again = service.cdf([target])
        assert first == again
        stats = service.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        counters = recorder.counters
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.requests.cdf"] == 2

    def test_batch_warms_single_entries(self, store):
        service = MapService(store)
        targets = [int(a) for a in store.route_targets()[:3]]
        service.cdf(targets)
        assert service.cache_stats().misses == len(targets)
        for target in targets:
            service.cdf([target])
        assert service.cache_stats().hits == len(targets)

    def test_errors_not_cached(self, store):
        service = MapService(store)
        for __ in range(2):
            with pytest.raises(QueryError) as excinfo:
                service.cdf([999_999_999])
            assert excinfo.value.status == 404
        assert service.cache_stats().misses == 2

    def test_hot_swap_changes_digest_and_misses(
            self, store, small_itm, small_scenario):
        service = MapService(store)
        variant = _variant_store(small_itm, small_scenario)
        assert variant.digest != store.digest
        target = int(store.route_targets()[0])
        service.cdf([target])
        assert service.swap(variant) is True
        assert service.digest == variant.digest
        service.cdf([target])   # new digest -> new cache key -> miss
        stats = service.cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)

    def test_swap_same_digest_is_noop(self, store, small_itm,
                                      small_scenario):
        service = MapService(store)
        same = MapStore.from_map(small_itm, graph=small_scenario.graph)
        assert service.swap(same) is False

    def test_same_digest_same_outage_bytes(self, tmp_path, store,
                                           small_itm, small_scenario):
        """A built map and its artefact share a digest, so they must
        serve byte-identical answers — service order included."""
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        loaded = load_store(str(artefact), small_scenario)
        assert loaded.digest == store.digest
        built, reloaded = MapService(store), MapService(loaded)
        for asn in store.act_asns.tolist():
            assert json.dumps(built.outage(asn=asn)) == \
                json.dumps(reloaded.outage(asn=asn))

    def test_swap_visible_over_http(self, store, small_itm,
                                    small_scenario):
        service = MapService(store)
        httpd = serve_http(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            assert _get(httpd, "/v1/health")[1]["digest"] == store.digest
            variant = _variant_store(small_itm, small_scenario)
            service.swap(variant)
            status, body, header = _get(httpd, "/v1/health")
            assert body["digest"] == variant.digest
            assert header == variant.digest
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)


class TestWatcher:
    def test_poll_swaps_on_rewrite(self, tmp_path, store, small_itm,
                                   small_scenario):
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        service = MapService(load_store(str(artefact), small_scenario))
        watcher = ArtefactWatcher(service, str(artefact), small_scenario,
                                  interval=60)
        assert watcher.poll_once() is False   # unchanged

        payload = map_to_dict(small_itm)
        target = next(iter(payload["users"]["activity_by_prefix"]))
        payload["users"]["activity_by_prefix"][target] *= 0.5
        artefact.write_text(json.dumps(payload))
        before = service.digest
        assert watcher.poll_once() is True
        assert service.digest != before

    def test_broken_rewrite_keeps_serving(self, tmp_path, store,
                                          small_itm, small_scenario):
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        service = MapService(load_store(str(artefact), small_scenario))
        digest = service.digest
        artefact.write_text("{ truncated")
        assert watcher_poll(service, artefact, small_scenario) is False
        assert service.digest == digest
        assert service.health()["status"] == "ok"

    def test_stop_joins_poll_thread(self, tmp_path, small_itm,
                                    small_scenario):
        """stop() must join the poll thread — no leaked threads."""
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        service = MapService(load_store(str(artefact), small_scenario))
        before = set(threading.enumerate())
        watcher = ArtefactWatcher(service, str(artefact), small_scenario,
                                  interval=0.05)
        watcher.start()
        assert watcher.is_alive()
        watcher.stop()
        assert not watcher.is_alive()
        leaked = [t for t in threading.enumerate()
                  if t not in before and t.is_alive()]
        assert leaked == []

    def test_missing_artefact_raises_artefact_error(self, tmp_path,
                                                    small_scenario):
        with pytest.raises(MapArtefactError):
            load_store(str(tmp_path / "absent.json"), small_scenario)
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 99}')
        with pytest.raises(MapArtefactError):
            load_store(str(bad), small_scenario)

    def test_wrong_seed_artefact_refused(self, tmp_path, small_itm,
                                         small_scenario):
        """An artefact is served only over the world of the seed it
        records: another seed's prefix table and AS graph would answer
        cross-component queries wrongly under the same digest. A
        watcher reload of such an artefact is a watch error."""
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        other = build_scenario(ScenarioConfig.small(seed=7))
        with pytest.raises(MapArtefactError, match="seed"):
            load_store(str(artefact), other)
        recorder = Recorder()
        service = MapService(load_store(str(artefact), small_scenario),
                             recorder=recorder)
        watcher = ArtefactWatcher(service, str(artefact), other,
                                  interval=60)
        watcher._signature = None
        assert watcher.poll_once() is False
        assert recorder.counters["serve.watch.errors"] == 1

    def test_hand_edited_artefact_is_a_watch_error(self, tmp_path,
                                                   small_itm,
                                                   small_scenario):
        """A reload of an artefact whose values the decoders cannot
        convert is refused like any other bad artefact: the watcher
        keeps serving the old map instead of dying on the exception."""
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        recorder = Recorder()
        service = MapService(load_store(str(artefact), small_scenario),
                             recorder=recorder)
        payload = json.loads(map_to_json(small_itm))
        activity = payload["users"]["activity_by_as"]
        activity["x" + next(iter(activity))] = 1.0
        artefact.write_text(json.dumps(payload, sort_keys=True,
                                       separators=(",", ":")))
        watcher = ArtefactWatcher(service, str(artefact), small_scenario,
                                  interval=60)
        watcher._signature = None
        assert watcher.poll_once() is False
        assert recorder.counters["serve.watch.errors"] == 1


def watcher_poll(service, artefact, scenario) -> bool:
    """One watcher poll against a freshly-constructed watcher whose
    baseline signature predates the rewrite."""
    watcher = ArtefactWatcher(service, str(artefact), scenario,
                              interval=60)
    watcher._signature = None
    return watcher.poll_once()


class TestLoadgen:
    def test_seeded_stream_deterministic(self, store):
        first = seeded_queries(store, 100, seed=3)
        assert first == seeded_queries(store, 100, seed=3)
        assert first != seeded_queries(store, 100, seed=4)

    def test_replay_summary_shape(self, store):
        service = MapService(store)
        queries = seeded_queries(store, 120, seed=3)
        summary = replay(service, queries)
        assert summary["queries"] == 120
        assert summary["http_errors"] == 0
        assert summary["shed"] == 0
        assert summary["retries"] == 0
        assert summary["qps"] > 0
        assert summary["latency_ms"]["p50"] <= \
            summary["latency_ms"]["p99"] <= summary["latency_ms"]["max"]
        stats = service.cache_stats()
        assert summary["cache"]["hits"] == stats.hits
        assert stats.hits + stats.misses > 0

    def test_summary_p99_never_exceeds_max(self):
        # 63573266 ns: p99 read in seconds and scaled to ms once came
        # out one ulp above max computed straight from nanoseconds.
        latency = _summary([63573266], 1.0)["latency_ms"]
        assert latency["p50"] <= latency["p99"] <= latency["max"]

    def test_replay_http_agrees_with_service(self, server, store):
        queries = seeded_queries(store, 40, seed=9)
        base = f"http://127.0.0.1:{server.server_port}"
        summary = replay_http(base, queries)
        assert summary["queries"] == 40
        assert summary["http_errors"] == 0
        assert summary["shed"] == 0


def _mixed_queries(store):
    """Two answered CDF queries, then refusals of every kind (400,
    404), for the HTTP-equals-handle checks."""
    target = str(int(store.route_targets()[0]))
    key = store.service_keys[0]
    pid = str(int(store.svc_clients[0][0]))
    org = store.organizations[0]
    return [
        Query("cdf", (("as", target), ("weighted", "true"))),
        Query("cdf", (("as", target), ("weighted", "false"))),
        Query("cdf", (("as", "x"),)),
        Query("cdf", ()),
        Query("anycast", (("service", key), ("prefix", pid),
                          ("k", "-1"))),
        Query("anycast", (("service", "no-such-service"),
                          ("prefix", pid))),
        Query("outage", (("asn", target), ("hypergiant", org))),
        Query("no-such-endpoint", ()),
    ]


def _expected(reply):
    """``(status, json.dumps(<the reply's dict>))``: what HTTP must send
    for a ``handle`` reply, re-encoded from the decoded dict so a body
    that is not ``json.dumps``'s default encoding fails the compare."""
    return reply.status, json.dumps(json.loads(reply.body)).encode()


class TestOneRequestPath:
    """HTTP and the in-process drivers answer through one path,
    ``MapService.handle``: the same query gets the same status and the
    same body bytes whichever way it is sent."""

    def test_http_equals_handle(self, server, store):
        service = server.service
        statuses = []
        bodies = []
        for query in _mixed_queries(store):
            url = (f"http://127.0.0.1:{server.server_port}"
                   f"{query.url_path()}")
            try:
                with urllib.request.urlopen(url, timeout=30) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:
                status, body = exc.code, exc.read()
            reply = service.handle(query.url_path())
            assert (status, body) == _expected(reply), query
            statuses.append(status)
            bodies.append(body)
        assert statuses == [200, 200, 400, 400, 400, 404, 400, 404]
        target = int(store.route_targets()[0])
        weighted, unweighted = (service.cdf([target], weighted=flag)
                                for flag in (True, False))
        assert bodies[:2] == [json.dumps(weighted).encode(),
                              json.dumps(unweighted).encode()]
        weighted, unweighted = (weighted["results"][0],
                                unweighted["results"][0])
        assert "weighted" in weighted and "unweighted" not in weighted
        assert "unweighted" in unweighted and "weighted" not in unweighted
        assert "median_shift" not in weighted

    def test_second_pass_encodes_nothing(self, store, monkeypatch):
        """Every answer is encoded once, on its cache miss: replaying
        the stream again sends the cached bytes, identical to the first
        pass, without a single answer encode."""
        from repro.serve import service as service_module
        encode = service_module._encode_answer
        encodes = []

        def spy(answer):
            encodes.append(answer)
            return encode(answer)

        monkeypatch.setattr(service_module, "_encode_answer", spy)
        service = MapService(store)
        queries = seeded_queries(store, 300, seed=7)
        first = [service.handle(q.url_path()) for q in queries]
        misses = service.cache_stats().misses
        assert len(encodes) == misses > 0
        encodes.clear()
        second = [service.handle(q.url_path()) for q in queries]
        assert encodes == []
        assert [(r.status, r.body) for r in second] == \
            [(r.status, r.body) for r in first]
        assert all(r.status == 200 for r in first)

    def test_batch_never_mixes_maps_across_swap(self, store, small_itm,
                                                small_scenario):
        """A hot swap landing between two targets of one batched
        ``/v1/cdf`` must not splice two maps into one body: the body is
        one map's answer and ``X-Map-Digest`` names that map."""
        payload = map_to_dict(small_itm)
        activity = payload["users"]["activity_by_as"]
        for asn in activity:    # reweight every client AS
            activity[asn] *= 1.0 + (int(asn) % 7) / 10.0
        variant = MapStore.from_map(
            map_from_dict(payload, atlas=small_scenario.atlas,
                          prefix_asn=small_scenario.prefixes.asn_array),
            graph=small_scenario.graph)
        a, b = (int(t) for t in store.route_targets()[:2])
        old = MapService(store).cdf([a, b])
        new = MapService(variant).cdf([a, b])
        assert old["results"][0] != new["results"][0]
        assert old["results"][1] != new["results"][1]

        class SwapOnSecondTarget:
            """Duck-typed chaos: swaps the map under the batch."""

            def __init__(self):
                self.answers = 0

            def on_answer(self, service, endpoint):
                self.answers += 1
                if self.answers == 2:
                    service.swap(variant)

            def client_disconnect(self):
                return False

        service = MapService(store, chaos=SwapOnSecondTarget())
        httpd = serve_http(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            url = (f"http://127.0.0.1:{httpd.server_port}"
                   f"/v1/cdf?as={a},{b}")
            with urllib.request.urlopen(url, timeout=30) as response:
                body = response.read()
                header = response.headers.get("X-Map-Digest")
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
        assert service.digest == variant.digest
        assert (body, header) in (
            (json.dumps(old).encode(), store.digest),
            (json.dumps(new).encode(), variant.digest))

    def test_replay_counts_malformed_query(self, store):
        summary = replay(MapService(store), [Query("cdf", (("as", "x"),))])
        assert summary["http_errors"] == 1
        assert summary["queries"] == 1


@pytest.mark.perf_smoke
class TestKeepAlive:
    """Many requests over one persistent connection, the way a
    dashboard or the benchmark's clients talk to the server."""

    def test_sequential_requests_are_not_delayed(self, server):
        """Without TCP_NODELAY each keep-alive response waits ~40 ms
        for the client's delayed ACK (~1.7 s for 40 requests); a
        one-shot ``urllib`` connection never shows it."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=30)
        try:
            start = time.perf_counter()
            for __ in range(40):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.8, f"40 keep-alive requests took {elapsed:.2f} s"

    def test_reused_connection_equals_handle(self, server, store):
        """Error replies (400/404) keep the connection reusable and
        correctly framed: every answer on the one connection byte-matches
        ``MapService.handle``."""
        service = server.service
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=30)
        try:
            conn.connect()
            sock = conn.sock
            for query in _mixed_queries(store):
                conn.request("GET", query.url_path())
                response = conn.getresponse()
                status, body = response.status, response.read()
                reply = service.handle(query.url_path())
                assert (status, body) == _expected(reply), query
                assert conn.sock is sock, f"connection closed after {query}"
        finally:
            conn.close()


def _http(base, target):
    """``(status, content type, body)`` of one GET, refusals included."""
    try:
        with urllib.request.urlopen(base + target, timeout=30) as response:
            return (response.status, response.headers["Content-Type"],
                    response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.headers["Content-Type"], exc.read()


def _logged(store, path, drive, clock=None):
    """Drive a fresh service with an access log at ``path`` attached;
    returns the log's records."""
    telemetry = LiveTelemetry(clock=clock, access_log=AccessLog(path))
    try:
        drive(MapService(store, telemetry=telemetry))
    finally:
        telemetry.access_log.close()
    records, malformed = load_access_log(path)
    assert malformed == 0
    return records


class TestObservationPoint:
    """``MapService.handle`` is the one place a request is timed, given
    an id and observed, whichever driver sends it, and it answers the
    ungated, unobserved ``/v1/metricsz`` scrape itself."""

    def test_metricsz_through_handle(self, store):
        recorder = Recorder()
        service = MapService(store, recorder=recorder,
                             telemetry=LiveTelemetry(clock=VirtualClock()))
        service.handle("/v1/map")
        before = (service.telemetry.latency_snapshot(),
                  service.telemetry.window_snapshot(),
                  dict(recorder.counters))
        text, as_json, xml = (service.handle(f"/v1/metricsz{query}")
                              for query in ("", "?format=json",
                                            "?format=xml"))
        assert (text.status, text.content_type) == (
            200, "text/plain; version=0.0.4; charset=utf-8")
        assert b"repro_serve_latency_seconds_bucket" in text.body
        assert (as_json.status, as_json.content_type) == (
            200, "application/json")
        assert json.loads(as_json.body) == service.metrics_snapshot()
        assert (xml.status, xml.content_type) == (400, "application/json")
        assert "unknown format" in json.loads(xml.body)["error"]
        assert (service.telemetry.latency_snapshot(),
                service.telemetry.window_snapshot(),
                dict(recorder.counters)) == before
        assert len({r.request_id for r in (text, as_json, xml)}) == 3

    def test_metricsz_http_equals_handle(self, server):
        """Status and content type only: the body moves with the
        counters."""
        base = f"http://127.0.0.1:{server.server_port}"
        for target in ("/v1/metricsz", "/v1/metricsz?format=json",
                       "/v1/metricsz?format=xml",
                       "/v1/metricsz?format=json&format=text"):
            status, content_type, __ = _http(base, target)
            reply = server.service.handle(target)
            assert (status, content_type) == (
                reply.status, reply.content_type), target

    def test_every_driver_logs_status_path_and_id(self, store, tmp_path):
        """The same queries through HTTP, ``replay`` and ``run_chaos``
        (no gate, no chaos) leave one access-log record per request,
        each with its status, its request id and its real path."""
        queries = seeded_queries(store, 40, seed=13)

        def over_http(service):
            httpd = serve_http(service, port=0)
            thread = threading.Thread(target=httpd.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                replay_http(f"http://127.0.0.1:{httpd.server_port}",
                            queries)
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=10)

        clock = VirtualClock()
        logs = [_logged(store, tmp_path / "http.jsonl", over_http),
                _logged(store, tmp_path / "replay.jsonl",
                        lambda service: replay(service, queries)),
                _logged(store, tmp_path / "chaos.jsonl",
                        lambda service: run_chaos(service, queries, 100.0,
                                                  seed=3, clock=clock),
                        clock=clock)]
        paths = [urllib.parse.urlsplit(q.url_path()).path for q in queries]
        for records in logs:
            assert [r["path"] for r in records] == paths
            assert all(r["status"] is not None for r in records)
            assert all(r["request_id"] is not None for r in records)
            assert len({r["request_id"] for r in records}) == len(queries)
        assert [r["status"] for r in logs[0]] == \
            [r["status"] for r in logs[1]] == [r["status"] for r in logs[2]]

    def test_bug_is_observed_once_and_propagates(self, store,
                                                 monkeypatch):
        """An exception that is not a refusal is observed once, as an
        error, by ``handle``; it propagates to the in-process drivers
        and HTTP answers it 500 with the request's id, which rides on
        the exception."""
        def broken(self, store, path, params):
            raise RuntimeError("boom")

        monkeypatch.setattr(MapService, "_route", broken)
        service = MapService(store)
        with pytest.raises(RuntimeError, match="boom") as bug:
            service.handle("/v1/map")
        assert bug.value.request_id == "req-1"
        with pytest.raises(RuntimeError, match="boom"):
            replay(service, [Query("map", ())])
        with pytest.raises(RuntimeError, match="boom"):
            run_chaos(service, [Query("map", ())], 10.0)
        httpd = serve_http(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{httpd.server_port}/v1/map",
                headers={"X-Request-Id": "trace-500"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
        with excinfo.value as response:
            assert response.code == 500
            assert response.headers["X-Request-Id"] == "trace-500"
        assert service.telemetry.latency_snapshot()["map"]["error"][
            "count"] == 4


class TestCli:
    def test_missing_artefact_exits_bad_map(self, tmp_path, capsys):
        code = main(["serve", "--map-json",
                     str(tmp_path / "absent.json")])
        assert code == EXIT_BAD_MAP
        err = capsys.readouterr().err
        assert err.count("\n") <= 2
        assert "cannot serve" in err and "hint" in err

    def test_incompatible_artefact_exits_bad_map(self, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 99}')
        assert main(["serve", "--map-json", str(bad)]) == EXIT_BAD_MAP
        assert "unsupported map format" in capsys.readouterr().err

    def test_wrong_seed_artefact_exits_bad_map(self, tmp_path,
                                               small_itm, capsys):
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        # A server that wrongly starts exits at once: no request awaited.
        assert main(["--seed", "7", "serve", "--map-json", str(artefact),
                     "--port", "0", "--max-requests", "0"]) == EXIT_BAD_MAP
        err = capsys.readouterr().err
        assert "seed" in err and "hint" in err

    def test_watch_requires_map_json(self, capsys):
        assert main(["serve", "--watch"]) == 2
        assert "--watch requires --map-json" in capsys.readouterr().err

    def test_serve_artefact_over_http(self, tmp_path, small_itm, store,
                                      monkeypatch):
        """End to end through the CLI: serve an artefact, answer real
        requests, exit cleanly after --max-requests."""
        import repro.serve as serve_pkg
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        holder = {}
        original = serve_pkg.serve_http

        def capture(service, host="127.0.0.1", port=0, **kwargs):
            bound = original(service, host=host, port=port, **kwargs)
            holder["server"] = bound
            return bound

        monkeypatch.setattr(serve_pkg, "serve_http", capture)
        result = {}
        thread = threading.Thread(
            target=lambda: result.setdefault("code", main(
                ["serve", "--map-json", str(artefact), "--port", "0",
                 "--max-requests", "2"])))
        thread.start()
        try:
            for __ in range(1200):   # scenario build takes a while
                if "server" in holder or not thread.is_alive():
                    break
                thread.join(timeout=0.1)
            assert "server" in holder, "server never started"
            status, body, __ = _get(holder["server"], "/v1/health")
            assert status == 200
            assert body["digest"] == store.digest
            assert _get(holder["server"], "/v1/map")[0] == 200
        finally:
            thread.join(timeout=60)
        assert result["code"] == 0
        assert not thread.is_alive()
