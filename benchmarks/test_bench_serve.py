"""Serving-layer load test: seeded query replay with committed gates.

The query service's promise is that it is cheap enough to sit next to
the measurement loop. This bench replays a seeded 2000-query stream
(the same mix :mod:`repro.serve.loadgen` gives the CI smoke job)
against an in-process :class:`~repro.serve.service.MapService` over the
small map and gates three things:

* **correctness under load** — zero query errors, and the answer
  cache's hit/miss counters land exactly where the stream's key
  arithmetic says they must (every miss is a unique
  ``(digest, endpoint, params)`` key, every repeat is a hit — the
  committed baseline locks the exact numbers, so a cache-keying or
  stream-generation change cannot slip through as "roughly the same
  hit rate");
* **latency** — p99 at or under a committed ceiling;
* **throughput** — queries/sec at or above a committed floor.

A second test replays the head of the same stream over one keep-alive
HTTP connection to an in-thread :class:`~repro.serve.http.QueryServer`
and gates its p50 under a ceiling: a transport regression (e.g. the
40 ms Nagle x delayed-ACK stall that ``TCP_NODELAY`` removes) shows up
there, never in the in-process replay. A third splits the whole stream
across eight concurrent keep-alive clients and gates the aggregate
qps over a floor, with every answer a 200 naming the served map.

The latency/throughput gates are deliberately loose (shared CI boxes),
the counter gates exact (deterministic by construction). The manifest
check closes the acceptance loop: the ``serve.cache.*`` counters and a
``serve.loadgen.*`` gauge set must be visible in the instrumented
build's run manifest.

Set ``REPRO_SERVE_SUMMARY=PATH`` to also write the replay summary JSON
(the CI smoke job uploads it as an artifact). Regenerate the baseline
after an intentional change with::

    REPRO_UPDATE_BASELINES=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_serve.py -q
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import ScenarioConfig, build_scenario
from repro.core.builder import MapBuilder
from repro.core.mapstore import MapStore
from repro.obs import Recorder
from repro.serve import (MapService, Query, replay, seeded_queries,
                         serve_http)

BASELINE = Path(__file__).parent / "baselines" / "serve-loadgen.json"

SEED = 20211110
N_QUERIES = 2000
QPS_FLOOR = 500.0
P99_CEILING_MS = 50.0
HTTP_QUERIES = 500
HTTP_P50_CEILING_MS = 10.0
AGGREGATE_CLIENTS = 8
AGGREGATE_QPS_FLOOR = 250.0


def expected_cache_traffic(queries: List[Query]) -> Tuple[int, int]:
    """(lookups, unique keys) the stream must produce on the answer
    cache — the arithmetic the counters are gated against.

    ``health`` never touches the cache; a batched CDF query does one
    lookup per target AS; everything else is one lookup under its
    parameter tuple.
    """
    lookups = 0
    seen = set()
    for query in queries:
        params = dict(query.params)
        if query.endpoint == "health":
            continue
        if query.endpoint == "cdf":
            for asn in params["as"].split(","):
                lookups += 1
                seen.add(("cdf", int(asn)))
            continue
        lookups += 1
        if query.endpoint == "map":
            seen.add(("map",))
        elif query.endpoint == "outage":
            seen.add(("outage", params.get("asn"),
                      params.get("hypergiant")))
        else:
            seen.add(("anycast", params["service"], params["prefix"],
                      params["k"]))
    return lookups, len(seen)


def test_serve_loadgen_gates():
    scenario = build_scenario(ScenarioConfig.small(seed=SEED))
    recorder = Recorder()
    builder = MapBuilder(scenario, recorder=recorder)
    itm = builder.build()
    store = MapStore.from_map(itm, graph=scenario.graph)
    service = MapService(store, recorder=recorder, cache_entries=4096)

    queries = seeded_queries(store, N_QUERIES, seed=SEED)
    summary = replay(service, queries)

    # -- correctness under load (exact, deterministic) -------------------
    assert summary["http_errors"] == 0, summary
    assert summary["shed"] == 0, summary
    lookups, unique = expected_cache_traffic(queries)
    cache = summary["cache"]
    assert cache["evictions"] == 0, \
        "cache too small for the stream: hit counters not comparable"
    assert (cache["misses"], cache["hits"]) == \
        (unique, lookups - unique), (
        f"cache counters off: expected {unique} misses / "
        f"{lookups - unique} hits, got {cache['misses']} / "
        f"{cache['hits']}")

    # -- latency / throughput gates --------------------------------------
    p99 = summary["latency_ms"]["p99"]
    assert p99 <= P99_CEILING_MS, (
        f"p99 latency {p99:.2f} ms over the {P99_CEILING_MS} ms ceiling")
    assert summary["qps"] >= QPS_FLOOR, (
        f"{summary['qps']:.0f} qps under the {QPS_FLOOR:.0f} qps floor")

    # -- counters visible in the run manifest ----------------------------
    recorder.gauge("serve.loadgen.queries", summary["queries"])
    recorder.gauge("serve.loadgen.qps", summary["qps"])
    recorder.gauge("serve.loadgen.p99_ms", p99)
    manifest = builder.manifest(command="bench-serve",
                                scale="small").to_dict()
    counters: Dict[str, float] = manifest["counters"]
    assert counters["serve.cache.hits"] == cache["hits"]
    assert counters["serve.cache.misses"] == cache["misses"]
    hit_rate = cache["hits"] / (cache["hits"] + cache["misses"])
    assert abs(cache["hit_rate"] - hit_rate) < 1e-12
    for endpoint in ("cdf", "outage", "anycast", "map", "health"):
        assert f"serve.requests.{endpoint}" in counters
    assert manifest["gauges"]["serve.loadgen.qps"] == summary["qps"]

    print(f"\nserve loadgen: {summary['queries']} queries, "
          f"{summary['qps']:.0f} qps, p50 "
          f"{summary['latency_ms']['p50']:.3f} ms, p99 {p99:.3f} ms, "
          f"cache {cache['hits']}/{lookups} hits "
          f"({cache['hit_rate']:.0%})")

    summary_path = os.environ.get("REPRO_SERVE_SUMMARY")
    if summary_path:
        with open(summary_path, "w") as handle:
            json.dump({"digest": store.digest, "seed": SEED,
                       "stream": {"queries": N_QUERIES,
                                  "lookups": lookups,
                                  "unique_keys": unique},
                       "summary": summary}, handle, indent=2)
            handle.write("\n")
        print(f"wrote loadgen summary to {summary_path}")

    deterministic = {
        "scale": "small",
        "seed": SEED,
        "queries": N_QUERIES,
        "cache_lookups": lookups,
        "unique_keys": unique,
        "http_errors": 0,
        "shed": 0,
        "qps_floor": QPS_FLOOR,
        "p99_ms_ceiling": P99_CEILING_MS,
    }
    if os.environ.get("REPRO_UPDATE_BASELINES"):
        BASELINE.write_text(json.dumps(deterministic, indent=2) + "\n")
        print(f"baseline rewritten: {BASELINE}")
        return
    baseline = json.loads(BASELINE.read_text())
    assert baseline == deterministic, (
        "serve loadgen drifted from the committed baseline "
        f"({BASELINE}): expected {baseline}, got {deterministic}; "
        "regenerate with REPRO_UPDATE_BASELINES=1 if intentional")


@pytest.fixture(scope="module")
def small_store():
    scenario = build_scenario(ScenarioConfig.small(seed=SEED))
    itm = MapBuilder(scenario).build()
    return MapStore.from_map(itm, graph=scenario.graph)


def test_http_keepalive_p50_gate(small_store):
    """The seeded stream's first queries over one keep-alive
    ``http.client`` connection: every answer a 200, p50 under the
    ceiling (a ~44 ms p50 here means the delayed-ACK stall is back)."""
    store = small_store
    httpd = serve_http(MapService(store, cache_entries=4096), port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", httpd.server_port,
                                      timeout=30)
    latencies_ms = []
    refused = []
    try:
        for query in seeded_queries(store, N_QUERIES,
                                    seed=SEED)[:HTTP_QUERIES]:
            start = time.perf_counter()
            conn.request("GET", query.url_path())
            response = conn.getresponse()
            response.read()
            latencies_ms.append((time.perf_counter() - start) * 1e3)
            if response.status != 200:
                refused.append((query.url_path(), response.status))
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)

    assert not refused, refused
    p50 = statistics.median(latencies_ms)
    print(f"\nserve http keep-alive: {len(latencies_ms)} queries, "
          f"p50 {p50:.3f} ms")
    assert p50 <= HTTP_P50_CEILING_MS, (
        f"keep-alive HTTP p50 {p50:.2f} ms over the "
        f"{HTTP_P50_CEILING_MS} ms ceiling")


def test_http_aggregate_qps_gate(small_store):
    """The whole seeded stream split across eight keep-alive
    ``http.client`` connections replaying at once: every answer a 200
    whose ``X-Map-Digest`` names the served map, and the aggregate
    queries/sec over the floor."""
    store = small_store
    queries = seeded_queries(store, N_QUERIES, seed=SEED)
    httpd = serve_http(MapService(store, cache_entries=4096), port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    start = threading.Barrier(AGGREGATE_CLIENTS + 1, timeout=30)
    wrong: List[Tuple[str, int, str]] = []
    done: List[int] = []

    def client(share: List[Query]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", httpd.server_port,
                                          timeout=30)
        try:
            conn.connect()
            start.wait()
            for query in share:
                conn.request("GET", query.url_path())
                response = conn.getresponse()
                response.read()
                digest = response.getheader("X-Map-Digest")
                if response.status != 200 or digest != store.digest:
                    wrong.append((query.url_path(), response.status,
                                  digest))
            done.append(len(share))
        finally:
            conn.close()

    clients = [threading.Thread(target=client,
                                args=(queries[i::AGGREGATE_CLIENTS],))
               for i in range(AGGREGATE_CLIENTS)]
    try:
        for worker in clients:
            worker.start()
        start.wait()
        began = time.perf_counter()
        for worker in clients:
            worker.join()
        wall_s = time.perf_counter() - began
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)

    assert not wrong, wrong[:5]
    assert sum(done) == N_QUERIES, f"{sum(done)} of {N_QUERIES} answered"
    qps = N_QUERIES / wall_s
    print(f"\nserve http aggregate: {AGGREGATE_CLIENTS} keep-alive "
          f"clients, {N_QUERIES} queries, {qps:.0f} qps")
    assert qps >= AGGREGATE_QPS_FLOOR, (
        f"{AGGREGATE_CLIENTS}-client aggregate {qps:.0f} qps under the "
        f"{AGGREGATE_QPS_FLOOR:.0f} qps floor")
