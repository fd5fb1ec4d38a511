"""Serve-side workloads: ``serve-hot`` and ``serve-cold``.

The map is built in this process, written as a JSON artefact and served
by ``repro serve --map-json`` in a process of its own. This process is
the client: a closed loop of :data:`CLIENTS` threads (one per core of
the reference machine), each waiting for its answer before sending the
next request.

* ``serve-hot`` — two persistent keep-alive connections replay the
  ``seeded_queries`` endpoint mix after a warm-up pass, so nearly every
  answer is an answer-cache hit: transport and encoding are the work.
* ``serve-cold`` — every request opens a new connection (as ``urllib``,
  curl and the CI smoke job do) and asks for a key never asked before:
  ``anycast`` over (service, client prefix, k) and ``outage`` over
  distinct ASes named in the map. The cache never hits, so map
  computation and connection set-up are the work.

Every response must be 200 with ``X-Map-Digest`` equal to the digest
of the map built here, and a seeded sample of bodies must equal, byte
for byte, what an in-process :class:`repro.serve.MapService` answers.

Traced runs start the server with ``--metrics`` (live counters behind
``/v1/metricsz``) and ``--access-log``, whose per-request server time
(the same value the latency histogram records) is joined to the
client's time by ``X-Request-Id``. The server's clock stops before the
response is written, so the socket write lands in the wire share.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from builds import build_layers
from harness import Context, Run, child_env, median, settle, summary, \
    tail, timed

CLIENTS = 2
HOST = "127.0.0.1"
#: ``p99_ms`` needs ten samples beyond it, so a run keeps going past its
#: nominal length until this many requests have completed ...
MIN_REQUESTS = 1010
#: ... but never longer than this many times the nominal length.
MAX_STRETCH = 3.0
#: Length of the seeded hot-query stream the clients cycle through.
HOT_QUERIES = 2000
#: One cold request in this many is an outage query (the rest anycast).
COLD_OUTAGE_EVERY = 16
#: Share of responses whose bodies are byte-compared, and their cap.
BODY_SAMPLE_RATE = 1 / 16
BODY_SAMPLE_CAP = 400
ENDPOINTS = ("cdf", "anycast", "outage", "map", "health")
SERVER_TIMEOUT_S = 60.0
#: Servers started per run; ``setup_s`` is the median of their start
#: times and the last one takes the load. (Two, not three as for the
#: builds: a start costs seconds and the run's time budget is shared.)
SPAWNS = 2


class Server:
    """One ``repro serve --map-json`` process."""

    def __init__(self, ctx: Context, artefact: Path, tag: str,
                 traced: bool) -> None:
        self.ctx = ctx
        self.dir = ctx.workdir / tag
        self.dir.mkdir()
        self.access_log = self.dir / "access.jsonl" if traced else None
        args = [sys.executable, "-m", "repro", "--scale", ctx.scale]
        if traced:
            args += ["--metrics", str(self.dir / "manifest.json")]
        args += ["serve", "--map-json", str(artefact), "--port", "0"]
        if traced:
            args += ["--access-log", str(self.access_log)]
        self._stderr = open(self.dir / "stderr.log", "w+")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                     stderr=self._stderr, env=child_env())
        self.port: Optional[int] = None

    def wait_ready(self) -> Tuple[float, str]:
        """Block until ``/v1/readyz`` answers ok; returns the seconds
        since spawn and the digest the server reports."""
        deadline = self.started + SERVER_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            if self.port is None:
                self._stderr.seek(0)
                found = re.search(r"on http://[\d.]+:(\d+)",
                                  self._stderr.read())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None:
                try:
                    status, __, body = request_once(self.port,
                                                    "/v1/readyz")
                except OSError:
                    status = None
                if status == 200:
                    took = time.perf_counter() - self.started
                    return took, json.loads(body)["digest"]
            time.sleep(0.005)
        raise RuntimeError(f"server not ready: {self.log_tail()}")

    def log_tail(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", status).group(1)
        return int(kib) / 1024.0

    def metricsz(self) -> Dict:
        __, __, body = request_once(self.port, "/v1/metricsz?format=json")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()


def request_once(port: int, path: str,
                 headers: Optional[Dict[str, str]] = None):
    """One request on a fresh connection: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=SERVER_TIMEOUT_S)
    try:
        conn.request("GET", path,
                     headers={"Connection": "close", **(headers or {})})
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


# -- query streams -----------------------------------------------------------------

def answer(service, query) -> Dict:
    """What ``/v1/<endpoint>`` answers for ``query``, in-process (the
    HTTP handler's parameter handling, restated here so the benchmark
    relies only on :class:`MapService`'s public methods)."""
    params = dict(query.params)
    endpoint = query.endpoint
    if endpoint == "health":
        return service.health()
    if endpoint == "map":
        return service.map_summary()
    if endpoint == "cdf":
        return service.cdf([int(a) for a in params["as"].split(",") if a])
    if endpoint == "outage":
        asn = params.get("asn")
        return service.outage(asn=None if asn is None else int(asn),
                              hypergiant=params.get("hypergiant"))
    if endpoint == "anycast":
        return service.anycast(params["service"], int(params["prefix"]),
                               k=int(params.get("k", 3)))
    raise ValueError(f"unknown endpoint {endpoint!r}")


def cold_streams(store, seed: int) -> List[List]:
    """One finite stream of never-repeated keys per client thread.

    Outage keys run out first (one per AS the map itself names: active
    user ASes, site ASes and route endpoints); the streams end there, so
    the endpoint mix never drifts with speed.
    """
    from repro.serve import Query
    rng = np.random.default_rng(seed)
    asns = rng.permutation(np.unique(np.concatenate([
        store.act_asns, store.site_asn, store.route_src,
        store.route_targets()])))
    n = len(asns) * COLD_OUTAGE_EVERY
    services = [(key, clients) for key, clients
                in zip(store.service_keys, store.svc_clients)
                if len(clients)]
    svc_pick = rng.integers(0, len(services), size=n)
    draws = rng.random(n)
    ks = rng.integers(1, 5, size=n)
    seen = set()
    queries = []
    for i in range(n):
        if i % COLD_OUTAGE_EVERY == COLD_OUTAGE_EVERY - 1:
            asn = int(asns[i // COLD_OUTAGE_EVERY])
            queries.append(Query("outage", (("asn", str(asn)),)))
            continue
        key, clients = services[int(svc_pick[i])]
        pid = int(clients[int(draws[i] * len(clients))])
        k = int(ks[i])
        while (key, pid, k) in seen:     # rare; keeps keys distinct
            k += 1
        seen.add((key, pid, k))
        queries.append(Query("anycast", (("service", key),
                                         ("prefix", str(pid)),
                                         ("k", str(k)))))
    return [queries[t::CLIENTS] for t in range(CLIENTS)]


# -- the load ------------------------------------------------------------------------

class Request(NamedTuple):
    """One request as the client saw it (``status`` None: no answer)."""

    endpoint: str
    latency_ns: int
    status: Optional[int]
    digest_ok: bool
    rid: str
    done_ns: int


class Load:
    """Closed-loop HTTP load from :data:`CLIENTS` threads.

    Each thread records a :class:`Request` per request and keeps a
    seeded sample of bodies for the byte comparison.
    """

    def __init__(self, port: int, keep_alive: bool, expected_digest: str,
                 seed: int, tag: str) -> None:
        self.port = port
        self.keep_alive = keep_alive
        self.expected = expected_digest
        self.seed = seed
        self.tag = tag
        self.records: List[List[Request]] = [[] for __ in range(CLIENTS)]
        self.bodies: List[Tuple] = []
        self.connections = 0
        self.errors = 0
        self.started_ns = 0
        self.wall_s = 0.0
        self._lock = threading.Lock()

    def total(self) -> int:
        return sum(len(r) for r in self.records)

    def run(self, streams: List[Callable[[], Optional[object]]],
            seconds: float, min_requests: int) -> None:
        started = time.perf_counter()
        self.started_ns = time.perf_counter_ns()
        soft = started + seconds
        hard = started + seconds * MAX_STRETCH
        threads = [threading.Thread(target=self._client,
                                    args=(t, streams[t], soft, hard,
                                          min_requests))
                   for t in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - started

    def _client(self, tid: int, next_query, soft: float, hard: float,
                min_requests: int) -> None:
        rng = np.random.default_rng([self.seed, tid])
        records = self.records[tid]
        conn = None
        n = 0
        try:
            while True:
                now = time.perf_counter()
                if now >= hard or (now >= soft
                                   and self.total() >= min_requests):
                    return
                query = next_query()
                if query is None:
                    return
                rid = f"{self.tag}-{tid}-{n}"
                n += 1
                if conn is None:
                    conn = http.client.HTTPConnection(
                        HOST, self.port, timeout=SERVER_TIMEOUT_S)
                    with self._lock:
                        self.connections += 1
                headers = {"X-Request-Id": rid}
                if not self.keep_alive:
                    headers["Connection"] = "close"
                began = time.perf_counter_ns()
                try:
                    conn.request("GET", query.url_path(), headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    done = time.perf_counter_ns()
                    records.append(Request(query.endpoint, done - began,
                                           None, False, rid, done))
                    with self._lock:
                        self.errors += 1
                    conn.close()
                    conn = None
                    continue
                done = time.perf_counter_ns()
                ok_digest = response.headers.get("X-Map-Digest") \
                    == self.expected
                records.append(Request(query.endpoint, done - began,
                                       response.status, ok_digest, rid,
                                       done))
                if response.status != 200:
                    with self._lock:
                        self.errors += 1
                if rng.random() < BODY_SAMPLE_RATE \
                        and len(self.bodies) < BODY_SAMPLE_CAP:
                    with self._lock:
                        self.bodies.append((query, body, rid))
                if not self.keep_alive or response.will_close:
                    conn.close()
                    conn = None
        finally:
            if conn is not None:
                conn.close()

    def check(self, run: Run) -> None:
        """Count every request: 200 and the expected digest."""
        for records in self.records:
            for r in records:
                run.check(r.status == 200 and r.digest_ok,
                          f"{r.rid} {r.endpoint}: status {r.status}, "
                          f"digest {'ok' if r.digest_ok else 'wrong'}")

    def latencies_ms(self, endpoint: Optional[str] = None) -> List[float]:
        return [r.latency_ns / 1e6 for records in self.records
                for r in records
                if endpoint is None or r.endpoint == endpoint]

    def chunks(self) -> List[List[Request]]:
        """Requests in completion order, cut into consecutive chunks of
        at least :data:`MIN_REQUESTS` (a short remainder joins the last).
        """
        done = sorted((r for records in self.records for r in records),
                      key=lambda r: r.done_ns)
        cuts = list(range(0, len(done), MIN_REQUESTS))
        if len(cuts) > 1 and len(done) - cuts[-1] < MIN_REQUESTS:
            cuts.pop()
        return [done[a:b] for a, b in zip(cuts, cuts[1:] + [len(done)])]


def cycling(queries: List) -> Callable[[], object]:
    """One client's stream: ``queries`` repeated forever."""
    return itertools.cycle(queries).__next__


def finite(queries: List) -> Callable[[], Optional[object]]:
    """One client's stream: ``queries`` once, then None."""
    iterator = iter(queries)
    return lambda: next(iterator, None)


# -- in-process replays ----------------------------------------------------------------

def in_process(service, queries: List) -> Dict[str, List[float]]:
    """Time each query through :class:`MapService` and ``json.dumps``.

    A call that added an answer-cache miss computed its answer
    (``mapstore.<endpoint>_ms``); one that only hit is
    ``service.hit_ms``. ``health`` is never cached and is skipped.
    """
    out: Dict[str, List[float]] = {"hit": [], "json": [], "bytes": []}
    for endpoint in ENDPOINTS:
        out[endpoint] = []
    for query in queries:
        if query.endpoint == "health":
            continue
        before = service.cache_stats()
        started = time.perf_counter()
        payload = answer(service, query)
        took = time.perf_counter() - started
        after = service.cache_stats()
        missed = after.misses > before.misses
        out[query.endpoint if missed else "hit"].append(took * 1e3)
        started = time.perf_counter()
        encoded = json.dumps(payload).encode()
        out["json"].append((time.perf_counter() - started) * 1e3)
        out["bytes"].append(len(encoded))
    return out


def compare_bodies(run: Run, service, load: Load) -> None:
    """Byte-compare the sampled bodies with in-process answers."""
    for query, body, rid in load.bodies:
        expected = json.dumps(answer(service, query)).encode()
        run.check(body == expected, f"{rid} {query.url_path()}: "
                                    "body differs from in-process")


# -- the split of a request ----------------------------------------------------------

def server_times(access_log: Path) -> Dict[str, float]:
    """Request id -> server-side milliseconds, from the access log."""
    times = {}
    for line in access_log.read_text().splitlines():
        record = json.loads(line)
        if record.get("request_id") is not None:
            times[record["request_id"]] = float(record["latency_ms"])
    return times


def latency_split(run: Run, load: Load, access_log: Path) -> None:
    """Client, server and wire time per endpoint and overall.

    Wire time is client time minus server time for the same request:
    connection set-up, request parsing before the handler's clock
    starts, the socket write after it stops, and the client's own
    reading.
    """
    server = server_times(access_log)
    split: Dict[str, Dict[str, List[float]]] = {}
    for records in load.records:
        for r in records:
            if r.status != 200 or r.rid not in server:
                continue
            client_ms = r.latency_ns / 1e6
            server_ms = server[r.rid]
            for key in (r.endpoint, "all"):
                parts = split.setdefault(key, {"client": [], "server": [],
                                               "wire": []})
                parts["client"].append(client_ms)
                parts["server"].append(server_ms)
                parts["wire"].append(client_ms - server_ms)
    details = {}
    for key, parts in split.items():
        details[key] = {part: summary(values, digits=4)
                        for part, values in parts.items()}
        overall = key == "all"
        for part, values in parts.items():
            base = f"http.{part}_ms" if overall else f"http.{part}_ms.{key}"
            run.layers[f"{base}.p50"] = median(values)
            # Per endpoint only the server and wire tails are metrics;
            # the client tail per endpoint is in the details.
            if part != "client" or overall:
                run.layers[f"{base}.p99"] = tail(values)[0]
    run.details["latency_split_ms"] = details
    run.details["latency_split_note"] = (
        "server time stops before the response is written (_send), so "
        "the socket write is counted in wire time")


# -- the workloads -------------------------------------------------------------------

def prepare(ctx: Context, run: Run):
    """World, map, artefact and the in-process reference service."""
    from repro import build_scenario
    from repro.core.builder import MapBuilder
    from repro.core.mapstore import MapStore
    from repro.core.serialize import map_to_json
    from repro.obs import Recorder
    from repro.serve import MapService, load_store
    scenario, world_s = timed(lambda: build_scenario(ctx.config()))
    run.layers["scenario.build_s"] = world_s
    recorder = Recorder() if ctx.trace else None
    itm, build_s = timed(MapBuilder(scenario, recorder=recorder).build)
    run.details["artefact_build_s"] = build_s
    text, json_s = timed(lambda: map_to_json(itm))
    artefact = ctx.workdir / "map.json"
    artefact.write_text(text)
    built_digest = MapStore.from_map(itm, graph=scenario.graph).digest
    # The reference answers come from the artefact loaded the way the
    # server loads it: a store built straight from the map answers the
    # same content, but orders some JSON members differently.
    store, load_s = timed(lambda: load_store(str(artefact), scenario))
    run.check(store.digest == built_digest,
              "artefact loads to a different map")
    if ctx.trace:
        scenario.bgp.attach_recorder(None)
        run.layers.update({k: v for k, v in build_layers(recorder).items()
                           if not k.startswith("ckpt.")})
        run.layers["serialize.map_to_json_s"] = json_s
        run.layers["serialize.artefact_bytes"] = len(text)
        run.layers["serve.load_store_s"] = load_s
    run.details["artefact_bytes"] = len(text)
    return store, MapService(store), artefact


def serve(ctx: Context, hot: bool) -> Run:
    from repro.serve import seeded_queries
    run = Run()
    store, service, artefact = prepare(ctx, run)
    expected = ctx.expected(store.digest)
    if hot:
        queries = seeded_queries(store, HOT_QUERIES, seed=ctx.seed)
        warm = list(dict.fromkeys(queries))
        shares = [queries[t::CLIENTS] for t in range(CLIENTS)]
        stream = cycling
    else:
        shares = cold_streams(store, ctx.seed)
        # The first few keys of each stream warm the server's code
        # paths; the measured load continues after them.
        warm = [q for s in shares for q in s[:8]]
        shares = [s[8:] for s in shares]
        stream = finite

    def streams():
        return [stream(share) for share in shares]

    run.details["distinct_warmup_queries"] = len(warm)
    setup: List[float] = []
    servers: List[Server] = []
    untraced_p50 = None
    try:
        for i in range(SPAWNS):
            last = i == SPAWNS - 1
            server = Server(ctx, artefact, f"spawn{i}", ctx.trace and last)
            servers.append(server)
            took, digest = server.wait_ready()
            setup.append(took)
            run.check(digest == expected, f"spawn{i} serves {digest}")
            if last:
                break
            if ctx.trace and i == SPAWNS - 2:
                # The same load on the last untraced server gives the
                # tracing overhead.
                warm_up(ctx, server, warm, expected, "uw", run)
                base = closed_loop(ctx, server, streams(), hot, expected,
                                   "u", run, ctx.seconds / 2)
                untraced_p50 = median(base.latencies_ms())
            server.stop()
        warm_up(ctx, server, warm, expected, "mw", run)
        before = server.metricsz()
        load = closed_loop(ctx, server, streams(), hot, expected, "m", run,
                           ctx.seconds)
        after = server.metricsz()
        peak = server.peak_rss_mb()
        server.stop()
    finally:
        for server in servers:
            server.stop()
    compare_bodies(run, service, load)
    lat = load.latencies_ms()
    # The tail and the rate are taken per chunk of consecutive requests
    # and the median chunk reported, so a burst of CPU stolen by a
    # neighbouring machine moves one chunk, not the run's figure.
    p99s, rates = [], []
    chunk_start = load.started_ns
    for chunk in load.chunks():
        p99s.append(tail([r.latency_ns / 1e6 for r in chunk])[0])
        rates.append(len(chunk) * 1e9 / (chunk[-1].done_ns - chunk_start))
        chunk_start = chunk[-1].done_ns
    run.e2e.update({"setup_s": median(setup), "p50_ms": median(lat),
                    "p99_ms": median(p99s), "qps": median(rates),
                    "peak_rss_mb": peak})
    run.details.update({
        "setup_s": summary(setup, digits=4),
        "requests": len(lat), "wall_s": load.wall_s,
        "qps_whole_run": len(lat) / load.wall_s,
        "chunk_p99_ms": p99s, "chunk_qps": rates,
        "p99_ms_basis": f"median of {len(p99s)} chunk p99s, each over "
                        f">= {MIN_REQUESTS} requests",
        "client_ms": summary(lat, digits=4),
        "client_ms_by_endpoint": {
            ep: summary(load.latencies_ms(ep), digits=4)
            for ep in ENDPOINTS if load.latencies_ms(ep)},
        "connections": load.connections,
        "server_latency_histograms": after.get("latency"),
    })
    if ctx.trace:
        traced_layers(run, load, server, before, after, service,
                      untraced_p50, hot, warm, shares)
    return run


def warm_up(ctx: Context, server: Server, warm: List, expected: str,
            tag: str, run: Run) -> None:
    """Send every warm-up query once, one connection each, checked."""
    load = Load(server.port, False, expected, ctx.seed, tag)
    load.run([finite(warm[t::CLIENTS]) for t in range(CLIENTS)],
             seconds=SERVER_TIMEOUT_S, min_requests=len(warm))
    load.check(run)


def closed_loop(ctx: Context, server: Server, streams, hot: bool,
                expected: str, tag: str, run: Run, seconds: float) -> Load:
    """Run and check the measured closed-loop load."""
    settle()
    load = Load(server.port, hot, expected, ctx.seed, tag)
    load.run(streams, seconds, MIN_REQUESTS)
    load.check(run)
    return load


def traced_layers(run: Run, load: Load, server: Server, before: Dict,
                  after: Dict, service, untraced_p50: float, hot: bool,
                  warm: List, shares: List[List]) -> None:
    """Per-layer numbers of a traced serve run."""
    latency_split(run, load, server.access_log)
    counters = after.get("counters", {})
    hits = counters.get("serve.cache.hits", 0) - \
        before["counters"].get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0) - \
        before["counters"].get("serve.cache.misses", 0)
    run.layers["service.cache_hit_rate"] = hits / max(1, hits + misses)
    run.layers["serve.admit.shed"] = counters.get("serve.admit.shed", 0)
    run.layers["serve.http.timeouts"] = counters.get("serve.http.timeouts",
                                                     0)
    run.layers["http.errors"] = load.errors
    run.layers["http.connections_per_request"] = \
        load.connections / max(1, load.total())
    traced_p50 = median(load.latencies_ms())
    run.layers["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100
    # Replay the measured stream in-process on a fresh service: first
    # the warm-up keys (misses), then what the clients sent.
    from repro.serve import MapService
    sent = [q for s in shares for q in s[:max(len(r) for r in
                                              load.records)]]
    timings = in_process(MapService(service.store),
                         warm + (sent if hot else sent[:3000]))
    for endpoint in ("cdf", "anycast", "outage", "map"):
        if timings[endpoint]:
            run.layers[f"mapstore.{endpoint}_ms"] = median(
                timings[endpoint])
    if timings["hit"]:
        run.layers["service.hit_ms"] = median(timings["hit"])
    run.layers["encode.json_ms"] = median(timings["json"])
    run.layers["encode.response_bytes"] = median(timings["bytes"])
    run.details["in_process_samples"] = {k: len(v)
                                         for k, v in timings.items()}
