"""Seeded query streams and replay harnesses for the serving layer.

The benchmark (``benchmarks/test_bench_serve.py``) and the CI smoke job
need realistic, *reproducible* load: :func:`seeded_queries` draws a
query mix from the served store's own keys (real route targets, mapped
services, covered client prefixes) using :func:`repro.rand.substream`,
so the same seed against the same map yields byte-identical streams —
which is what makes the answer-cache hit counters deterministic and
gateable.

:func:`replay` drives a :class:`~repro.serve.service.MapService`
in-process through ``MapService.handle``, the request path the HTTP
handler calls too (measures the query layer alone; ``handle`` records
the service-side telemetry, access log included, and ``replay`` keeps
only its own client-side samples); :func:`replay_http`
drives a running server over ``urllib`` (measures the full transport),
either closed-loop (next request waits for the previous answer) or
open-loop (``open_loop_rate``: seeded Poisson arrivals fire on schedule
no matter how slow the server is — the arrival pattern overload
actually has).
Shed requests (HTTP 429) are retried with client-side jittered
exponential backoff that honors the server's ``Retry-After`` hint.

Both replays return the same summary shape: query counts, the outcome
split (``http_errors`` / ``shed`` / ``retries``), wall time, qps
(completed and errored round trips only — shed requests never count
toward throughput), and :class:`repro.obs.live.Histogram` latency
percentiles in milliseconds.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.mapstore import MapStore
from ..obs.live import Histogram, classify_status
from ..rand import substream
from .service import MapService

#: Relative odds of each endpoint in a seeded stream. CDF dominates (it
#: is the paper's headline query), health is the keep-alive noise floor.
ENDPOINT_MIX: Tuple[Tuple[str, int], ...] = (
    ("cdf", 5), ("anycast", 3), ("outage", 2), ("map", 1), ("health", 1),
)


@dataclass(frozen=True)
class Query:
    """One generated request: an endpoint name plus its parameters."""

    endpoint: str
    params: Tuple[Tuple[str, str], ...]

    def url_path(self) -> str:
        """The ``/v1/...`` path+query form of this query."""
        query = urllib.parse.urlencode(list(self.params))
        return f"/v1/{self.endpoint}" + (f"?{query}" if query else "")


def seeded_queries(store: MapStore, n: int,
                   seed: int = 0) -> List[Query]:
    """``n`` queries drawn from the store's own keys, deterministically
    in ``(store content, n, seed)``.

    Batched CDF queries (2–4 targets) appear alongside single-target
    ones, and a bounded key pool guarantees repeats, so replays exercise
    both the batch path and the answer cache.
    """
    rng = substream(seed, "serve", "loadgen")
    targets = [int(a) for a in store.route_targets()]
    services = list(store.service_keys)
    orgs = list(store.organizations)
    clients: List[Tuple[str, int]] = []
    for key in services[:8]:
        svc = store._svc_index[key]
        for pid in store.svc_clients[svc][:32]:
            clients.append((key, int(pid)))

    queries: List[Query] = []
    names = [name for name, __ in ENDPOINT_MIX]
    odds = [float(weight) for __, weight in ENDPOINT_MIX]
    probabilities = [w / sum(odds) for w in odds]
    for __ in range(n):
        endpoint = names[int(rng.choice(len(names), p=probabilities))]
        params: Tuple[Tuple[str, str], ...] = ()
        if endpoint == "cdf" and targets:
            batch = int(rng.integers(1, 5))
            chosen = rng.choice(len(targets), size=min(batch, len(targets)),
                                replace=False)
            value = ",".join(str(targets[int(i)]) for i in sorted(chosen))
            params = (("as", value),)
        elif endpoint == "anycast" and clients:
            key, pid = clients[int(rng.integers(0, len(clients)))]
            params = (("service", key), ("prefix", str(pid)),
                      ("k", str(int(rng.integers(1, 5)))))
        elif endpoint == "outage":
            if orgs and rng.random() < 0.5:
                org = orgs[int(rng.integers(0, len(orgs)))]
                params = (("hypergiant", org),)
            elif targets:
                params = (("asn",
                           str(targets[int(rng.integers(0,
                                                        len(targets)))])),)
        queries.append(Query(endpoint=endpoint, params=params))
    return queries


def _summary(latencies_ns: List[int], wall_seconds: float,
             http_errors: int = 0, shed: int = 0,
             retries: int = 0) -> Dict[str, Any]:
    # Shed requests never produced an answer, so they carry no latency
    # sample and are excluded from throughput.
    count = len(latencies_ns)
    # The server's estimator (one bucket ratio of error); max is exact.
    hist = Histogram()
    for latency_ns in latencies_ns:
        hist.record(latency_ns / 1e9)
    return {
        "queries": count + shed,
        "http_errors": http_errors,
        "shed": shed,
        "retries": retries,
        "wall_seconds": wall_seconds,
        "qps": count / wall_seconds if wall_seconds > 0 else 0.0,
        "latency_ms": {
            "p50": hist.quantile(0.5) * 1e3,
            "p90": hist.quantile(0.9) * 1e3,
            "p99": hist.quantile(0.99) * 1e3,
            "max": max(latencies_ns) / 1e6 if count else 0.0,
        },
    }


def replay(service: MapService,
           queries: Sequence[Query]) -> Dict[str, Any]:
    """Replay a stream against the service in-process; returns the
    latency/throughput summary plus the answer cache's counters.

    With an admission gate attached, shed requests are counted
    (``shed``) rather than retried — the in-process replay is a
    microbenchmark, not a client; any other refusal is an
    ``http_errors`` round trip, as over HTTP."""
    latencies: List[int] = []
    http_errors = 0
    shed = 0
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter_ns()
        reply = service.handle(query.url_path())
        elapsed_ns = time.perf_counter_ns() - t0
        outcome = classify_status(reply.status)
        if outcome == "shed":
            shed += 1
            continue
        if outcome != "ok":
            http_errors += 1
        latencies.append(elapsed_ns)
    summary = _summary(latencies, time.perf_counter() - started,
                       http_errors=http_errors, shed=shed)
    stats = service.cache_stats()
    summary["cache"] = {
        "entries": stats.entries, "hits": stats.hits,
        "misses": stats.misses, "evictions": stats.evictions,
        "hit_rate": stats.hit_rate,
    }
    return summary


def _fetch(url: str, timeout: float, max_attempts: int,
           backoffs: Sequence[float]) -> Tuple[str, Optional[int], int]:
    """One query's HTTP round trips: ``(outcome, latency_ns, retries)``.

    Retries only 429 responses, sleeping the server's ``Retry-After``
    plus this attempt's pre-drawn jittered backoff; any other failure —
    4xx/5xx, torn connection, socket timeout — is terminal. The latency
    sample is the *final* attempt's round trip (backoff wait is client
    policy, not server latency).
    """
    attempt = 1
    retries = 0
    while True:
        t0 = time.perf_counter_ns()
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                json.load(response)
            return "completed", time.perf_counter_ns() - t0, retries
        except urllib.error.HTTPError as exc:
            exc.read()
            if exc.code == 429 and attempt < max_attempts:
                retry_after = float(exc.headers.get("Retry-After") or 0.0)
                time.sleep(retry_after + backoffs[attempt - 1])
                attempt += 1
                retries += 1
                continue
            if exc.code == 429:
                return "shed", None, retries
            return "http_error", time.perf_counter_ns() - t0, retries
        except OSError:
            # URLError, connection reset by a chaos disconnect, timeout.
            return "http_error", time.perf_counter_ns() - t0, retries


def replay_http(base_url: str, queries: Sequence[Query],
                timeout: float = 10.0, max_attempts: int = 1,
                backoff_base_s: float = 0.2, backoff_cap_s: float = 5.0,
                seed: int = 0, open_loop_rate: Optional[float] = None,
                max_workers: int = 32) -> Dict[str, Any]:
    """Replay a stream over HTTP against ``base_url`` (e.g.
    ``http://127.0.0.1:8211``).

    Closed-loop by default (one request at a time, like the original
    replay). With ``open_loop_rate`` set, arrivals follow a seeded
    Poisson schedule at that rate and fire from a thread pool whether or
    not earlier requests have answered — open-loop load, the shape that
    actually overloads a server. ``max_attempts > 1`` enables the
    backoff client: 429 responses are retried after ``Retry-After`` plus
    a seeded jittered exponential backoff (base ``backoff_base_s``,
    doubling per retry, capped at ``backoff_cap_s``).
    """
    n = len(queries)
    jitter = substream(seed, "serve", "loadgen", "backoff")
    steps = max(0, max_attempts - 1)
    # Pre-drawn per-(query, retry) backoffs: deterministic in the seed
    # and safe to read from worker threads.
    scale = np.minimum(backoff_cap_s,
                       backoff_base_s * 2.0 ** np.arange(max(steps, 1)))
    backoffs = (jitter.random((n, steps)) * scale[:steps]
                if steps else np.zeros((n, 0)))
    urls = [base_url.rstrip("/") + query.url_path() for query in queries]

    results: List[Tuple[str, Optional[int], int]] = [None] * n  # type: ignore
    started = time.perf_counter()
    if open_loop_rate is None:
        for i, url in enumerate(urls):
            results[i] = _fetch(url, timeout, max_attempts,
                                backoffs[i].tolist())
    else:
        gaps = substream(seed, "serve", "loadgen", "arrivals") \
            .exponential(1.0 / float(open_loop_rate), size=n)
        offsets = np.cumsum(gaps)
        t0 = time.monotonic()

        def fire(i: int) -> Tuple[str, Optional[int], int]:
            delay = t0 + float(offsets[i]) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            return _fetch(urls[i], timeout, max_attempts,
                          backoffs[i].tolist())

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            for i, result in enumerate(pool.map(fire, range(n))):
                results[i] = result
    wall = time.perf_counter() - started

    latencies = [lat for __, lat, __r in results if lat is not None]
    return _summary(
        latencies, wall,
        http_errors=sum(1 for kind, __, __r in results
                        if kind == "http_error"),
        shed=sum(1 for kind, __, __r in results if kind == "shed"),
        retries=sum(r for __, __lat, r in results))
