"""Transport-free query service over a :class:`~repro.core.mapstore.\
MapStore`.

:class:`MapService` is what the HTTP layer, the load generator, the
chaos harness and the tests all talk to, through one request path:
:meth:`MapService.handle` (raw request target in, :class:`Reply` out).
It is also the one observation point: ``handle`` times every request
on the telemetry's clock from its entry to its return, gives it a
request id, makes the chaos client-disconnect draw and records it once
in the live telemetry (histograms, rolling window, access log). The
``/v1/metricsz`` scrape is answered there too, and is never timed,
counted or logged. The drivers only move bytes. It owns three more
cross-cutting concerns so the transport does not have to:

* **Answer cache** — a :class:`repro.lru.BoundedLru` keyed by
  ``(map_digest, endpoint, params)`` that holds each answer already
  encoded: ``json.dumps`` bytes, computed and encoded once on the miss.
  A hit is sent as is; a batched ``/v1/cdf`` reply is spliced from its
  per-target fragments into the ``{"digest", "results"}`` envelope, so
  every body is byte-identical to ``json.dumps`` of its dict. The
  digest in the key is the hot-swap invalidation: after
  :meth:`MapService.swap` every lookup misses naturally and stale
  entries age out of the LRU — nothing is ever explicitly flushed.
  :meth:`MapService.handle` takes one store snapshot per request, so
  every target of a batch, the envelope digest and the
  :attr:`Reply.digest` the transport sends as ``X-Map-Digest`` name the
  same map even when a swap lands mid-request.
* **Counters** — ``serve.requests.<endpoint>``, ``serve.errors``,
  ``serve.swaps`` and the cache's ``serve.cache.*`` mirror on the
  attached :class:`repro.obs.Recorder`, so a served build's run manifest
  shows the query mix and the cache hit rate. Counters only: recorder
  *spans* share a stack across threads and belong to the single-threaded
  build path.
* **Locking** — one lock serialises answer computation, so concurrent
  identical queries cannot double-compute (which would make the cache
  counters nondeterministic under the benchmark's seeded replay).
  Answers are array slices over an immutable store; serialising them is
  cheaper than the bookkeeping to avoid it.
"""

from __future__ import annotations

import contextlib
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.mapstore import MapStore
from ..core.uncertainty import coverage_caveats
from ..errors import ReproError, ValidationError
from ..lru import BoundedLru, CacheStats
from ..obs.live import LiveTelemetry, classify_status, render_prometheus
from ..obs.recorder import Recorder, resolve_recorder

#: Endpoints whose answers are memoized (identity-keyed by map digest).
CACHED_ENDPOINTS = ("cdf", "outage", "anycast", "map")

#: Hard cap on ``?as=`` batch size: a single request cannot monopolise
#: the service by smuggling an unbounded target list past the admission
#: gate (each target is one cached computation).
MAX_CDF_BATCH = 32

#: Probe endpoints that bypass the admission gate: liveness, readiness
#: and the telemetry scrape must answer even when the replica is
#: saturated or draining.
UNGATED_PATHS = ("/v1/health", "/v1/healthz", "/v1/readyz",
                 "/v1/metricsz")

#: Endpoint labels used for latency histograms and access logs; paths
#: outside this set are folded into "other" to bound label cardinality.
_ENDPOINT_LABELS = ("health", "healthz", "readyz", "map", "cdf",
                    "outage", "anycast")

JSON_CONTENT_TYPE = "application/json"
#: Content type of the Prometheus text exposition ``/v1/metricsz`` sends.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class QueryError(ReproError):
    """A query the map cannot answer; carries the HTTP status to emit.

    ``400`` for malformed parameters, ``404`` for entities the map does
    not cover (unknown AS, unmapped service, unknown organisation).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class Reply:
    """What :meth:`MapService.handle` answers: the status, the encoded
    body (``{"error": ...}`` on a refusal) and its content type, the
    telemetry endpoint label, the digest of the map that answered (the
    ``X-Map-Digest`` header), the request id (``X-Request-Id``), whether
    the chaos-simulated client went away before the body, and, on a
    429, the gate's retry hint in seconds."""

    status: int
    body: bytes
    endpoint: str
    digest: str
    request_id: str
    content_type: str = JSON_CONTENT_TYPE
    disconnected: bool = False
    retry_after: Optional[float] = None


def _endpoint_label(path: str) -> str:
    """Telemetry label of a path: the endpoint name, or ``"other"``."""
    name = path.rsplit("/", 1)[-1]
    if path.startswith("/v1/") and name in _ENDPOINT_LABELS:
        return name
    return "other"


class MapArtefactError(ReproError):
    """A map artefact that cannot be served: missing file, invalid JSON,
    not the canonical encoding, wrong format version, built under
    another seed, or prefix ids outside the scenario context."""


def load_store(path: str, scenario) -> MapStore:
    """Load a map artefact from ``path`` into a query-ready store.

    The artefact carries only measurement-derived content (see
    :mod:`repro.core.serialize`); ``scenario`` re-attaches the ground
    truth context cross-component queries need — the prefix→AS table,
    the city atlas, the AS graph. The store's digest is the SHA-256 of
    the bytes read: the map is never re-encoded to name it. Any
    unreadable, unparseable or incompatible artefact raises
    :class:`MapArtefactError` with a one-line reason; so does one with
    a newline byte, which the canonical encoding never has (an indented
    artefact, as older CLIs wrote), and so does one whose recorded
    ``seed`` is not the scenario's: that world's context would answer
    cross-component queries wrongly under the artefact's digest. A
    mutation plan leaves no trace in the artefact, so a mismatched one
    cannot be refused here.
    """
    from ..core.serialize import map_from_json
    try:
        with open(path, "rb") as handle:
            artefact = handle.read()
    except OSError as exc:
        raise MapArtefactError(f"cannot read map artefact: {exc}") \
            from None
    if b"\n" in artefact:
        raise MapArtefactError(
            "map artefact contains a newline: not the canonical "
            "encoding (pretty-printed, or written by an older version)")
    try:
        itm = map_from_json(artefact, atlas=scenario.atlas,
                            prefix_asn=scenario.prefixes.asn_array)
        seed = itm.metadata.get("seed")
        if seed != scenario.config.seed:
            raise ValidationError(
                f"map artefact was built with seed {seed}, not the "
                f"served scenario's seed {scenario.config.seed}")
        return MapStore.from_map(itm, graph=scenario.graph,
                                 artefact=artefact)
    except ValidationError as exc:
        raise MapArtefactError(str(exc)) from None


class MapService:
    """Answers the §2 endpoint queries, with caching, counters and an
    atomic hot-swap hook (see module docstring)."""

    def __init__(self, store: MapStore,
                 recorder: Optional[Recorder] = None,
                 cache_entries: int = 4096,
                 gate=None, chaos=None,
                 telemetry: Optional[LiveTelemetry] = None) -> None:
        self._lock = threading.RLock()
        self._store = store
        self._recorder = resolve_recorder(recorder)
        self._cache: BoundedLru = BoundedLru(
            cache_entries, recorder=self._recorder,
            counter_prefix="serve.cache")
        # Optional resilience attachments (see repro.serve.resilience /
        # repro.serve.chaos); both are duck-typed so the core service
        # never imports the modules that build on top of it.
        self.gate = gate
        self.chaos = chaos
        # Live telemetry (latency histograms, rolling window, access
        # log, request ids).  Always present so callers never branch;
        # observation never steers, so a default instance costs a few
        # dict updates per request and changes no answer.
        self.telemetry = (telemetry if telemetry is not None
                          else LiveTelemetry())
        self._draining = threading.Event()
        self._watch_circuit = None
        self._local = threading.local()

    @property
    def store(self) -> MapStore:
        """The store currently answering queries."""
        with self._lock:
            return self._store

    @property
    def digest(self) -> str:
        """Content digest of the currently-served map."""
        return self.store.digest

    def swap(self, store: MapStore) -> bool:
        """Atomically replace the served store; no-op (returns False)
        when ``store`` has the digest already being served.

        Cached answers for the old digest are not flushed — their keys
        can simply never be built again, so they age out of the LRU.
        """
        with self._lock:
            if store.digest == self._store.digest:
                return False
            self._store = store
            self._recorder.count("serve.swaps")
            return True

    def cache_stats(self) -> CacheStats:
        """Counter snapshot of the answer cache."""
        with self._lock:
            return self._cache.cache_stats()

    def flush_cache(self) -> None:
        """Drop every cached answer (the eviction-storm chaos hook).

        Correctness is untouched — every key rebuilds from the immutable
        store — but warm entries recompute, which is exactly the latency
        weather the chaos harness wants to inject.
        """
        with self._lock:
            self._cache.clear()

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting new requests; in-flight answers complete.

        Called from the SIGTERM/SIGINT handler. Subsequent
        :meth:`admit` calls fail with a 503 ``QueryError`` while the
        transport finishes the handlers already inside the gate.
        """
        self._draining.set()

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` has been called."""
        return self._draining.is_set()

    def attach_watch_circuit(self, breaker) -> None:
        """Let readiness reflect the artefact watcher's circuit state."""
        self._watch_circuit = breaker

    # -- live telemetry ----------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """``/v1/metricsz?format=json``: full telemetry snapshot."""
        return {
            "digest": self.digest,
            "draining": self.draining,
            "counters": dict(self._recorder.counters),
            "gauges": dict(self._recorder.gauges),
            "latency": self.telemetry.latency_snapshot(),
            "window": self.telemetry.window_snapshot(),
        }

    def metrics_text(self) -> str:
        """``/v1/metricsz``: Prometheus text exposition (format 0.0.4)."""
        return render_prometheus(dict(self._recorder.counters),
                                 dict(self._recorder.gauges),
                                 self.telemetry,
                                 digest=self.digest,
                                 draining=self.draining)

    @contextlib.contextmanager
    def admit(self) -> Iterator[None]:
        """Admission guard for one request (the overload front door).

        Raises a 503 ``QueryError`` while draining and
        :class:`~repro.serve.resilience.AdmissionError` (429) when the
        gate sheds; otherwise arms the per-request deadline the
        computation checkpoints against. A service without a gate admits
        everything with an unbounded deadline.
        """
        if self._draining.is_set():
            self._recorder.count("serve.admit.drained")
            raise QueryError(503, "service is draining")
        if self.gate is None:
            yield
            return
        with self.gate.admit() as admission:
            self._local.deadline = admission.deadline
            try:
                yield
            finally:
                self._local.deadline = None

    def handle(self, target: str,
               request_id: Optional[str] = None) -> Reply:
        """Answer one raw request target, e.g. ``/v1/cdf?as=1,2``: the
        request path of every driver (HTTP, ``replay``, ``run_chaos``)
        and the one place a request is timed and observed.

        ``request_id`` is the caller's correlation id (HTTP passes an
        inbound ``X-Request-Id``); without one a sequential ``req-<n>``
        is drawn. The served store is read once: the whole reply, batch
        targets and digest included, comes from that snapshot. Only
        paths outside :data:`UNGATED_PATHS` pass :meth:`admit`. Refusals
        become ``{"error": ...}`` replies with their status and a not-ok
        ``/v1/readyz`` answers 503. An answered request then takes the
        chaos client-disconnect draw. Every request but the
        ``/v1/metricsz`` scrape is observed once, with its latency from
        this method's entry to its return on the telemetry's clock. Any
        other exception is a bug: it is observed as a 500 and
        propagates, carrying the request id as ``request_id``.
        """
        telemetry = self.telemetry
        started = telemetry.now()
        if request_id is None:
            request_id = telemetry.next_request_id()
        url = urlsplit(target)
        path = url.path
        store = self.store
        params = parse_qs(url.query, keep_blank_values=True)
        if path == "/v1/metricsz":
            return self._scrape(store, params, request_id)
        label = _endpoint_label(path)
        status = 500    # until answered or refused: a bug is a 500
        retry_after = None
        disconnected = False
        try:
            if path in UNGATED_PATHS:
                status, body = self._route(store, path, params)
            else:
                with self.admit():
                    status, body = self._route(store, path, params)
            chaos = self.chaos
            disconnected = chaos is not None and chaos.client_disconnect()
        except QueryError as exc:
            # AdmissionError (429) and DeadlineExpired (504) are
            # QueryErrors too; only a shed carries a retry hint.
            status, body = exc.status, _error_body(str(exc))
            retry_after = getattr(exc, "retry_after", None)
        except Exception as exc:
            exc.request_id = request_id
            raise
        finally:
            telemetry.observe(label, classify_status(status),
                              telemetry.now() - started, status=status,
                              path=path, request_id=request_id,
                              digest=store.digest)
        return Reply(status, body, label, store.digest, request_id,
                     disconnected=disconnected, retry_after=retry_after)

    def _scrape(self, store: MapStore, params: Dict[str, List[str]],
                request_id: str) -> Reply:
        """``/v1/metricsz``: the scrape observes the service without
        becoming part of what it observes (never timed, counted or
        logged), so a scrape taken after the last query exactly matches
        the manifest flushed at shutdown."""
        content_type = JSON_CONTENT_TYPE
        try:
            fmt = _single(params, "format")
            if fmt in (None, "text"):
                body = self.metrics_text().encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            elif fmt == "json":
                body = json.dumps(self.metrics_snapshot()).encode()
            else:
                raise QueryError(400, f"unknown format {fmt!r} "
                                      "(expected text or json)")
            status = 200
        except QueryError as exc:
            status, body = exc.status, _error_body(str(exc))
        return Reply(status, body, "metricsz", store.digest, request_id,
                     content_type=content_type)

    def _route(self, store: MapStore, path: str,
               params: Dict[str, List[str]]) -> Tuple[int, bytes]:
        if path in ("/v1/health", "/v1/healthz", "/v1/readyz"):
            # Probes report live state: encoded per request, never cached.
            if path == "/v1/health":
                probe = self._health(store)
            elif path == "/v1/healthz":
                probe = self.alive()
            else:
                probe = self._ready(store)
            not_ready = path == "/v1/readyz" and probe["status"] != "ok"
            return (503 if not_ready else 200), json.dumps(probe).encode()
        if path == "/v1/map":
            return 200, self._map_body(store)
        if path == "/v1/cdf":
            raw = _single(params, "as", required=True)
            asns = [_int_param(part, "as")
                    for part in raw.split(",") if part]
            weighted = _bool_param(_single(params, "weighted"), "weighted")
            return 200, self._cdf_body(store, asns, weighted)
        if path == "/v1/outage":
            asn = _single(params, "asn")
            hypergiant = _single(params, "hypergiant")
            return 200, self._outage_body(
                store, None if asn is None else _int_param(asn, "asn"),
                hypergiant)
        if path == "/v1/anycast":
            service_key = _single(params, "service", required=True)
            prefix = _int_param(_single(params, "prefix", required=True),
                                "prefix")
            k_raw = _single(params, "k")
            k = 3 if k_raw is None else _int_param(k_raw, "k")
            return 200, self._anycast_body(store, service_key, prefix, k)
        raise QueryError(404, f"unknown endpoint {path!r}")

    def alive(self) -> Dict[str, Any]:
        """``/v1/healthz``: pure liveness — the process answers."""
        self._recorder.count("serve.requests.healthz")
        return {"status": "alive"}

    def ready(self) -> Dict[str, Any]:
        """``/v1/readyz``: should this replica receive traffic?

        Ready means a map is loaded, the service is not draining, and
        the artefact watcher's circuit (when one is attached) is closed.
        The transport maps a not-ok status to HTTP 503.
        """
        return self._ready(self.store)

    def _ready(self, store: MapStore) -> Dict[str, Any]:
        self._recorder.count("serve.requests.readyz")
        reasons = []
        if self._draining.is_set():
            reasons.append("draining")
        circuit = self._watch_circuit
        if circuit is not None and circuit.is_open:
            reasons.append("watch circuit open")
        return {"status": "ok" if not reasons else "unavailable",
                "digest": store.digest,
                "reasons": reasons}

    # -- endpoints ---------------------------------------------------------
    #
    # Each public method answers one endpoint as a dict, decoded from the
    # bytes ``handle`` would send; the ``_*_body`` twins take the store
    # snapshot and return those bytes.

    def health(self) -> Dict[str, Any]:
        """``/v1/health``: liveness plus the served digest (not cached)."""
        return self._health(self.store)

    def _health(self, store: MapStore) -> Dict[str, Any]:
        with self._lock:
            self._recorder.count("serve.requests.health")
        return {"status": "ok",
                "digest": store.digest,
                "format_version": store.format_version}

    def map_summary(self) -> Dict[str, Any]:
        """``/v1/map``: identity, sizes and honesty labels of the served
        map — digest, format version, seed, component sizes, degraded
        components and their coverage caveats (§4.2)."""
        return json.loads(self._map_body(self.store))

    def _map_body(self, store: MapStore) -> bytes:
        return self._answer(store, "map", (),
                            lambda: _compute_map_summary(store))

    def cdf(self, asns: Sequence[int],
            weighted: Optional[bool] = None) -> Dict[str, Any]:
        """``/v1/cdf``: AS-path-length CDFs to each target AS, weighted
        by client activity (§2.1's "weighted CDF for AS X").

        ``asns`` may name several targets (the batched
        ``?as=64500,64501`` form); each target is answered — and cached —
        independently, so a batch warms the same entries the single-AS
        queries would. ``weighted`` selects one curve (``True``/``False``)
        or both plus their contrast (``None``).
        """
        return json.loads(self._cdf_body(self.store, asns, weighted))

    def _cdf_body(self, store: MapStore, asns: Sequence[int],
                  weighted: Optional[bool]) -> bytes:
        if not asns:
            raise QueryError(400, "no target AS given")
        if len(asns) > MAX_CDF_BATCH:
            raise QueryError(
                400, f"batch of {len(asns)} targets exceeds the "
                     f"limit of {MAX_CDF_BATCH}")
        fragments = [self._answer(store, "cdf", (int(asn), weighted),
                                  lambda a=int(asn): _compute_cdf(
                                      store, a, weighted))
                     for asn in asns]
        # json.dumps({"digest": ..., "results": [...]}) spliced from
        # the cached per-target fragments, byte for byte.
        return b'{"digest": %s, "results": [%s]}' % (
            json.dumps(store.digest).encode(), b", ".join(fragments))

    def outage(self, asn: Optional[int] = None,
               hypergiant: Optional[str] = None) -> Dict[str, Any]:
        """``/v1/outage``: blast radius of losing one AS (``asn=``) or a
        hypergiant's whole serving footprint (``hypergiant=``), §2.1's
        outage question.

        A hypergiant resolves to its on-net site ASes; one AS answers
        with the full single-AS report, several aggregate into the
        region-outage form.
        """
        return json.loads(self._outage_body(self.store, asn, hypergiant))

    def _outage_body(self, store: MapStore, asn: Optional[int],
                     hypergiant: Optional[str]) -> bytes:
        if (asn is None) == (hypergiant is None):
            raise QueryError(
                400, "exactly one of asn= and hypergiant= is required")
        return self._answer(store, "outage", (asn, hypergiant),
                            lambda: _compute_outage(store, asn, hypergiant))

    def anycast(self, service_key: str, prefix: int,
                k: int = 3) -> Dict[str, Any]:
        """``/v1/anycast``: which site serves a client prefix for one
        mapped service, and the k nearest same-organisation alternatives
        (§2.1's anycast-placement question)."""
        return json.loads(
            self._anycast_body(self.store, service_key, prefix, k))

    def _anycast_body(self, store: MapStore, service_key: str,
                      prefix: int, k: int) -> bytes:
        if k < 0:
            raise QueryError(400, f"k must be >= 0, got {k}")
        return self._answer(store, "anycast",
                            (service_key, int(prefix), int(k)),
                            lambda: _compute_anycast(
                                store, service_key, int(prefix), int(k)))

    # -- the answer cache --------------------------------------------------

    def _answer(self, store: MapStore, endpoint: str, params: Tuple,
                compute) -> bytes:
        # Cancellation checkpoint: a batched query abandons its
        # remaining targets the moment the admission deadline runs out
        # (the per-target loop in _cdf_body() re-enters here).
        deadline = getattr(self._local, "deadline", None)
        if deadline is not None:
            deadline.check()
        # Chaos injection point: stalls and eviction storms land before
        # the lock so an injected stall never serialises other handlers.
        chaos = self.chaos
        if chaos is not None:
            chaos.on_answer(self, endpoint)
        with self._lock:
            self._recorder.count(f"serve.requests.{endpoint}")
            key = (store.digest, endpoint, params)
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            try:
                answer = _encode_answer(compute())
            except ValidationError as exc:
                self._recorder.count("serve.errors")
                raise QueryError(404, str(exc)) from None
            except QueryError:
                self._recorder.count("serve.errors")
                raise
            self._cache.put(key, answer)
            return answer


def _error_body(message: str) -> bytes:
    return json.dumps({"error": message}).encode()


def _encode_answer(answer: Dict[str, Any]) -> bytes:
    """The bytes a computed answer is cached and sent as: ``json.dumps``
    with its default separators, so a body is byte-identical to
    ``json.dumps`` of the answer dict."""
    return json.dumps(answer).encode()


# -- computation (store snapshot in hand, service lock held) ----------------

def _compute_map_summary(store: MapStore) -> Dict[str, Any]:
    return {
        "digest": store.digest,
        "format_version": store.format_version,
        "seed": store.seed,
        "counts": store.counts(),
        "techniques": list(store.techniques),
        "route_predictability": store.predictability,
        "degraded_components": store.degraded_components(),
        "caveats": [{
            "component": caveat.component,
            "coverage": caveat.coverage,
            "missing_techniques": list(caveat.missing_techniques),
            "detail": caveat.detail,
        } for caveat in coverage_caveats(store)],
    }


def _compute_cdf(store: MapStore, asn: int,
                 weighted: Optional[bool]) -> Dict[str, Any]:
    contrast = store.cdf_contrast(asn)
    out: Dict[str, Any] = {"as": asn, "metric": contrast.metric_name,
                           "samples": len(contrast.weighted)}
    if weighted is not True:
        out["unweighted"] = _cdf_to_dict(contrast.unweighted)
    if weighted is not False:
        out["weighted"] = _cdf_to_dict(contrast.weighted)
    if weighted is None:
        out["median_shift"] = contrast.median_shift()
    return out


def _compute_outage(store: MapStore, asn: Optional[int],
                    hypergiant: Optional[str]) -> Dict[str, Any]:
    if asn is not None:
        return {"digest": store.digest, "kind": "as",
                "report": _outage_to_dict(store.outage_report(asn))}
    asns = store.hypergiant_asns(hypergiant)
    if len(asns) == 1:
        report = _outage_to_dict(store.outage_report(asns[0]))
        kind = "as"
    else:
        region = store.region_outage_report(asns)
        report = {
            "asns": list(region.asns),
            "activity_share": region.activity_share,
            "affected_prefix_count": region.affected_prefix_count,
            "affected_services": list(region.affected_services),
            "offnet_orgs_inside": list(region.offnet_orgs_inside),
        }
        kind = "region"
    return {"digest": store.digest, "kind": kind,
            "hypergiant": hypergiant, "asns": list(asns),
            "report": report}


def _compute_anycast(store: MapStore, service_key: str, prefix: int,
                     k: int) -> Dict[str, Any]:
    answer = store.anycast_answer(service_key, prefix, k=k)
    return {
        "digest": store.digest,
        "service": answer.service_key,
        "client_prefix": answer.client_pid,
        "host_prefix": answer.host_pid,
        "host_asn": answer.host_asn,
        "organization": answer.organization,
        "candidates": [{
            "organization": c.organization,
            "prefix_id": c.prefix_id,
            "asn": c.asn,
            "distance_km": c.distance_km,
            "is_offnet": c.is_offnet,
        } for c in answer.candidates],
    }


def _single(params: Dict[str, List[str]], name: str,
            required: bool = False) -> Optional[str]:
    values = params.get(name, [])
    if len(values) > 1:
        raise QueryError(400, f"parameter {name!r} given more than once")
    if not values:
        if required:
            raise QueryError(400, f"missing required parameter {name!r}")
        return None
    return values[0]


def _int_param(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise QueryError(
            400, f"parameter {name!r} must be an integer, "
                 f"got {raw!r}") from None


def _bool_param(raw: Optional[str], name: str) -> Optional[bool]:
    if raw is None:
        return None
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise QueryError(
        400, f"parameter {name!r} must be true or false, got {raw!r}")


def _cdf_to_dict(cdf) -> Dict[str, Any]:
    return {"points": [[x, f] for x, f in cdf.points()],
            "median": cdf.median,
            "mean": cdf.mean()}


def _outage_to_dict(report) -> Dict[str, Any]:
    return {
        "asn": report.asn,
        "activity_share": report.activity_share,
        "affected_prefix_count": report.affected_prefix_count,
        "affected_services": list(report.affected_services),
        "offnet_orgs_inside": list(report.offnet_orgs_inside),
        "alternate_transit": report.alternate_transit,
        "rerouted_service_asns": {str(k): v for k, v in
                                  report.rerouted_service_asns.items()},
        "headline": report.headline(),
    }
