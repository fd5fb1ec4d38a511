"""Query service over a built traffic map (the §2 "ask the map" layer).

The paper's position is that a traffic map earns its keep when operators
can query it — weighted CDFs for an AS, outage blast radius, anycast
placement — so this package serves those §2 use-case questions over
plain HTTP/JSON using only the standard library:

* :mod:`repro.serve.service` — :class:`MapService`, the transport-free
  query layer: answers off a read-optimized
  :class:`repro.core.mapstore.MapStore`, memoizes through a bounded LRU
  keyed by map digest, counts everything on a :class:`repro.obs`
  recorder, and hot-swaps stores atomically under live traffic;
* :mod:`repro.serve.http` — the ``ThreadingHTTPServer`` endpoints
  (``/v1/health``, ``/v1/map``, ``/v1/cdf``, ``/v1/outage``,
  ``/v1/anycast``; see ``docs/serving.md``);
* :mod:`repro.serve.watch` — artefact watcher that reloads a map JSON
  written by a ``--mutate --resume`` rebuild and swaps it in without
  dropping requests, with a circuit breaker bounding broken-rewrite
  retries;
* :mod:`repro.serve.resilience` — overload protection: the admission
  gate (429 + ``Retry-After``), per-request deadlines (504), the
  watcher's circuit breaker and the virtual clock that makes chaos
  runs deterministic;
* :mod:`repro.serve.chaos` — seeded serve-side fault injection
  (:data:`repro.faults.SERVE_KINDS`) and the bit-reproducible
  virtual-time overload harness;
* :mod:`repro.serve.loadgen` — seeded query streams (closed- or
  open-loop, with a ``Retry-After``-honoring backoff client) and the
  latency/throughput summaries the serving benchmarks gate on.

``python -m repro serve`` wires the pieces together.
"""

from .chaos import ChaosEngine, run_chaos
from .loadgen import Query, replay, replay_http, seeded_queries
from .resilience import (AdmissionError, AdmissionGate, CircuitBreaker,
                         Deadline, DeadlineExpired, TokenBucket,
                         VirtualClock, serve_manifest_section)
from .service import MapArtefactError, MapService, QueryError, load_store
from .http import QueryServer, serve_http
from .watch import ArtefactWatcher

__all__ = [
    "AdmissionError",
    "AdmissionGate",
    "ArtefactWatcher",
    "ChaosEngine",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExpired",
    "MapArtefactError",
    "MapService",
    "Query",
    "QueryError",
    "QueryServer",
    "TokenBucket",
    "VirtualClock",
    "load_store",
    "replay",
    "replay_http",
    "run_chaos",
    "seeded_queries",
    "serve_http",
    "serve_manifest_section",
]
