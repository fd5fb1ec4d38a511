"""Deterministic serve-side chaos: seeded fault injection for the
serving path, plus a virtual-time harness that replays a whole overload
scenario bit-reproducibly.

The build path has had seeded fault injection since PR 2
(:mod:`repro.faults`); this module points the same machinery at the
query service. A :class:`ChaosEngine` wraps a
:class:`~repro.faults.FaultContext` whose single campaign is ``serve``,
so every injection decision comes from the
``substream(seed, "faults", "serve", <kind>)`` streams — two engines
built from the same plan fire bit-identical schedules, which is the
chaos determinism lock (``tests/test_serve_resilience.py``).

Injection points (the serve-side ``FaultKind``\\ s):

* ``slow_handler`` — :meth:`ChaosEngine.on_answer` stalls before the
  answer computes (simulated seconds on a
  :class:`~repro.serve.resilience.VirtualClock`, real sleep otherwise);
* ``cache_eviction_storm`` — the answer cache is flushed under the
  request, recomputing warm entries;
* ``client_disconnect`` — the transport abandons the response after
  computing it (HTTP: the connection closes without a body);
* ``artefact_corruption`` — the watcher's freshly loaded artefact is
  declared corrupt, exercising the reload-failure circuit.

:func:`run_chaos` is the deterministic driver: a single-threaded
open-loop replay on a virtual clock — seeded Poisson arrivals, shed
requests retried with jittered exponential backoff honoring the gate's
retry hint — whose outcome counts are a pure function of
``(map, queries, plan seed, chaos seed)``. Every attempt takes the
server's own request path, :meth:`~repro.serve.service.MapService.handle`,
so the harness follows its admission policy and outcome labels.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ..faults import FaultContext, FaultKind, FaultPlan
from ..obs.live import classify_status
from ..obs.recorder import Recorder, resolve_recorder
from ..rand import substream
from .loadgen import Query
from .resilience import VirtualClock
from .service import MapService

#: Campaign name the engine's draws bind to (mirrored onto the recorder
#: as ``faults.serve.*`` counters, like any build campaign).
SERVE_CAMPAIGN = "serve"


class ChaosEngine:
    """Seeded serve-side fault injector (one per service).

    Draws are serialised under a lock: the threaded HTTP server may call
    in concurrently (each run is still seeded, but interleaving follows
    request arrival), while the single-threaded :func:`run_chaos`
    harness gets fully deterministic schedules. Fired injections are
    counted per kind as ``serve.chaos.<kind>`` alongside the
    ``faults.serve.*`` unit/drop bookkeeping.
    """

    def __init__(self, plan: FaultPlan,
                 recorder: Optional[Recorder] = None,
                 clock=None, slow_handler_max_s: float = 0.2) -> None:
        self._context = FaultContext(plan)
        self._recorder = resolve_recorder(recorder)
        if recorder is not None:
            self._context.attach_recorder(self._recorder)
        self._scope = self._context.campaign(SERVE_CAMPAIGN)
        if clock is not None and hasattr(clock, "sleep"):
            self._sleep = clock.sleep
        else:
            self._sleep = time.sleep
        self.slow_handler_max_s = float(slow_handler_max_s)
        self._lock = threading.Lock()

    @property
    def plan(self) -> FaultPlan:
        """The fault plan this engine draws from."""
        return self._context.plan

    def counters(self) -> Dict[str, int]:
        """Fired-injection counts per kind (for tests and summaries)."""
        with self._lock:
            return {kind.value: counters.drops for kind, counters
                    in sorted(self._scope.by_kind.items(),
                              key=lambda item: item[0].value)}

    def _inject(self, kind: FaultKind) -> bool:
        with self._lock:
            fired = self._scope.inject(kind)
        if fired:
            self._recorder.count(f"serve.chaos.{kind.value}")
        return fired

    def on_answer(self, service: MapService, endpoint: str) -> None:
        """Per-answer injection point (called from ``_answer``).

        A slow-handler hit stalls for a seeded fraction of
        ``slow_handler_max_s`` — simulated seconds on a virtual clock,
        a real sleep against a live server — and an eviction storm
        flushes the service's answer cache.
        """
        if self._inject(FaultKind.SLOW_HANDLER):
            with self._lock:
                fraction = self._scope.draw(FaultKind.SLOW_HANDLER)
            self._sleep(self.slow_handler_max_s * fraction)
        if self._inject(FaultKind.CACHE_EVICTION_STORM):
            service.flush_cache()

    def client_disconnect(self) -> bool:
        """Does the simulated client abandon this response?"""
        return self._inject(FaultKind.CLIENT_DISCONNECT)

    def artefact_corrupted(self) -> bool:
        """Did this artefact reload land corrupt (watcher hook)?"""
        return self._inject(FaultKind.ARTEFACT_CORRUPTION)


def run_chaos(service: MapService, queries: Sequence[Query],
              arrival_rate: float, seed: int = 0,
              clock: Optional[VirtualClock] = None,
              max_attempts: int = 4,
              backoff_base_s: float = 0.2,
              backoff_cap_s: float = 5.0) -> Dict[str, Any]:
    """Replay ``queries`` open-loop through a (gated, chaos-armed)
    service on a virtual clock; deterministic in every input.

    Arrivals are Poisson at ``arrival_rate``/second (seeded exponential
    gaps); requests shed by the admission gate are retried up to
    ``max_attempts`` total tries with jittered exponential backoff that
    never undercuts the gate's ``Retry-After`` hint. The clock must be
    the same :class:`VirtualClock` the service's gate and chaos engine
    were built on, so stalls and refills share one timeline.

    Returns outcome counts (``completed``, ``shed``, ``retries``,
    ``giveups``, ``deadline_expired``, ``http_errors``,
    ``disconnects``), the chaos engine's per-kind fires, and the total
    simulated duration.
    """
    clock = clock if clock is not None else VirtualClock()
    arrivals = substream(seed, "serve", "chaos", "arrivals")
    jitter = substream(seed, "serve", "chaos", "backoff")

    # (due time, sequence, query index, attempt) — the sequence number
    # makes heap order total, so simultaneous events pop identically.
    events: List = []
    now = clock.now()
    for index in range(len(queries)):
        now += float(arrivals.exponential(1.0 / arrival_rate))
        heapq.heappush(events, (now, index, index, 1))
    sequence = len(queries)

    outcome = {"queries": len(queries), "completed": 0, "shed": 0,
               "retries": 0, "giveups": 0, "deadline_expired": 0,
               "http_errors": 0, "disconnects": 0}
    # Live telemetry rides the same virtual clock: every attempt is
    # timed in simulated seconds, so histograms are a pure function of
    # the run's inputs and same-seed runs stay bit-identical with
    # telemetry enabled. Observation never feeds back into scheduling.
    telemetry = service.telemetry
    chaos = service.chaos

    while events:
        due, __, index, attempt = heapq.heappop(events)
        clock.advance(due - clock.now())
        started = clock.now()
        reply = service.handle(queries[index].url_path())
        label = classify_status(reply.status)
        telemetry.observe(reply.endpoint, label, clock.now() - started,
                          request_id=telemetry.next_request_id(),
                          digest=reply.digest)
        if reply.status == 429:
            outcome["shed"] += 1
            if attempt >= max_attempts:
                outcome["giveups"] += 1
                continue
            backoff = min(backoff_cap_s,
                          backoff_base_s * (2.0 ** (attempt - 1)))
            # Full jitter on top of the server's hint: spread retries
            # out without ever retrying into the same refill window.
            delay = reply.retry_after + float(jitter.random()) * backoff
            outcome["retries"] += 1
            heapq.heappush(events,
                           (clock.now() + delay, sequence, index,
                            attempt + 1))
            sequence += 1
        elif reply.answered and chaos is not None \
                and chaos.client_disconnect():
            outcome["disconnects"] += 1
        elif label == "ok":
            outcome["completed"] += 1
        elif label == "deadline":
            outcome["deadline_expired"] += 1
        else:
            outcome["http_errors"] += 1
    outcome["duration_s"] = clock.now()
    if chaos is not None:
        outcome["chaos"] = chaos.counters()
    return outcome
