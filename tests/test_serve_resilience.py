"""Resilience of the serving path: admission gate, deadlines, circuit
breaker, lifecycle probes, drain, and the chaos determinism lock.

Everything that can run on a :class:`~repro.serve.resilience.VirtualClock`
does — overload scenarios play out in simulated seconds, so the suite is
fast and bit-reproducible. Only the HTTP-level tests (429 over a real
socket, drain under live load) touch real time.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.mapstore import MapStore
from repro.core.serialize import map_to_json
from repro.faults import SERVE_KINDS, FaultPlan
from repro.obs import Recorder
from repro.serve import (AdmissionError, AdmissionGate, ArtefactWatcher,
                         ChaosEngine, CircuitBreaker, Deadline,
                         DeadlineExpired, MapService, QueryError,
                         TokenBucket, VirtualClock, load_store, run_chaos,
                         seeded_queries, serve_http,
                         serve_manifest_section)


@pytest.fixture(scope="module")
def store(small_itm, small_scenario):
    return MapStore.from_map(small_itm, graph=small_scenario.graph)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        hint = bucket.try_acquire()
        assert hint == pytest.approx(0.1)
        clock.advance(0.1)          # one token refilled
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_refill_caps_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=100.0, burst=3, clock=clock)
        clock.advance(60.0)
        for __ in range(3):
            assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None, clock=VirtualClock())
        assert deadline.remaining() is None
        assert not deadline.expired
        deadline.check()            # no-op

    def test_expires_on_virtual_clock(self):
        clock = VirtualClock()
        deadline = Deadline(0.05, clock=clock)
        assert deadline.remaining() == pytest.approx(0.05)
        deadline.check()
        clock.advance(0.06)
        assert deadline.expired
        with pytest.raises(DeadlineExpired) as excinfo:
            deadline.check()
        assert excinfo.value.status == 504


class TestAdmissionGate:
    def test_rate_limit_sheds_with_retry_hint(self):
        clock = VirtualClock()
        recorder = Recorder()
        gate = AdmissionGate(max_inflight=8, rate=10.0, burst=2,
                             max_wait_s=0.0, recorder=recorder,
                             clock=clock)
        admitted = shed = 0
        for __ in range(6):
            try:
                with gate.admit():
                    admitted += 1
            except AdmissionError as exc:
                assert exc.status == 429
                assert exc.retry_after > 0.0
                shed += 1
        assert (admitted, shed) == (2, 4)
        counters = recorder.counters
        assert counters["serve.admit.offered"] == 6
        assert counters["serve.admit.admitted"] == 2
        assert counters["serve.admit.shed"] == 4

    def test_bounded_wait_admits_within_budget(self):
        clock = VirtualClock()
        gate = AdmissionGate(max_inflight=8, rate=10.0, burst=1,
                             max_wait_s=0.5, clock=clock)
        with gate.admit():
            pass
        before = clock.now()
        with gate.admit():          # waits ~0.1 simulated seconds
            pass
        assert clock.now() - before == pytest.approx(0.1)

    def test_concurrency_bound_sheds(self):
        recorder = Recorder()
        gate = AdmissionGate(max_inflight=1, max_wait_s=0.0,
                             recorder=recorder)
        first = gate.admit()
        first.__enter__()
        try:
            with pytest.raises(AdmissionError):
                with gate.admit():
                    pass
        finally:
            first.__exit__(None, None, None)
        with gate.admit():          # slot freed again
            pass
        counters = recorder.counters
        assert counters["serve.admit.offered"] == 3
        assert counters["serve.admit.admitted"] == 2
        assert counters["serve.admit.shed"] == 1
        assert gate.inflight == 0

    def test_deadline_expiry_is_counted(self):
        clock = VirtualClock()
        recorder = Recorder()
        gate = AdmissionGate(deadline_s=0.05, recorder=recorder,
                             clock=clock)
        with pytest.raises(DeadlineExpired):
            with gate.admit() as admission:
                clock.advance(0.1)
                admission.deadline.check()
        counters = recorder.counters
        assert counters["serve.admit.deadline_expired"] == 1
        assert gate.inflight == 0


class TestCircuitBreaker:
    def test_opens_after_threshold_and_closes_on_success(self):
        recorder = Recorder()
        circuit = CircuitBreaker(threshold=2, base_backoff_s=4.0,
                                 max_backoff_s=10.0, recorder=recorder)
        assert not circuit.is_open
        assert circuit.backoff_interval(1.0) == 1.0
        circuit.record_failure()
        assert not circuit.is_open
        circuit.record_failure()
        assert circuit.is_open
        assert circuit.backoff_interval(1.0) == 4.0
        circuit.record_failure()
        assert circuit.backoff_interval(1.0) == 8.0
        circuit.record_failure()
        assert circuit.backoff_interval(1.0) == 10.0   # capped
        circuit.record_success()
        assert not circuit.is_open
        assert circuit.backoff_interval(1.0) == 1.0
        counters = recorder.counters
        assert counters["serve.watch.circuit_open"] == 1
        assert counters["serve.watch.circuit_close"] == 1

    def test_backoff_never_undercuts_default(self):
        circuit = CircuitBreaker(threshold=1, base_backoff_s=0.01)
        circuit.record_failure()
        assert circuit.backoff_interval(2.0) == 2.0


class TestWatcherCircuit:
    def test_broken_rewrites_trip_and_heal(self, tmp_path, small_itm,
                                           small_scenario):
        artefact = tmp_path / "map.json"
        artefact.write_text(map_to_json(small_itm))
        recorder = Recorder()
        service = MapService(load_store(str(artefact), small_scenario),
                             recorder=recorder)
        watcher = ArtefactWatcher(service, str(artefact), small_scenario,
                                  interval=0.1, circuit_threshold=2)
        good = artefact.read_text()
        artefact.write_text("{ torn")
        for __ in range(2):
            assert watcher.poll_once() is False
        assert watcher.circuit.is_open
        assert watcher.poll_interval() > 0.1
        artefact.write_text(good + " ")   # same map, new signature
        watcher.poll_once()
        assert not watcher.circuit.is_open
        assert watcher.poll_interval() == pytest.approx(0.1)
        counters = recorder.counters
        assert counters["serve.watch.errors"] == 2
        assert counters["serve.watch.circuit_open"] == 1
        assert counters["serve.watch.circuit_close"] == 1


class TestLifecycle:
    def test_probes_and_drain(self, store):
        recorder = Recorder()
        service = MapService(store, recorder=recorder)
        assert service.alive() == {"status": "alive"}
        ready = service.ready()
        assert ready["status"] == "ok"
        assert ready["digest"] == store.digest
        service.begin_drain()
        assert service.draining
        assert service.ready()["status"] == "unavailable"
        assert "draining" in service.ready()["reasons"]
        with pytest.raises(QueryError) as excinfo:
            with service.admit():
                pass
        assert excinfo.value.status == 503
        counters = recorder.counters
        assert counters["serve.admit.drained"] >= 1

    def test_open_circuit_fails_readiness(self, store):
        service = MapService(store)
        circuit = CircuitBreaker(threshold=1)
        service.attach_watch_circuit(circuit)
        assert service.ready()["status"] == "ok"
        circuit.record_failure()
        ready = service.ready()
        assert ready["status"] == "unavailable"
        assert "watch circuit open" in ready["reasons"]
        circuit.record_success()
        assert service.ready()["status"] == "ok"

    def test_alive_even_while_draining(self, store):
        service = MapService(store)
        service.begin_drain()
        assert service.alive() == {"status": "alive"}


def _chaos_setup(store, rate: float = 0.08, chaos_seed: int = 11):
    """A gated, chaos-armed service on a fresh virtual clock."""
    clock = VirtualClock()
    recorder = Recorder()
    gate = AdmissionGate(max_inflight=4, rate=40.0, burst=8,
                         max_wait_s=0.01, deadline_s=0.15,
                         recorder=recorder, clock=clock)
    plan = FaultPlan.serve_chaos(rate=rate, seed=chaos_seed)
    chaos = ChaosEngine(plan, recorder=recorder, clock=clock,
                        slow_handler_max_s=0.3)
    service = MapService(store, recorder=recorder, gate=gate,
                         chaos=chaos)
    return service, recorder, clock


def _lock_counters(recorder):
    """The counters the chaos determinism lock gates on."""
    counters = recorder.counters
    return {name: value for name, value in sorted(counters.items())
            if name.startswith(("serve.admit.", "serve.chaos.",
                                "serve.watch.circuit_", "faults.serve."))}


class TestChaosDeterminism:
    def test_same_seed_bit_identical(self, store):
        """The chaos determinism lock: a fixed seed pair reproduces the
        full outcome — admission counters, circuit counters, per-kind
        fault fires — bit-identically across runs."""
        queries = seeded_queries(store, 150, seed=5)
        runs = []
        for __ in range(2):
            service, recorder, clock = _chaos_setup(store)
            outcome = run_chaos(service, queries, arrival_rate=120.0,
                                seed=21, clock=clock)
            runs.append((outcome, _lock_counters(recorder)))
        assert runs[0] == runs[1]
        outcome, counters = runs[0]
        # The scenario must actually exercise the machinery it locks.
        assert outcome["shed"] > 0
        assert sum(outcome["chaos"].values()) > 0
        assert counters["serve.admit.offered"] == \
            counters["serve.admit.admitted"] + \
            counters["serve.admit.shed"]

    def test_different_seed_diverges(self, store):
        queries = seeded_queries(store, 150, seed=5)
        service_a, __, clock_a = _chaos_setup(store, chaos_seed=11)
        a = run_chaos(service_a, queries, arrival_rate=120.0, seed=21,
                      clock=clock_a)
        service_b, __, clock_b = _chaos_setup(store, chaos_seed=12)
        b = run_chaos(service_b, queries, arrival_rate=120.0, seed=21,
                      clock=clock_b)
        assert a["chaos"] != b["chaos"]

    def test_outcomes_partition_queries(self, store):
        queries = seeded_queries(store, 100, seed=7)
        service, __, clock = _chaos_setup(store)
        outcome = run_chaos(service, queries, arrival_rate=80.0,
                            seed=3, clock=clock)
        assert outcome["completed"] + outcome["giveups"] \
            + outcome["deadline_expired"] + outcome["http_errors"] \
            + outcome["disconnects"] == outcome["queries"]
        assert outcome["duration_s"] > 0

    def test_serve_chaos_plan_covers_serve_kinds_only(self):
        plan = FaultPlan.serve_chaos(rate=0.1, seed=3)
        for kind in SERVE_KINDS:
            assert plan.rate_of(kind) == pytest.approx(0.1)
        assert plan.probe_loss == 0.0
        assert plan.crash_at is None


class TestManifestSection:
    def test_section_shape_and_invariants(self, store):
        service, recorder, clock = _chaos_setup(store)
        queries = seeded_queries(store, 80, seed=2)
        run_chaos(service, queries, arrival_rate=100.0, seed=4,
                  clock=clock)
        section = serve_manifest_section(recorder)
        assert section is not None
        admit = section["admit"]
        assert admit["offered"] == admit["admitted"] + admit["shed"]
        assert admit["deadline_expired"] <= admit["admitted"]
        assert set(section["http"]) == {"timeouts",
                                        "client_disconnects"}
        assert set(section["watch"]) == {"errors", "circuit_open",
                                         "circuit_close"}
        assert all(v >= 0 for v in section.get("chaos", {}).values())

    def test_no_gate_no_section(self, store):
        recorder = Recorder()
        service = MapService(store, recorder=recorder)
        service.map_summary()
        assert serve_manifest_section(recorder) is None


class TestHttpResilience:
    def test_shed_gets_429_with_retry_after(self, store):
        clock = VirtualClock()   # never advances: bucket never refills
        gate = AdmissionGate(max_inflight=8, rate=1.0, burst=1,
                             max_wait_s=0.0, clock=clock)
        service = MapService(store, gate=gate)
        httpd = serve_http(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_port}"
        try:
            with urllib.request.urlopen(base + "/v1/map",
                                        timeout=30) as response:
                assert response.status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/v1/map", timeout=30)
            assert excinfo.value.code == 429
            retry_after = excinfo.value.headers.get("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            body = json.loads(excinfo.value.read())
            assert "shed" in body["error"]
            # Probes stay reachable under overload.
            with urllib.request.urlopen(base + "/v1/healthz",
                                        timeout=30) as response:
                assert response.status == 200
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_draining_service_answers_503(self, store):
        service = MapService(store)
        httpd = serve_http(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_port}"
        try:
            service.begin_drain()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/v1/map", timeout=30)
            assert excinfo.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/v1/readyz", timeout=30)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert "draining" in body["reasons"]
            with urllib.request.urlopen(base + "/v1/healthz",
                                        timeout=30) as response:
                assert response.status == 200   # liveness unaffected
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
