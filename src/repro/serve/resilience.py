"""Overload protection and lifecycle primitives for the query service.

The serving path gets the same "defined behavior under bad weather"
treatment the build path got from :mod:`repro.faults` (PR 2):

* :class:`AdmissionGate` — a concurrency bound plus a deterministic
  token-bucket rate limit with a bounded wait budget. A request past
  capacity is *shed* with a ``Retry-After`` hint (HTTP 429) instead of
  queueing unboundedly inside the stdlib server; an admitted request
  carries a :class:`Deadline` budget and is abandoned at the next
  cancellation checkpoint once the budget expires (HTTP 504). Everything
  is surfaced as ``serve.admit.{offered,admitted,shed,deadline_expired}``
  counters in the run manifest.
* :class:`CircuitBreaker` — consecutive-failure trip wire with
  exponential backoff, used by the artefact watcher so a broken rewrite
  loop polls gently instead of at full rate
  (``serve.watch.circuit_{open,close}`` counters).
* :class:`VirtualClock` — an injectable clock/sleep pair. The gate and
  breaker take their notion of time from it, which is what makes chaos
  runs (:mod:`repro.serve.chaos`) bit-reproducible: simulated seconds
  advance identically on every run of the same seed.

Nothing here imports the transport: the HTTP layer maps
:class:`AdmissionError` to 429 + ``Retry-After`` and
:class:`DeadlineExpired` to 504, but the primitives are plain objects a
test can drive on a virtual clock without sockets.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..obs.manifest import SERVE_SECTION_FIELDS
from ..obs.recorder import NULL_RECORDER, Recorder, resolve_recorder
from .service import QueryError


class AdmissionError(QueryError):
    """Request shed at the admission gate (HTTP 429).

    ``retry_after`` is the gate's estimate, in seconds, of when capacity
    frees up — the token bucket's refill horizon, never negative. The
    HTTP layer rounds it up into a ``Retry-After`` header; the loadgen's
    backoff client honors it.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(429, message)
        self.retry_after = max(0.0, float(retry_after))


class DeadlineExpired(QueryError):
    """An admitted request outlived its deadline budget (HTTP 504).

    Raised from a cancellation checkpoint (:meth:`Deadline.check`); the
    computation is abandoned there, so a batched query stops burning
    capacity on targets nobody will receive.
    """

    def __init__(self, message: str = "deadline expired") -> None:
        super().__init__(504, message)


class VirtualClock:
    """A deterministic clock: ``sleep`` advances time instead of waiting.

    Injected into :class:`AdmissionGate`, :class:`CircuitBreaker` and the
    chaos harness so a whole overload scenario runs in simulated seconds
    — bit-identical across runs and fast enough for tier-1 tests.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current simulated time in seconds."""
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        """Advance simulated time; never blocks."""
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (negative is a no-op)."""
        with self._lock:
            self._now += max(0.0, float(seconds))


class Deadline:
    """A per-request time budget with explicit cancellation checkpoints.

    Compute paths call :meth:`check` at natural abandonment points (per
    cached answer, per batch target); past the budget the checkpoint
    raises :class:`DeadlineExpired` and the rest of the computation is
    skipped. ``None`` budget means unbounded (checkpoints are no-ops).
    """

    def __init__(self, budget_s: Optional[float], clock=None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.budget_s = None if budget_s is None else float(budget_s)
        self.expires_at = (None if self.budget_s is None
                           else self._now() + self.budget_s)

    def _now(self) -> float:
        clock = self._clock
        return clock.now() if hasattr(clock, "now") else clock()

    def remaining(self) -> Optional[float]:
        """Seconds left in the budget (None when unbounded)."""
        if self.expires_at is None:
            return None
        return self.expires_at - self._now()

    @property
    def expired(self) -> bool:
        """True once the budget has run out."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self) -> None:
        """Cancellation checkpoint: raise if the budget is gone."""
        if self.expired:
            raise DeadlineExpired(
                f"deadline of {self.budget_s:.3f}s expired")


class TokenBucket:
    """A deterministic token bucket: ``rate`` tokens/second, ``burst``
    capacity, refilled lazily from the injected clock.

    Not thread-safe on its own — :class:`AdmissionGate` serialises calls
    under its lock. Determinism: the token count is a pure function of
    the acquisition times, so identical request schedules (virtual-time
    chaos runs) shed identically.
    """

    def __init__(self, rate: float, burst: int, clock=None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(int(burst))
        self._clock = clock if clock is not None else time.monotonic
        self._tokens = self.burst
        self._updated = self._now()

    def _now(self) -> float:
        clock = self._clock
        return clock.now() if hasattr(clock, "now") else clock()

    def _refill(self) -> None:
        now = self._now()
        if now > self._updated:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def try_acquire(self) -> float:
        """Take one token if available.

        Returns 0.0 on success, else the seconds until the next token
        exists — the ``Retry-After`` hint for a shed request.
        """
        self._refill()
        # Epsilon absorbs float error when a caller slept exactly the
        # returned horizon: the refill then lands at 1.0 - ~1e-16
        # tokens, and an exact >= 1.0 test would spin on ever-smaller
        # waits instead of granting.
        if self._tokens >= 1.0 - 1e-9:
            self._tokens = max(0.0, self._tokens - 1.0)
            return 0.0
        return (1.0 - self._tokens) / self.rate


class AdmissionGate:
    """Bounded admission for the serving path.

    A request is admitted when (a) fewer than ``max_inflight`` requests
    are currently inside the gate and (b) the token bucket grants a
    token, possibly after waiting up to ``max_wait_s`` simulated/real
    seconds. Otherwise it is shed with :class:`AdmissionError` carrying
    the refill horizon as the retry hint. Admitted requests receive a
    :class:`Deadline` of ``deadline_s`` seconds.

    Counters (mirrored into the run manifest's ``serve`` section):
    ``serve.admit.offered`` / ``.admitted`` / ``.shed`` /
    ``.deadline_expired``.
    """

    def __init__(self, max_inflight: int = 64,
                 rate: Optional[float] = None, burst: Optional[int] = None,
                 max_wait_s: float = 0.05,
                 deadline_s: Optional[float] = None,
                 recorder: Optional[Recorder] = None,
                 clock=None, sleep=None) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight!r}")
        self.max_inflight = int(max_inflight)
        self.deadline_s = deadline_s
        self.max_wait_s = max(0.0, float(max_wait_s))
        self._clock = clock if clock is not None else time.monotonic
        if sleep is not None:
            self._sleep = sleep
        elif hasattr(self._clock, "sleep"):
            self._sleep = self._clock.sleep
        else:
            self._sleep = time.sleep
        self._bucket = (None if rate is None else TokenBucket(
            rate, burst if burst is not None else max(1, int(rate)),
            clock=self._clock))
        self._recorder = resolve_recorder(recorder)
        self._lock = threading.Lock()
        self._inflight = 0
        self._drained = threading.Condition(self._lock)

    @property
    def inflight(self) -> int:
        """Requests currently inside the gate."""
        with self._lock:
            return self._inflight

    def _shed(self, reason: str, retry_after: float) -> AdmissionError:
        self._recorder.count("serve.admit.shed")
        return AdmissionError(f"{reason}: request shed",
                              retry_after=retry_after)

    def _acquire(self) -> None:
        self._recorder.count("serve.admit.offered")
        waited = 0.0
        while True:
            with self._lock:
                # Concurrency bound first: wait on the release condition
                # (real time — only the threaded server ever fills the
                # gate; the single-threaded chaos harness never blocks
                # here, keeping virtual-time runs deterministic).
                slot_deadline = time.monotonic() + max(
                    0.0, self.max_wait_s - waited)
                while self._inflight >= self.max_inflight:
                    remaining = slot_deadline - time.monotonic()
                    if remaining <= 0:
                        hint = (1.0 / self._bucket.rate
                                if self._bucket is not None
                                else max(self.max_wait_s, 0.05))
                        raise self._shed("over capacity", hint)
                    self._drained.wait(remaining)
                needed = (self._bucket.try_acquire()
                          if self._bucket is not None else 0.0)
                if needed <= 0.0:
                    self._inflight += 1
                    self._recorder.count("serve.admit.admitted")
                    return
            # Token refill horizon: sleep on the injected clock so a
            # virtual-time run waits in simulated seconds.
            if waited + needed > self.max_wait_s:
                raise self._shed("rate limit", needed)
            self._sleep(needed)
            waited += needed

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
            self._drained.notify_all()

    def admit(self) -> "_Admission":
        """Context manager guarding one request.

        Raises :class:`AdmissionError` (already counted as shed) when the
        request cannot be admitted within the wait budget. On the way
        out, a :class:`DeadlineExpired` escaping the handler is counted
        as ``serve.admit.deadline_expired``.
        """
        return _Admission(self)

    def deadline(self) -> Deadline:
        """A fresh per-request deadline on this gate's clock."""
        return Deadline(self.deadline_s, clock=self._clock)


class _Admission:
    """The context manager :meth:`AdmissionGate.admit` returns."""

    def __init__(self, gate: AdmissionGate) -> None:
        self._gate = gate
        self.deadline: Optional[Deadline] = None

    def __enter__(self) -> "_Admission":
        self._gate._acquire()
        self.deadline = self._gate.deadline()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._gate._release()
        if exc_type is not None and issubclass(exc_type, DeadlineExpired):
            self._gate._recorder.count("serve.admit.deadline_expired")
        return False


class CircuitBreaker:
    """Consecutive-failure circuit with exponential backoff.

    ``threshold`` consecutive failures open the circuit; while open,
    :meth:`backoff_interval` grows exponentially (doubling per further
    failure, capped at ``max_backoff_s``) so the caller polls gently.
    The first success closes it again. Counters:
    ``<prefix>.circuit_open`` / ``<prefix>.circuit_close``.
    """

    def __init__(self, threshold: int = 3, base_backoff_s: float = 1.0,
                 max_backoff_s: float = 60.0,
                 recorder: Optional[Recorder] = None,
                 counter_prefix: str = "serve.watch") -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold!r}")
        self.threshold = int(threshold)
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self._recorder = resolve_recorder(recorder)
        self._prefix = counter_prefix
        self._lock = threading.Lock()
        self._failures = 0

    @property
    def is_open(self) -> bool:
        """True while the circuit is tripped."""
        with self._lock:
            return self._failures >= self.threshold

    def record_failure(self) -> None:
        """One more consecutive failure; may open the circuit."""
        with self._lock:
            self._failures += 1
            if self._failures == self.threshold:
                self._recorder.count(f"{self._prefix}.circuit_open")

    def record_success(self) -> None:
        """A success: close the circuit if it was open."""
        with self._lock:
            if self._failures >= self.threshold:
                self._recorder.count(f"{self._prefix}.circuit_close")
            self._failures = 0

    def backoff_interval(self, default: float) -> float:
        """The caller's poll interval right now.

        ``default`` while closed; exponential in the failures past the
        threshold while open, capped at ``max_backoff_s`` (and never
        below ``default`` — backoff may only slow polling down).
        """
        with self._lock:
            if self._failures < self.threshold:
                return default
            exponent = self._failures - self.threshold
            backoff = self.base_backoff_s * (2.0 ** exponent)
            return max(default, min(backoff, self.max_backoff_s))


def serve_manifest_section(recorder: Recorder,
                           telemetry=None) -> Optional[Dict[str, Any]]:
    """The manifest's ``serve`` section from a recorder.

    Collects the serving-path counters into the nested shape
    ``{admit: {...}, http: {...}, watch: {...}, chaos: {...}}`` that
    :func:`repro.obs.manifest.validate_manifest` checks. With a
    :class:`repro.obs.live.LiveTelemetry` attached, its histogram
    summaries land in a ``latency`` subsection. Returns ``None`` when
    the recorder saw no admission gate at all (e.g. a plain build)
    *and* no telemetry samples were recorded.
    """
    if recorder is NULL_RECORDER or not recorder.enabled:
        return None
    counters = recorder.counters

    def take(name: str) -> int:
        return int(counters.get(name, 0))

    latency = telemetry.manifest_section() if telemetry is not None \
        else None
    if latency is None \
            and not any(name.startswith("serve.admit.")
                        for name in counters):
        return None
    section: Dict[str, Any] = {
        sub: {name: take(f"serve.{sub}.{name}") for name in fields}
        for sub, fields in SERVE_SECTION_FIELDS.items()}
    chaos = {name.split(".", 2)[2]: int(value)
             for name, value in sorted(counters.items())
             if name.startswith("serve.chaos.")}
    if chaos:
        section["chaos"] = chaos
    if latency is not None:
        section["latency"] = latency
    return section
