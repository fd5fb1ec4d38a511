"""Span timers and typed counters for instrumented map builds.

The paper's map is meant to be rebuilt continuously (§5), which makes the
build itself a measurement system — and measurement platforms live or die
by self-reporting (DIMES, SONoMA). A :class:`Recorder` collects three
kinds of signal while a build runs:

* **spans** — hierarchical wall-clock timers opened with
  ``with recorder.span("users"):``. Nested spans accumulate under dotted
  paths (``build.users.measure.cache-probing``), so the same campaign
  instrumented once shows up wherever it ran.
* **counters** — monotonically accumulated totals
  (``measure.tls-scan.certs_observed``, ``routing.cache.hits``,
  ``faults.cache-probing.retries``). Deltas may be fractional
  (retry backoff seconds).
* **gauges** — last-write-wins point-in-time values
  (``routing.cache.entries``).

With memory profiling enabled (:meth:`Recorder.start_memory_profiling`,
normally reached through ``BuilderOptions.profile_memory``), every span
additionally records two gauges from :mod:`tracemalloc`:
``mem.<path>.peak_bytes`` (the high-water mark of traced allocations
while the span — children included — was open; the max over re-entries)
and ``mem.<path>.current_bytes`` (traced bytes still live when the span
closed, last write wins).

The default everywhere is the :data:`NULL_RECORDER` singleton, whose
methods do nothing and allocate nothing: instrumentation observes and
never steers — it must not touch any random stream or branch, so an
instrumented build's map is bit-identical to an uninstrumented one
(``tests/test_obs.py`` regression-locks this against ``map_to_json``;
memory profiling is covered by the same lock).
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, TextIO


@dataclass(frozen=True)
class StageTiming:
    """Aggregated timing of one span path.

    ``path`` is the full dotted location (``build.users``); ``name`` is
    the label the span was opened with (``users``), which is what
    manifest consumers match on. ``calls`` counts how many times the
    span was entered and ``wall_s`` sums the wall-clock seconds spent
    inside it (including child spans).
    """

    path: str
    name: str
    calls: int
    wall_s: float


class Recorder:
    """Collects spans, counters and gauges during one run.

    Purely observational: a recorder never draws randomness, never
    raises out of instrumentation paths, and never changes what the
    instrumented code does. Pass ``trace`` (e.g. ``sys.stderr``) to also
    emit a live indented span log as the run proceeds.
    """

    enabled = True

    def __init__(self, trace: Optional[TextIO] = None,
                 profile_memory: bool = False) -> None:
        self._stack: List[str] = []
        # path -> [label, calls, wall_s]; insertion-ordered, which gives
        # manifests a stable "first entered" stage order.
        self._spans: Dict[str, List] = {}
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self._trace = trace
        # Per open span: the peak traced bytes seen so far *inside* it,
        # folded upward as children close (see span()).
        self._mem_peaks: List[int] = []
        self._profile_memory = False
        self._started_tracemalloc = False
        if profile_memory:
            self.start_memory_profiling()

    # -- memory profiling -------------------------------------------------

    @property
    def memory_profiling(self) -> bool:
        """Whether spans currently record tracemalloc gauges."""
        return self._profile_memory

    def start_memory_profiling(self) -> None:
        """Record per-span tracemalloc peak/current gauges from now on.

        Starts :mod:`tracemalloc` if it is not already tracing (and
        remembers having done so, so :meth:`stop_memory_profiling` only
        stops what it started). Purely observational — tracemalloc sees
        allocations but never changes them — so the bit-identity
        guarantee of instrumented builds is unaffected; the cost is the
        tracing overhead, which is why this is opt-in
        (``BuilderOptions.profile_memory``).
        """
        if self._profile_memory:
            return
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._profile_memory = True

    def stop_memory_profiling(self) -> None:
        """Stop recording memory gauges (and tracemalloc, if we own it)."""
        if not self._profile_memory:
            return
        self._profile_memory = False
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a named stage; nestable (paths join with dots)."""
        self._stack.append(name)
        path = ".".join(self._stack)
        if self._trace is not None:
            indent = "  " * (len(self._stack) - 1)
            print(f"[trace] {indent}> {name}", file=self._trace)
        # Memory participation is decided at entry so a profiler toggled
        # mid-span cannot unbalance the peak stack.
        profiling = self._profile_memory and tracemalloc.is_tracing()
        if profiling:
            _, peak_before = tracemalloc.get_traced_memory()
            if self._mem_peaks:
                # Credit the parent with its peak so far, then restart
                # the high-water mark for this span.
                self._mem_peaks[-1] = max(self._mem_peaks[-1], peak_before)
            tracemalloc.reset_peak()
            self._mem_peaks.append(0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            entry = self._spans.get(path)
            if entry is None:
                self._spans[path] = [name, 1, elapsed]
            else:
                entry[1] += 1
                entry[2] += elapsed
            if profiling:
                current, peak_now = tracemalloc.get_traced_memory()
                span_peak = max(self._mem_peaks.pop(), peak_now)
                # A span's gauge is the max over its re-entries; current
                # bytes are genuinely last-write-wins.
                key = f"mem.{path}.peak_bytes"
                self.gauges[key] = max(self.gauges.get(key, 0), span_peak)
                self.gauges[f"mem.{path}.current_bytes"] = current
                tracemalloc.reset_peak()
                if self._mem_peaks:
                    # The child's peak is also part of the parent's.
                    self._mem_peaks[-1] = max(self._mem_peaks[-1],
                                              span_peak)
            if self._trace is not None:
                indent = "  " * len(self._stack)
                print(f"[trace] {indent}< {name} ({elapsed * 1e3:.1f} ms)",
                      file=self._trace)

    def spans(self) -> List[StageTiming]:
        """All recorded stages, in first-entered order."""
        return [StageTiming(path=path, name=label, calls=calls,
                            wall_s=wall)
                for path, (label, calls, wall) in self._spans.items()]

    def stage(self, name: str) -> Optional[StageTiming]:
        """Look one stage up by label or full path (None if absent)."""
        for timing in self.spans():
            if timing.name == name or timing.path == name:
                return timing
        return None

    # -- counters and gauges ----------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        """Accumulate ``delta`` onto a named counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        self.gauges[name] = value


class NullRecorder(Recorder):
    """The do-nothing default: no state, no timing, no output.

    Every instrumented call site takes ``Optional[Recorder]`` and falls
    back to the shared :data:`NULL_RECORDER`, so uninstrumented runs pay
    only a no-op method call.
    """

    enabled = False

    def __init__(self) -> None:
        # Deliberately no state: shared singleton, nothing to collect.
        self._null_span = nullcontext()

    def span(self, name: str):  # type: ignore[override]
        return self._null_span

    def spans(self) -> List[StageTiming]:
        return []

    def stage(self, name: str) -> Optional[StageTiming]:
        return None

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def start_memory_profiling(self) -> None:
        # Never starts tracemalloc: the null recorder observes nothing.
        pass

    def stop_memory_profiling(self) -> None:
        pass

    @property
    def memory_profiling(self) -> bool:  # type: ignore[override]
        return False

    @property
    def counters(self) -> Dict[str, float]:  # type: ignore[override]
        return {}

    @property
    def gauges(self) -> Dict[str, float]:  # type: ignore[override]
        return {}


NULL_RECORDER = NullRecorder()


def resolve_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Normalise an optional recorder argument to a usable instance."""
    return recorder if recorder is not None else NULL_RECORDER
