"""Live telemetry for long-running services.

The batch pipeline writes its telemetry into a manifest *after* the
process exits; a long-running ``repro serve`` needs to be observable
*while* it runs.  This module provides the in-process pieces the serve
stack wires together:

* :class:`Histogram` — a fixed-bucket latency histogram with committed
  log-spaced bucket boundaries.  Counts are exact integers, merging is
  associative and commutative (bucket-wise addition), and quantile
  estimation has a documented error bound (one bucket ratio, see
  :data:`BUCKET_GROWTH`).  Because bucketing is pure arithmetic on the
  observed duration, recording durations measured on a
  :class:`~repro.serve.resilience.VirtualClock` keeps same-seed chaos
  runs bit-identical, histograms included.
* :class:`RollingWindow` — a fixed ring of 1-second buckets covering the
  last :data:`WINDOW_SECONDS` seconds, backing the live ``repro obs
  top`` view (qps, shed fraction, p50/p99 per endpoint).
* :class:`AccessLog` — structured JSONL access logs with atomic
  ``O_APPEND`` writes, rotation detection (the inode is re-checked on
  every write), and seeded sampling for high-qps runs.
* :class:`LiveTelemetry` — the facade the service owns: it assigns
  request ids, records per-(endpoint, outcome) histograms, feeds the
  rolling window, and emits access-log records.
* :func:`render_prometheus` — Prometheus text exposition (format 0.0.4)
  for counters, gauges and latency histograms, served by
  ``GET /v1/metricsz``.

Everything here follows the observability ground rule: instrumentation
observes, it never steers.  No control-flow decision in the serve stack
depends on telemetry state, so enabling it cannot change what a run
computes.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import threading
import time
from bisect import bisect_left
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..rand import substream

__all__ = [
    "ACCESS_LOG_FIELDS",
    "BUCKET_BOUNDS",
    "BUCKET_GROWTH",
    "OUTCOMES",
    "WINDOW_SECONDS",
    "AccessLog",
    "Histogram",
    "LiveTelemetry",
    "RollingWindow",
    "aggregate_access_log",
    "classify_status",
    "load_access_log",
    "render_prometheus",
]

# Committed bucket boundaries: 10 buckets per decade from 0.1 ms to
# 100 s, in seconds.  These are part of the telemetry contract — two
# histograms merge only when their boundaries are identical, and the
# manifest's latency quantiles are always one of these values (or the
# observed max), so recorded runs stay comparable across versions.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** ((i - 40) / 10) for i in range(61))

# Ratio between adjacent boundaries.  A quantile estimate is the least
# boundary at or above the order statistic it targets, so it exceeds
# that sample by at most this factor (~25.9 % relative error).
BUCKET_GROWTH: float = 10.0 ** 0.1

# Request outcomes, matching HTTP status classification (see
# :func:`classify_status`): 2xx/3xx ok, 429 shed, 504 deadline,
# everything else error.
OUTCOMES: Tuple[str, ...] = ("ok", "shed", "deadline", "error")

WINDOW_SECONDS = 60


def classify_status(status: int) -> str:
    """Map an HTTP status code onto a telemetry outcome label."""
    if status == 429:
        return "shed"
    if status == 504:
        return "deadline"
    if 200 <= status < 400:
        return "ok"
    return "error"


class Histogram:
    """Fixed-bucket histogram over non-negative durations in seconds.

    Bucket ``i`` (``0 <= i < len(bounds)``) counts values ``v`` with
    ``bounds[i-1] < v <= bounds[i]`` (bucket 0 additionally absorbs
    everything at or below the first boundary); one overflow bucket
    counts values above the last boundary.  Counts are exact integers,
    so :meth:`merge` is associative and commutative and the final state
    is independent of recording order or partitioning.

    :meth:`quantile` returns the least bucket boundary at or above the
    nearest-rank order statistic ``ceil(q * count) - 1``, clamped to
    the observed maximum.  The estimate therefore never undershoots
    that sample and overshoots it by at most a factor of
    :data:`BUCKET_GROWTH` (values beyond the last boundary report the
    exact observed maximum).  It is the repo's one latency estimator:
    server histograms, the manifest and the loadgen summaries all read
    their percentiles from here.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = BUCKET_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        if not self.bounds or any(b <= a for a, b in
                                  zip(self.bounds, self.bounds[1:])):
            raise ValueError("bounds must be strictly increasing and "
                             "non-empty")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, value_s: float) -> None:
        value = max(0.0, float(value_s))
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place and return self."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bucket boundaries")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def copy(self) -> "Histogram":
        dup = Histogram(self.bounds)
        dup.counts = list(self.counts)
        dup.count = self.count
        dup.sum = self.sum
        dup.min = self.min
        dup.max = self.max
        return dup

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile in seconds (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, float(q)))
        # Nearest-rank order statistic: at least ceil(q * count)
        # samples are <= the returned boundary.
        rank = max(0, math.ceil(q * self.count) - 1)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen > rank:
                if i >= len(self.bounds):          # overflow bucket
                    return self.max
                return min(self.bounds[i], self.max)
        return self.max                            # unreachable

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary_ms(self) -> Dict[str, Union[int, float]]:
        """Milli-second summary used by the manifest and the CLI."""
        return {
            "count": self.count,
            "p50_ms": round(self.quantile(0.5) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
            "mean_ms": round(self.mean() * 1e3, 3),
            "max_ms": round((self.max if self.count else 0.0) * 1e3, 3),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum_s": self.sum,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "counts": list(self.counts),
        }


class RollingWindow:
    """Ring of per-second buckets covering the trailing window.

    Each slot holds per-endpoint outcome counts plus a latency
    histogram over *ok* responses (sheds and errors return in
    micro-seconds and would drag the percentiles toward zero).  Slots
    are recycled lazily: writing into a slot whose second no longer
    matches resets it, so an idle service costs nothing.
    """

    def __init__(self, window_s: int = WINDOW_SECONDS) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = int(window_s)
        # slot: (second, {endpoint: {"outcomes": {...}, "hist": Histogram}})
        self._slots: List[Optional[tuple]] = [None] * self.window_s

    def record(self, endpoint: str, outcome: str, latency_s: float,
               now: float) -> None:
        second = int(now)
        idx = second % self.window_s
        slot = self._slots[idx]
        if slot is None or slot[0] != second:
            slot = (second, {})
            self._slots[idx] = slot
        stats = slot[1].get(endpoint)
        if stats is None:
            stats = _new_stats()
            slot[1][endpoint] = stats
        outcomes = stats["outcomes"]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome == "ok":
            stats["hist"].record(latency_s)

    def snapshot(self, now: float) -> Dict[str, object]:
        """Aggregate the slots inside ``(now - window, now]``."""
        horizon = int(now) - self.window_s
        merged: Dict[str, Dict[str, object]] = {}
        for slot in self._slots:
            if slot is None or slot[0] <= horizon or slot[0] > int(now):
                continue
            for endpoint, stats in slot[1].items():
                _fold(merged.setdefault(endpoint, _new_stats()), stats)
        endpoints, totals = _window_entries(merged, self.window_s)
        return {"window_s": self.window_s, "endpoints": endpoints,
                "totals": totals}


def _new_stats() -> Dict[str, object]:
    return {"outcomes": {}, "hist": Histogram()}


def _fold(into: Dict[str, object], stats: Dict[str, object]) -> None:
    outcomes = into["outcomes"]
    for outcome, n in stats["outcomes"].items():
        outcomes[outcome] = outcomes.get(outcome, 0) + n
    into["hist"].merge(stats["hist"])


def _window_entries(merged: Dict[str, Dict[str, object]],
                    rate_span_s: float) -> Tuple[Dict, Dict[str, object]]:
    """Per-endpoint and total entries of a window aggregate; the live
    window and the access log differ only in the qps denominator."""
    def entry(stats: Dict[str, object]) -> Dict[str, object]:
        outcomes = stats["outcomes"]
        hist = stats["hist"]
        requests = sum(outcomes.values())
        shed = outcomes.get("shed", 0)
        return {
            "requests": requests,
            "qps": round(requests / rate_span_s, 3),
            "shed_fraction": (round(shed / requests, 4)
                              if requests else 0.0),
            "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
            "p50_ms": round(hist.quantile(0.5) * 1e3, 3),
            "p99_ms": round(hist.quantile(0.99) * 1e3, 3),
        }

    totals = _new_stats()
    endpoints = {}
    for endpoint in sorted(merged):
        endpoints[endpoint] = entry(merged[endpoint])
        _fold(totals, merged[endpoint])
    return endpoints, entry(totals)


# Fields every access-log record carries, in the order the docs list
# them.  ``ts`` is seconds since the epoch (wall clock) except under an
# injected virtual clock, where it is virtual seconds.
ACCESS_LOG_FIELDS = ("ts", "request_id", "endpoint", "path", "status",
                     "outcome", "latency_ms", "digest")


class AccessLog:
    """Structured JSONL access log with atomic, rotation-safe appends.

    Each record is one ``json.dumps`` line written with a single
    ``os.write`` on an ``O_APPEND`` descriptor, so concurrent handler
    threads (and even separate processes sharing the file) never
    interleave partial lines.  Before every write the path's inode is
    compared against the open descriptor's; when a rotator has moved or
    deleted the file, the log transparently reopens it.  ``path="-"``
    streams to stdout instead.

    ``sample`` keeps every Nth-ish record via a seeded child RNG stream
    (``substream(seed, "serve", "access-log")``): sampling decisions are
    reproducible for a given seed and never influence serving.
    """

    def __init__(self, path: str, sample: float = 1.0, seed: int = 0)\
            -> None:
        if not 0.0 < sample <= 1.0:
            raise ValueError("sample must be in (0, 1]")
        self.path = path
        self.sample = float(sample)
        self._lock = threading.Lock()
        self._stdout = path == "-"
        self._fd: Optional[int] = None
        if not self._stdout:
            self._open()
        self._rng = (None if self.sample >= 1.0
                     else substream(seed, "serve", "access-log"))

    def _open(self) -> None:
        self._fd = os.open(self.path,
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def _maybe_reopen(self) -> None:
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            st = None
        current = os.fstat(self._fd)
        if st is None or (st.st_ino, st.st_dev) != (current.st_ino,
                                                    current.st_dev):
            os.close(self._fd)
            self._open()

    def emit(self, record: Dict[str, object]) -> bool:
        """Append one record; returns False when sampled out or closed."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._rng is not None \
                    and float(self._rng.random()) >= self.sample:
                return False
            if self._stdout:
                sys.stdout.write(line + "\n")
                sys.stdout.flush()
                return True
            if self._fd is None:
                return False
            self._maybe_reopen()
            os.write(self._fd, (line + "\n").encode("utf-8"))
            return True

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "AccessLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_access_log(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Parse a JSONL access log; returns ``(records, malformed_lines)``.

    Malformed lines (e.g. a partial final line from a live log) are
    skipped and counted rather than raised, so tailing a file that is
    still being written works.
    """
    records: List[Dict[str, object]] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                malformed += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                malformed += 1
    return records, malformed


def aggregate_access_log(records: Iterable[Dict[str, object]])\
        -> Dict[str, object]:
    """Aggregate access-log records into the rolling-window shape.

    qps is computed over the observed time span (last ``ts`` minus
    first ``ts``); latency percentiles cover ok responses only, like
    the live window.
    """
    merged: Dict[str, Dict[str, object]] = {}
    first_ts = math.inf
    last_ts = -math.inf
    total = 0
    for record in records:
        endpoint = str(record.get("endpoint", "other"))
        outcome = str(record.get("outcome", "error"))
        stats = merged.setdefault(endpoint, _new_stats())
        stats["outcomes"][outcome] = stats["outcomes"].get(outcome, 0) + 1
        total += 1
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = min(first_ts, ts)
            last_ts = max(last_ts, ts)
        latency_ms = record.get("latency_ms")
        if outcome == "ok" and isinstance(latency_ms, (int, float)):
            stats["hist"].record(latency_ms / 1e3)
    span_s = max(0.0, last_ts - first_ts) if total else 0.0
    endpoints, totals = _window_entries(merged, max(span_s, 1.0))
    return {"records": total, "span_s": round(span_s, 3),
            "endpoints": endpoints, "totals": totals}


class LiveTelemetry:
    """The service-side telemetry facade.

    ``clock`` may be ``None`` (wall clock), a callable returning
    seconds, or anything with a ``now()`` method — in particular a
    :class:`~repro.serve.resilience.VirtualClock`, which is what keeps
    seeded chaos runs bit-identical with telemetry enabled: every
    recorded duration is then pure simulated time.

    All mutation happens under one lock; reads return deep snapshots so
    scrapes never race handler threads.
    """

    def __init__(self, clock: Optional[object] = None,
                 access_log: Optional[AccessLog] = None,
                 window_s: int = WINDOW_SECONDS) -> None:
        if clock is None:
            self._now: Callable[[], float] = time.time
        elif hasattr(clock, "now"):
            self._now = clock.now
        elif callable(clock):
            self._now = clock
        else:
            raise TypeError("clock must be None, a callable, or expose "
                            "now()")
        self.access_log = access_log
        self._lock = threading.Lock()
        self._hists: Dict[Tuple[str, str], Histogram] = {}
        self._window = RollingWindow(window_s)
        self._request_seq = 0

    def now(self) -> float:
        return self._now()

    def next_request_id(self) -> str:
        with self._lock:
            self._request_seq += 1
            return f"req-{self._request_seq}"

    @property
    def empty(self) -> bool:
        with self._lock:
            return not self._hists

    def observe(self, endpoint: str, outcome: str, latency_s: float, *,
                status: Optional[int] = None, path: Optional[str] = None,
                request_id: Optional[str] = None,
                digest: Optional[str] = None) -> None:
        """Record one finished request.

        Purely observational: the histogram/window update draws no
        randomness and steers nothing, and the optional access-log
        record is emitted outside the serving path's control flow.
        """
        latency_s = max(0.0, float(latency_s))
        now = self.now()
        with self._lock:
            key = (endpoint, outcome)
            hist = self._hists.get(key)
            if hist is None:
                hist = Histogram()
                self._hists[key] = hist
            hist.record(latency_s)
            self._window.record(endpoint, outcome, latency_s, now)
        log = self.access_log
        if log is not None:
            log.emit({
                "ts": round(now, 6),
                "request_id": request_id,
                "endpoint": endpoint,
                "path": path if path is not None else f"/v1/{endpoint}",
                "status": status,
                "outcome": outcome,
                "latency_ms": round(latency_s * 1e3, 3),
                "digest": digest,
            })

    def histograms(self) -> Dict[Tuple[str, str], Histogram]:
        """Deep copy of every per-(endpoint, outcome) histogram."""
        with self._lock:
            return {key: hist.copy() for key, hist in self._hists.items()}

    def latency_snapshot(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """``{endpoint: {outcome: summary_ms}}`` with sorted keys."""
        hists = self.histograms()
        snapshot: Dict[str, Dict[str, Dict[str, object]]] = {}
        for endpoint, outcome in sorted(hists):
            snapshot.setdefault(endpoint, {})[outcome] = \
                hists[(endpoint, outcome)].summary_ms()
        return snapshot

    def window_snapshot(self) -> Dict[str, object]:
        with self._lock:
            return self._window.snapshot(self.now())

    def manifest_section(self) -> Optional[Dict[str, object]]:
        """The manifest's ``serve.latency`` block (None when empty).

        Shape: ``{"unit": "ms", "total": summary, "endpoints":
        {endpoint: {outcome: summary}}}`` where each summary carries
        exact ``count`` plus p50/p99/mean/max in milli-seconds and the
        endpoint-outcome counts sum to ``total["count"]``.
        """
        hists = self.histograms()
        if not hists:
            return None
        total = Histogram()
        endpoints: Dict[str, Dict[str, object]] = {}
        for endpoint, outcome in sorted(hists):
            hist = hists[(endpoint, outcome)]
            total.merge(hist)
            endpoints.setdefault(endpoint, {})[outcome] = hist.summary_ms()
        return {"unit": "ms", "total": total.summary_ms(),
                "endpoints": endpoints}


_METRIC_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, suffix: str = "") -> str:
    return "repro_" + _METRIC_SANITIZE.sub("_", name) + suffix


def _fmt_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(counters: Dict[str, int],
                      gauges: Dict[str, float],
                      telemetry: Optional[LiveTelemetry] = None, *,
                      digest: Optional[str] = None,
                      draining: bool = False) -> str:
    """Render a Prometheus text-format (0.0.4) exposition page.

    Counter/gauge names are sanitised (``serve.requests.cdf`` becomes
    ``repro_serve_requests_cdf_total``); latency histograms are emitted
    with cumulative ``le`` buckets at the committed boundaries plus
    ``+Inf``, labelled by endpoint and outcome.  The map digest rides
    on ``repro_serve_map_info`` so scrapes can be joined to a specific
    map build.
    """
    lines: List[str] = []
    lines.append("# HELP repro_serve_map_info Map identity; the digest "
                 "label matches the X-Map-Digest response header.")
    lines.append("# TYPE repro_serve_map_info gauge")
    lines.append('repro_serve_map_info{digest="%s"} 1' % (digest or ""))
    lines.append("# HELP repro_serve_draining 1 while the service drains "
                 "after SIGTERM/SIGINT.")
    lines.append("# TYPE repro_serve_draining gauge")
    lines.append("repro_serve_draining %d" % (1 if draining else 0))
    for name in sorted(counters):
        metric = _metric_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt_value(counters[name])}")
    for name in sorted(gauges):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value(gauges[name])}")
    if telemetry is not None:
        hists = telemetry.histograms()
        if hists:
            lines.append("# HELP repro_serve_latency_seconds Request "
                         "latency by endpoint and outcome.")
            lines.append("# TYPE repro_serve_latency_seconds histogram")
        for endpoint, outcome in sorted(hists):
            hist = hists[(endpoint, outcome)]
            labels = f'endpoint="{endpoint}",outcome="{outcome}"'
            cumulative = 0
            for bound, bucket_count in zip(hist.bounds, hist.counts):
                cumulative += bucket_count
                lines.append(
                    'repro_serve_latency_seconds_bucket{%s,le="%.6g"} %d'
                    % (labels, bound, cumulative))
            cumulative += hist.counts[-1]
            lines.append(
                'repro_serve_latency_seconds_bucket{%s,le="+Inf"} %d'
                % (labels, cumulative))
            lines.append('repro_serve_latency_seconds_sum{%s} %s'
                         % (labels, repr(hist.sum)))
            lines.append('repro_serve_latency_seconds_count{%s} %d'
                         % (labels, hist.count))
    return "\n".join(lines) + "\n"
