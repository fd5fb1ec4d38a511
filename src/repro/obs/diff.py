"""Structured diffing of two run manifests: where did this build drift?

The paper frames the traffic map as a continuously rebuilt artifact
(§5), which makes the *first derivative* of every build metric — stage
wall time, campaign coverage, route-cache efficiency, peak memory — the
signal an operator actually watches. :func:`diff_manifests` takes two
comparable :class:`repro.obs.RunManifest` records (same config /
fault-plan digests; see :func:`comparability_errors`) and classifies
every change against configurable :class:`DiffThresholds` into
``ok`` / ``warn`` / ``regression`` findings, grouped by category:

* ``wall`` — per-stage wall-clock deltas (relative, with an absolute
  floor so microsecond stages cannot trip the gate);
* ``counter`` / ``gauge`` — recorder counter and gauge drift (counters
  are deterministic under a fixed seed, so *any* change is a behaviour
  change; ``faults.*.giveups``/``failures`` increases escalate to
  regressions);
* ``campaign`` — per-campaign delivery: coverage drops, campaigns that
  newly failed or stopped running;
* ``coverage`` — per-component map coverage and lost techniques;
* ``route-cache`` — hit-rate drops;
* ``checkpoint`` — snapshot reuse-ratio drops between resumed builds;
* ``memory`` — ``mem.*.peak_bytes`` growth (profiled builds only);
* ``serve`` — serving-path drift between served runs (format ≥ 4
  manifests): shed/deadline fraction increases, http/watch incident
  counters, chaos-schedule drift, and — format 5 — latency quantile
  growth from the live-telemetry histograms.

The result renders to markdown via
:func:`repro.analysis.report.render_diff_report` and gates CI through
``python -m repro compare OLD NEW --gate``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ValidationError
from .manifest import RunManifest

#: Finding severities, in escalation order.
STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_REGRESSION = "regression"

_STATUS_RANK = {STATUS_OK: 0, STATUS_WARN: 1, STATUS_REGRESSION: 2}

#: Every category a finding can carry (the CLI's --ignore vocabulary).
DIFF_CATEGORIES = ("wall", "counter", "gauge", "campaign", "coverage",
                   "route-cache", "checkpoint", "memory", "serve")


@dataclass(frozen=True)
class DiffThresholds:
    """Classification knobs for :func:`diff_manifests`.

    Ratios are relative changes against the old value (``0.15`` = 15%
    slower/bigger); drops are absolute differences of values already in
    ``[0, 1]`` (coverage, hit rate). Wall and memory findings also need
    an absolute floor (``wall_min_seconds`` / ``memory_min_bytes``) so
    noise on tiny stages never gates a build.
    """

    wall_warn_ratio: float = 0.15
    wall_regression_ratio: float = 0.40
    wall_min_seconds: float = 0.05
    counter_warn_ratio: float = 0.01
    coverage_warn_drop: float = 0.005
    coverage_regression_drop: float = 0.05
    hit_rate_warn_drop: float = 0.02
    hit_rate_regression_drop: float = 0.10
    memory_warn_ratio: float = 0.15
    memory_regression_ratio: float = 0.50
    memory_min_bytes: int = 1 << 20
    reuse_warn_drop: float = 0.25
    # Serve section: shed/deadline fractions are absolute increases of
    # values in [0, 1]; latency quantiles are relative increases with a
    # milli-second floor so micro-benchmark jitter never gates.
    serve_shed_warn_increase: float = 0.02
    serve_shed_regression_increase: float = 0.10
    serve_latency_warn_ratio: float = 0.25
    serve_latency_regression_ratio: float = 1.00
    serve_latency_min_ms: float = 5.0

    def validate(self) -> None:
        """Reject impossible orderings (warn above regression, negatives)."""
        pairs = (("wall", self.wall_warn_ratio, self.wall_regression_ratio),
                 ("coverage", self.coverage_warn_drop,
                  self.coverage_regression_drop),
                 ("hit_rate", self.hit_rate_warn_drop,
                  self.hit_rate_regression_drop),
                 ("memory", self.memory_warn_ratio,
                  self.memory_regression_ratio),
                 ("serve_shed", self.serve_shed_warn_increase,
                  self.serve_shed_regression_increase),
                 ("serve_latency", self.serve_latency_warn_ratio,
                  self.serve_latency_regression_ratio))
        for name, warn, regression in pairs:
            if warn < 0 or regression < warn:
                raise ValidationError(
                    f"thresholds: need 0 <= {name} warn <= regression "
                    f"(got {warn} / {regression})")
        if self.wall_min_seconds < 0 or self.memory_min_bytes < 0 \
                or self.counter_warn_ratio < 0 or self.reuse_warn_drop < 0 \
                or self.serve_latency_min_ms < 0:
            raise ValidationError("thresholds must be non-negative")


@dataclass(frozen=True)
class DiffFinding:
    """One classified change between two runs.

    ``old``/``new`` are None when the metric exists on only one side
    (a stage that disappeared, a campaign that newly ran).
    """

    category: str
    metric: str
    status: str
    old: Optional[float]
    new: Optional[float]
    detail: str = ""

    @property
    def delta(self) -> Optional[float]:
        """``new - old`` when both sides exist."""
        if self.old is None or self.new is None:
            return None
        return self.new - self.old

    @property
    def ratio(self) -> Optional[float]:
        """Relative change against ``old`` (None when undefined)."""
        if self.old is None or self.new is None or self.old == 0:
            return None
        return (self.new - self.old) / self.old


@dataclass
class ManifestDiff:
    """Every classified finding between two comparable runs."""

    old_created_unix: float
    new_created_unix: float
    config_hash: str
    findings: List[DiffFinding] = field(default_factory=list)
    ignored_categories: Tuple[str, ...] = ()
    forced: bool = False
    incomparable_reasons: Tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """The worst finding status (``ok`` when nothing changed)."""
        worst = STATUS_OK
        for finding in self.findings:
            if _STATUS_RANK[finding.status] > _STATUS_RANK[worst]:
                worst = finding.status
        return worst

    def regressions(self) -> List[DiffFinding]:
        """Findings classified as regressions."""
        return [f for f in self.findings
                if f.status == STATUS_REGRESSION]

    def warnings(self) -> List[DiffFinding]:
        """Findings classified as warnings."""
        return [f for f in self.findings if f.status == STATUS_WARN]

    def by_category(self) -> Dict[str, List[DiffFinding]]:
        """Findings grouped by category, insertion-ordered."""
        grouped: Dict[str, List[DiffFinding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.category, []).append(finding)
        return grouped

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the ``repro compare --json`` payload)."""
        return {
            "status": self.status,
            "config_hash": self.config_hash,
            "old_created_unix": self.old_created_unix,
            "new_created_unix": self.new_created_unix,
            "ignored_categories": list(self.ignored_categories),
            "forced": self.forced,
            "incomparable_reasons": list(self.incomparable_reasons),
            "findings": [dataclasses.asdict(f) for f in self.findings],
        }


# ---------------------------------------------------------------------------
# Comparability
# ---------------------------------------------------------------------------

def _fault_digest(manifest: RunManifest) -> Optional[str]:
    if manifest.fault_plan is None:
        return None
    return manifest.fault_plan.get("digest")


def comparability_errors(old: RunManifest,
                         new: RunManifest) -> List[str]:
    """Why these two runs must not be compared (empty when they may).

    Two runs are comparable iff their config digests match (which pins
    every scenario knob, the seed included), their fault-plan digests
    match (clean vs clean, or the same weather), and — when both record
    one — their scales match. Wall times of incomparable runs measure
    different work; diffing them produces confident nonsense, which is
    why :func:`diff_manifests` refuses without ``force=True``.
    """
    errors: List[str] = []
    if old.config_hash != new.config_hash:
        errors.append(f"config_hash differs ({old.config_hash} vs "
                      f"{new.config_hash})")
    if _fault_digest(old) != _fault_digest(new):
        errors.append(
            f"fault plans differ ({_fault_digest(old) or 'none'} vs "
            f"{_fault_digest(new) or 'none'})")
    if old.scale and new.scale and old.scale != new.scale:
        errors.append(f"scale differs ({old.scale} vs {new.scale})")
    return errors


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _classify_increase(ratio: Optional[float], delta: float,
                       warn_ratio: float, regression_ratio: float,
                       min_delta: float) -> str:
    """Severity of a bigger-is-worse metric increase."""
    if delta < min_delta:
        return STATUS_OK
    if ratio is None:
        # Appeared from zero: past the absolute floor, that is a warn.
        return STATUS_WARN
    if ratio >= regression_ratio:
        return STATUS_REGRESSION
    if ratio >= warn_ratio:
        return STATUS_WARN
    return STATUS_OK


def _classify_drop(drop: float, warn_drop: float,
                   regression_drop: float) -> str:
    """Severity of a smaller-is-worse metric drop (values in [0, 1])."""
    if drop >= regression_drop:
        return STATUS_REGRESSION
    if drop >= warn_drop:
        return STATUS_WARN
    return STATUS_OK


def _diff_wall(old: RunManifest, new: RunManifest, t: DiffThresholds,
               out: List[DiffFinding]) -> None:
    new_by_path = {s.path: s for s in new.stages}
    old_by_path = {s.path: s for s in old.stages}
    for path, stage in old_by_path.items():
        after = new_by_path.get(path)
        if after is None:
            out.append(DiffFinding(
                "wall", path, STATUS_WARN, stage.wall_s, None,
                "stage ran in the old build only"))
            continue
        delta = after.wall_s - stage.wall_s
        ratio = delta / stage.wall_s if stage.wall_s > 0 else None
        status = _classify_increase(ratio, delta, t.wall_warn_ratio,
                                    t.wall_regression_ratio,
                                    t.wall_min_seconds)
        if status == STATUS_OK and not (
                -delta >= t.wall_min_seconds and ratio is not None
                and -ratio >= t.wall_warn_ratio):
            continue        # unchanged within noise: not a finding
        detail = (f"{stage.wall_s:.3f}s -> {after.wall_s:.3f}s"
                  + ("" if ratio is None else f" ({ratio:+.0%})"))
        if status == STATUS_OK:
            detail += " (improved)"
        out.append(DiffFinding("wall", path, status, stage.wall_s,
                               after.wall_s, detail))
    for path, stage in new_by_path.items():
        if path not in old_by_path:
            out.append(DiffFinding(
                "wall", path, STATUS_WARN, None, stage.wall_s,
                "stage ran in the new build only"))


def _diff_numbers(category: str, old_values: Dict[str, float],
                  new_values: Dict[str, float], t: DiffThresholds,
                  out: List[DiffFinding]) -> None:
    """Counter/gauge drift: deterministic values, so changes matter.

    Memory gauges (``mem.*``) are classified by their own category and
    thresholds; ``faults.*.giveups``/``failures`` increases escalate to
    regressions because they are lost measurement units.
    """
    for name in sorted(set(old_values) | set(new_values)):
        before = old_values.get(name)
        after = new_values.get(name)
        if name.startswith("mem."):
            if name.endswith(".peak_bytes"):
                _diff_memory(name, before, after, t, out)
            continue
        if before == after:
            continue
        if before is None or after is None:
            out.append(DiffFinding(
                category, name, STATUS_WARN, before, after,
                "recorded in only one run"))
            continue
        ratio = ((after - before) / before) if before else None
        if ratio is not None and abs(ratio) < t.counter_warn_ratio:
            continue
        status = STATUS_WARN
        if after > before and name.startswith("faults.") and (
                name.endswith(".giveups") or name.endswith(".failures")):
            status = STATUS_REGRESSION
        detail = f"{before:g} -> {after:g}"
        if ratio is not None:
            detail += f" ({ratio:+.1%})"
        out.append(DiffFinding(category, name, status, before, after,
                               detail))


def _diff_memory(name: str, before: Optional[float],
                 after: Optional[float], t: DiffThresholds,
                 out: List[DiffFinding]) -> None:
    if before is None or after is None:
        # Profiling toggled between runs: informational only.
        out.append(DiffFinding("memory", name, STATUS_OK, before, after,
                               "memory profiling ran in only one run"))
        return
    delta = after - before
    ratio = delta / before if before > 0 else None
    status = _classify_increase(ratio, delta, t.memory_warn_ratio,
                                t.memory_regression_ratio,
                                float(t.memory_min_bytes))
    if status == STATUS_OK:
        return
    out.append(DiffFinding(
        "memory", name, status, before, after,
        f"{before / 2**20:.1f} MiB -> {after / 2**20:.1f} MiB"
        + ("" if ratio is None else f" ({ratio:+.0%})")))


def _diff_campaigns(old: RunManifest, new: RunManifest,
                    t: DiffThresholds, out: List[DiffFinding]) -> None:
    for name in sorted(set(old.campaigns) | set(new.campaigns)):
        before = old.campaigns.get(name)
        after = new.campaigns.get(name)
        if before is None or after is None:
            side = "new" if before is None else "old"
            record = after if before is None else before
            out.append(DiffFinding(
                "campaign", name, STATUS_WARN, None, None,
                f"campaign recorded in the {side} run only "
                f"(ran={record.ran})"))
            continue
        if before.ran and not after.ran:
            out.append(DiffFinding(
                "campaign", name, STATUS_REGRESSION, 1.0, 0.0,
                "campaign stopped running"))
            continue
        if after.failed and not before.failed:
            out.append(DiffFinding(
                "campaign", name, STATUS_REGRESSION, before.coverage,
                after.coverage,
                f"newly failed: {after.failure_reason or 'unknown'}"))
            continue
        if before.failed and not after.failed:
            out.append(DiffFinding(
                "campaign", name, STATUS_OK, before.coverage,
                after.coverage, "recovered from failure"))
            continue
        drop = before.coverage - after.coverage
        status = _classify_drop(drop, t.coverage_warn_drop,
                                t.coverage_regression_drop)
        if status == STATUS_OK and drop > -t.coverage_warn_drop:
            continue
        detail = f"coverage {before.coverage:.1%} -> {after.coverage:.1%}"
        if status == STATUS_OK:
            detail += " (improved)"
        out.append(DiffFinding("campaign", name, status, before.coverage,
                               after.coverage, detail))


def _diff_component_coverage(old: RunManifest, new: RunManifest,
                             t: DiffThresholds,
                             out: List[DiffFinding]) -> None:
    for component in sorted(set(old.coverage) | set(new.coverage)):
        before = old.coverage.get(component)
        after = new.coverage.get(component)
        if before is None or after is None:
            out.append(DiffFinding(
                "coverage", component, STATUS_WARN, None, None,
                "coverage recorded in only one run"))
            continue
        b_cov = float(before.get("coverage", 1.0))
        a_cov = float(after.get("coverage", 1.0))
        lost = (set(before.get("techniques_delivered", ()))
                - set(after.get("techniques_delivered", ())))
        drop = b_cov - a_cov
        status = _classify_drop(drop, t.coverage_warn_drop,
                                t.coverage_regression_drop)
        if lost:
            status = STATUS_REGRESSION
        if status == STATUS_OK and drop > -t.coverage_warn_drop:
            continue
        detail = f"coverage {b_cov:.1%} -> {a_cov:.1%}"
        if lost:
            detail += f"; lost techniques: {', '.join(sorted(lost))}"
        elif status == STATUS_OK:
            detail += " (improved)"
        out.append(DiffFinding("coverage", component, status, b_cov,
                               a_cov, detail))


def _diff_route_cache(old: RunManifest, new: RunManifest,
                      t: DiffThresholds, out: List[DiffFinding]) -> None:
    if old.route_cache is None or new.route_cache is None:
        if old.route_cache is not new.route_cache:
            out.append(DiffFinding(
                "route-cache", "route_cache", STATUS_WARN, None, None,
                "route-cache stats recorded in only one run"))
        return
    before = float(old.route_cache.get("hit_rate", 0.0))
    after = float(new.route_cache.get("hit_rate", 0.0))
    drop = before - after
    status = _classify_drop(drop, t.hit_rate_warn_drop,
                            t.hit_rate_regression_drop)
    if status == STATUS_OK and drop > -t.hit_rate_warn_drop:
        return
    detail = f"hit rate {before:.1%} -> {after:.1%}"
    if status == STATUS_OK:
        detail += " (improved)"
    out.append(DiffFinding("route-cache", "hit_rate", status, before,
                           after, detail))


def _reuse_ratio(manifest: RunManifest) -> Optional[float]:
    section = manifest.checkpoint
    if not section:
        return None
    total = int(section.get("stages_total", 0) or 0)
    if total <= 0:
        return None
    return len(section.get("stages_reused", [])) / total


def _diff_checkpoint(old: RunManifest, new: RunManifest,
                     t: DiffThresholds, out: List[DiffFinding]) -> None:
    before = _reuse_ratio(old)
    after = _reuse_ratio(new)
    if before is None or after is None:
        return      # at most one run was checkpointed: nothing to gate
    quarantined = len((new.checkpoint or {}).get("quarantined", []))
    if quarantined:
        out.append(DiffFinding(
            "checkpoint", "quarantined", STATUS_WARN, 0.0,
            float(quarantined),
            f"{quarantined} snapshot(s) failed verification"))
    drop = before - after
    if drop >= t.reuse_warn_drop:
        out.append(DiffFinding(
            "checkpoint", "reuse_ratio", STATUS_WARN, before, after,
            f"snapshot reuse {before:.0%} -> {after:.0%}"))


def _serve_fraction(section: Dict[str, object], numerator: str,
                    denominator: str) -> float:
    admit = section.get("admit", {}) or {}
    total = float(admit.get(denominator, 0) or 0)
    return float(admit.get(numerator, 0) or 0) / total if total else 0.0


#: Serve incident counters: (subsection, field, severity when increased).
_SERVE_INCIDENT_FIELDS = (
    ("http", "timeouts", STATUS_WARN),
    ("http", "client_disconnects", STATUS_WARN),
    ("watch", "errors", STATUS_WARN),
    ("watch", "circuit_open", STATUS_REGRESSION),
    ("watch", "circuit_close", STATUS_WARN),
)


def _diff_serve(old: RunManifest, new: RunManifest, t: DiffThresholds,
                out: List[DiffFinding]) -> None:
    """Serving-path drift between two served runs.

    Both runs replay the same seeded load (comparability pins the
    config digest), so the gate arithmetic, incident counters, chaos
    schedule and latency histograms are all expected to hold still;
    the thresholds say how much movement is weather and how much is a
    serving regression.
    """
    if old.serve is None and new.serve is None:
        return
    if old.serve is None or new.serve is None:
        side = "new" if old.serve is None else "old"
        out.append(DiffFinding(
            "serve", "serve", STATUS_WARN, None, None,
            f"serve section recorded in the {side} run only"))
        return
    before, after = old.serve, new.serve
    # Shed fraction of offered, deadline fraction of admitted: the two
    # gate ratios an operator actually watches.
    for metric, numerator, denominator in (
            ("admit.shed_fraction", "shed", "offered"),
            ("admit.deadline_fraction", "deadline_expired", "admitted")):
        b = _serve_fraction(before, numerator, denominator)
        a = _serve_fraction(after, numerator, denominator)
        increase = a - b
        if increase >= t.serve_shed_regression_increase:
            status = STATUS_REGRESSION
        elif increase >= t.serve_shed_warn_increase:
            status = STATUS_WARN
        elif -increase >= t.serve_shed_warn_increase:
            status = STATUS_OK         # reported, flagged as improved
        else:
            continue
        detail = f"{b:.1%} -> {a:.1%}"
        if status == STATUS_OK:
            detail += " (improved)"
        out.append(DiffFinding("serve", metric, status, b, a, detail))
    for sub, name, severity in _SERVE_INCIDENT_FIELDS:
        b = int((before.get(sub, {}) or {}).get(name, 0) or 0)
        a = int((after.get(sub, {}) or {}).get(name, 0) or 0)
        if a == b:
            continue
        status = severity if a > b else STATUS_OK
        detail = f"{b} -> {a}"
        if status == STATUS_OK:
            detail += " (improved)"
        out.append(DiffFinding("serve", f"{sub}.{name}", status,
                               float(b), float(a), detail))
    # Chaos schedules are seeded: any per-kind drift between comparable
    # runs means the injection schedule itself changed.
    old_chaos = before.get("chaos", {}) or {}
    new_chaos = after.get("chaos", {}) or {}
    for kind in sorted(set(old_chaos) | set(new_chaos)):
        b = int(old_chaos.get(kind, 0) or 0)
        a = int(new_chaos.get(kind, 0) or 0)
        if a != b:
            out.append(DiffFinding(
                "serve", f"chaos.{kind}", STATUS_WARN, float(b),
                float(a), f"seeded injection count drifted: {b} -> {a}"))
    _diff_serve_latency(before, after, t, out)


def _diff_serve_latency(before: Dict[str, object],
                        after: Dict[str, object], t: DiffThresholds,
                        out: List[DiffFinding]) -> None:
    def rows(section: Dict[str, object]) -> Dict[str, Dict[str, object]]:
        latency = section.get("latency") or {}
        flat: Dict[str, Dict[str, object]] = {}
        total = latency.get("total")
        if isinstance(total, dict):
            flat["total"] = total
        for endpoint, outcomes in (latency.get("endpoints") or {}).items():
            for outcome, summary in (outcomes or {}).items():
                if isinstance(summary, dict):
                    flat[f"{endpoint}.{outcome}"] = summary
        return flat

    old_rows = rows(before)
    new_rows = rows(after)
    if not old_rows and not new_rows:
        return
    if bool(old_rows) != bool(new_rows):
        side, idle = ("new", "old") if not old_rows else ("old", "new")
        out.append(DiffFinding(
            "serve", "latency", STATUS_WARN, None, None,
            f"latency histograms recorded in the {side} run only "
            f"(the {idle} run served no request)"))
        return
    for row in sorted(set(old_rows) & set(new_rows)):
        for quantile in ("p50_ms", "p99_ms"):
            b = float(old_rows[row].get(quantile, 0.0) or 0.0)
            a = float(new_rows[row].get(quantile, 0.0) or 0.0)
            delta = a - b
            ratio = delta / b if b > 0 else None
            status = _classify_increase(ratio, delta,
                                        t.serve_latency_warn_ratio,
                                        t.serve_latency_regression_ratio,
                                        t.serve_latency_min_ms)
            if status == STATUS_OK and not (
                    -delta >= t.serve_latency_min_ms and ratio is not None
                    and -ratio >= t.serve_latency_warn_ratio):
                continue
            detail = (f"{b:.1f} ms -> {a:.1f} ms"
                      + ("" if ratio is None else f" ({ratio:+.0%})"))
            if status == STATUS_OK:
                detail += " (improved)"
            out.append(DiffFinding("serve", f"latency.{row}.{quantile}",
                                   status, b, a, detail))


def diff_manifests(old: RunManifest, new: RunManifest,
                   thresholds: Optional[DiffThresholds] = None, *,
                   force: bool = False,
                   ignore: Iterable[str] = ()) -> ManifestDiff:
    """Classify every change from ``old`` to ``new``.

    Raises :class:`ValidationError` when the runs are incomparable
    (different config / fault-plan digests) unless ``force=True``, in
    which case the reasons are carried on the returned diff instead.
    ``ignore`` drops whole finding categories (members of
    :data:`DIFF_CATEGORIES`) before classification — e.g. ``("wall",)``
    for cross-machine comparisons where absolute times mean nothing.
    """
    t = thresholds or DiffThresholds()
    t.validate()
    ignored = tuple(ignore)
    unknown = set(ignored) - set(DIFF_CATEGORIES)
    if unknown:
        raise ValidationError(
            f"unknown diff categories {sorted(unknown)}; expected a "
            f"subset of {DIFF_CATEGORIES}")
    reasons = comparability_errors(old, new)
    if reasons and not force:
        raise ValidationError(
            "manifests are not comparable: " + "; ".join(reasons)
            + " (pass force=True / --force to compare anyway)")

    findings: List[DiffFinding] = []
    if "wall" not in ignored:
        _diff_wall(old, new, t, findings)
    if "counter" not in ignored:
        _diff_numbers("counter", old.counters, new.counters, t, findings)
    gauge_findings: List[DiffFinding] = []
    _diff_numbers("gauge", old.gauges, new.gauges, t, gauge_findings)
    findings.extend(
        f for f in gauge_findings
        if (f.category == "memory" and "memory" not in ignored)
        or (f.category == "gauge" and "gauge" not in ignored))
    if "campaign" not in ignored:
        _diff_campaigns(old, new, t, findings)
    if "coverage" not in ignored:
        _diff_component_coverage(old, new, t, findings)
    if "route-cache" not in ignored:
        _diff_route_cache(old, new, t, findings)
    if "checkpoint" not in ignored:
        _diff_checkpoint(old, new, t, findings)
    if "serve" not in ignored:
        _diff_serve(old, new, t, findings)

    return ManifestDiff(
        old_created_unix=old.created_unix,
        new_created_unix=new.created_unix,
        config_hash=new.config_hash,
        findings=findings,
        ignored_categories=ignored,
        forced=bool(reasons),
        incomparable_reasons=tuple(reasons))
