"""Per-run manifests: what a build did, machine-readable.

A :class:`RunManifest` is the provenance record written next to a map
(``python -m repro --metrics out.json``): which config (by hash) and seed
produced it, under which fault plan, how long each stage took, what every
campaign sent/dropped/retried, how the route cache behaved, and what
coverage each map component ended up with. It is plain JSON — no
dependencies beyond the standard library — so dashboards, CI checks and
benchmark harnesses can consume it without importing the package.

Schema (``format_version`` 5), field by field, is documented in
``docs/observability.md``; :func:`validate_manifest` enforces it and the
counter invariants (e.g. per campaign ``units == delivered + giveups``,
for checkpointed runs ``reused + recomputed == total`` stages, and for
served runs ``offered == admitted + shed`` at the admission gate).
Only the current format is accepted: a manifest written by an older
release is rejected, and regenerating it is the upgrade path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ValidationError
from .recorder import Recorder, StageTiming

FORMAT_VERSION = 5

# The eleven measurement campaigns of repro.measure, by their canonical
# names. Kept as literals (not imports) so the manifest layer stays
# import-light and cycle-free; tests/test_obs.py cross-checks these
# against the *_CAMPAIGN constants in the campaign modules.
KNOWN_CAMPAIGNS = (
    "cache-probing",
    "root-logs",
    "tls-scan",
    "sni-scan",
    "ecs-mapping",
    "catchment-probing",
    "atlas-platform",
    "cloud-vantage",
    "ipid-monitoring",
    "resolver-association",
    "reverse-traceroute",
)

_CAMPAIGN_COUNTER_FIELDS = ("units", "attempts", "drops", "retries",
                            "giveups", "delivered")


@dataclass
class CampaignRecord:
    """One campaign's row in the manifest.

    Counter semantics match :class:`repro.faults.FaultCounters`:
    ``delivered = units - giveups`` and ``coverage = delivered / units``
    (1.0 when no units were at risk). ``wall_s`` is None when the
    campaign never opened a span this run.
    """

    ran: bool = False
    failed: bool = False
    failure_reason: Optional[str] = None
    units: int = 0
    attempts: int = 0
    drops: int = 0
    retries: int = 0
    giveups: int = 0
    delivered: int = 0
    backoff_s: float = 0.0
    coverage: float = 1.0
    wall_s: Optional[float] = None


@dataclass
class RunManifest:
    """The serializable provenance record of one instrumented run."""

    seed: int
    config_hash: str
    format_version: int = FORMAT_VERSION
    created_unix: float = 0.0
    command: Optional[str] = None
    scale: Optional[str] = None
    fault_plan: Optional[Dict[str, object]] = None
    stages: List[StageTiming] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    campaigns: Dict[str, CampaignRecord] = field(default_factory=dict)
    route_cache: Optional[Dict[str, float]] = None
    coverage: Dict[str, Dict[str, object]] = field(default_factory=dict)
    # Checkpoint lineage (checkpointed runs only): where the
    # run resumed from, which stages were reused vs recomputed, and any
    # snapshots that failed verification and were quarantined.
    checkpoint: Optional[Dict[str, object]] = None
    # Delta lineage (delta builds only): the mutation plan's
    # digest/kinds/aspects and the per-stage input digests that decided
    # which snapshots were reused (see repro.delta and docs/delta.md).
    delta: Optional[Dict[str, object]] = None
    # Serving-path resilience counters (served runs only):
    # admission gate outcomes, HTTP-transport aborts, watcher circuit
    # transitions and chaos injections (see repro.serve.resilience and
    # docs/serving.md).
    serve: Optional[Dict[str, object]] = None

    # -- lookups ----------------------------------------------------------

    def stage(self, name: str) -> Optional[StageTiming]:
        """A stage by span label or full dotted path (None if absent)."""
        for timing in self.stages:
            if timing.name == name or timing.path == name:
                return timing
        return None

    def campaign(self, name: str) -> CampaignRecord:
        try:
            return self.campaigns[name]
        except KeyError:
            raise ValidationError(
                f"manifest has no campaign {name!r}") from None

    def campaigns_ran(self) -> List[str]:
        return sorted(n for n, rec in self.campaigns.items() if rec.ran)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["stages"] = [dataclasses.asdict(s) for s in self.stages]
        payload["campaigns"] = {
            name: dataclasses.asdict(rec)
            for name, rec in self.campaigns.items()}
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunManifest":
        validate_manifest(payload)
        stages = [StageTiming(path=s["path"], name=s["name"],
                              calls=int(s["calls"]),
                              wall_s=float(s["wall_s"]))
                  for s in payload["stages"]]
        campaigns = {
            name: CampaignRecord(**rec)
            for name, rec in payload["campaigns"].items()}
        return cls(
            seed=int(payload["seed"]),
            config_hash=str(payload["config_hash"]),
            format_version=int(payload["format_version"]),
            created_unix=float(payload.get("created_unix", 0.0)),
            command=payload.get("command"),
            scale=payload.get("scale"),
            fault_plan=payload.get("fault_plan"),
            stages=stages,
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            campaigns=campaigns,
            route_cache=payload.get("route_cache"),
            coverage=dict(payload.get("coverage", {})),
            checkpoint=payload.get("checkpoint"),
            delta=payload.get("delta"),
            serve=payload.get("serve"))

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as handle:
            return cls.from_json(handle.read())


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def config_digest(config) -> str:
    """Stable hash of a :class:`ScenarioConfig` (sub-configs included).

    Two runs share a ``config_hash`` iff every knob matched, which is
    what makes manifests comparable across machines and sessions.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def fault_plan_digest(plan) -> str:
    """Stable hash of a :class:`FaultPlan` (rates, seed and retry).

    ``crash_at`` is deliberately *excluded*: a crash schedule changes
    where a build dies, never what any completed stage computed, so a
    supervisor re-run (crash armed) may reuse snapshots written by —
    and comparable with — an uninterrupted build of the same weather.
    """
    fields = dataclasses.asdict(plan)
    fields.pop("crash_at", None)
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def options_digest(options) -> str:
    """Stable hash of a :class:`repro.core.builder.BuilderOptions`.

    Joins ``config_digest``/``fault_plan_digest`` in checkpoint snapshot
    envelopes: a snapshot written under different technique selections or
    budgets must not satisfy a resume.

    ``profile_memory`` is deliberately *excluded* (mirroring how
    ``crash_at`` is excluded from :func:`fault_plan_digest`): memory
    profiling observes allocations without changing any stage's output,
    so profiled and unprofiled builds of the same options may share
    snapshots and are comparable in the run-history registry.
    """
    fields = dataclasses.asdict(options)
    fields.pop("profile_memory", None)
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

def collect_manifest(recorder: Recorder, config, *, faults=None,
                     cache_stats=None, itm=None, checkpoint=None,
                     delta=None, serve=None,
                     command: Optional[str] = None,
                     scale: Optional[str] = None) -> RunManifest:
    """Fold a run's recorder, fault context and map into one manifest.

    ``faults`` is an optional :class:`repro.faults.FaultContext`;
    ``cache_stats`` an optional :class:`repro.net.routing.CacheStats`;
    ``itm`` an optional built :class:`InternetTrafficMap` (its coverage
    report becomes the manifest's ``coverage`` section); ``checkpoint``
    an optional :class:`repro.ckpt.CheckpointLineage` (or its dict form)
    for checkpointed builds; ``delta`` the delta-lineage dict of an
    incremental build (``MapBuilder._delta_lineage``); ``serve`` the
    serving-path counter section a ``repro serve`` run assembles via
    :func:`repro.serve.resilience.serve_manifest_section`. All are
    duck-typed so this module imports nothing above ``repro.errors``.
    """
    manifest = RunManifest(
        seed=int(config.seed),
        config_hash=config_digest(config),
        created_unix=time.time(),
        command=command,
        scale=scale,
        stages=recorder.spans(),
        counters=dict(recorder.counters),
        gauges=dict(recorder.gauges))

    scopes = {}
    if faults is not None:
        scopes = faults.scopes()
        if not faults.is_null:
            plan = faults.plan
            manifest.fault_plan = {
                "describe": plan.describe(),
                "seed": int(plan.seed),
                "digest": fault_plan_digest(plan),
                "retry_attempts": int(faults.retry.max_attempts),
                "backoff_base_s": float(faults.retry.backoff_base_s),
            }

    for name in list(KNOWN_CAMPAIGNS) + sorted(
            set(scopes) - set(KNOWN_CAMPAIGNS)):
        stage = recorder.stage(f"measure.{name}")
        scope = scopes.get(name)
        record = CampaignRecord(
            ran=stage is not None,
            wall_s=None if stage is None else stage.wall_s)
        if scope is not None:
            counters = scope.counters
            record.ran = record.ran or counters.units > 0 or scope.failed
            record.failed = scope.failed
            record.failure_reason = scope.failure_reason
            record.units = counters.units
            record.attempts = counters.attempts
            record.drops = counters.drops
            record.retries = counters.retries
            record.giveups = counters.giveups
            record.delivered = counters.delivered
            record.backoff_s = counters.backoff_s
            record.coverage = scope.coverage
        manifest.campaigns[name] = record

    if cache_stats is not None:
        manifest.route_cache = {
            "entries": int(cache_stats.entries),
            "max_entries": int(cache_stats.max_entries),
            "hits": int(cache_stats.hits),
            "misses": int(cache_stats.misses),
            "evictions": int(cache_stats.evictions),
            "hit_rate": float(cache_stats.hit_rate),
        }

    if itm is not None:
        for component, cov in itm.coverage.items():
            manifest.coverage[component] = {
                "coverage": float(cov.coverage),
                "techniques_intended": list(cov.techniques_intended),
                "techniques_delivered": list(cov.techniques_delivered),
                "notes": list(cov.notes),
            }

    if checkpoint is not None:
        manifest.checkpoint = (checkpoint if isinstance(checkpoint, dict)
                               else checkpoint.to_dict())
    if delta is not None:
        manifest.delta = dict(delta)
    if serve is not None:
        manifest.serve = dict(serve)
    return manifest


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check(errors: List[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def _validate_checkpoint(errors: List[str],
                         section: Dict[str, object]) -> None:
    """Schema + invariants of the checkpoint-lineage section."""
    if not isinstance(section, dict):
        errors.append("checkpoint must be an object or null")
        return
    _check(errors, isinstance(section.get("checkpoint_dir"), str),
           "checkpoint.checkpoint_dir must be a string")
    _check(errors, isinstance(section.get("resumed"), bool),
           "checkpoint.resumed must be a boolean")
    total = section.get("stages_total")
    _check(errors, isinstance(total, int) and total >= 0,
           "checkpoint.stages_total must be a non-negative integer")
    lists: Dict[str, List[object]] = {}
    for key in ("stages_reused", "stages_recomputed"):
        value = section.get(key)
        if not isinstance(value, list) or not all(
                isinstance(s, str) for s in value):
            errors.append(f"checkpoint.{key} must be a list of stage "
                          "names")
            continue
        lists[key] = value
    if len(lists) == 2 and isinstance(total, int):
        reused, recomputed = (lists["stages_reused"],
                              lists["stages_recomputed"])
        # Name the stage lists, not just their lengths: when a lineage
        # is inconsistent the reader needs to see *which* stages were
        # claimed on each side to find the double-counted or dropped one.
        _check(errors, len(reused) + len(recomputed) == total,
               "checkpoint: reused + recomputed != stages_total "
               f"({len(reused)} + {len(recomputed)} != {total}; "
               f"stages_reused={reused!r}, "
               f"stages_recomputed={recomputed!r})")
        overlap = sorted(set(reused) & set(recomputed))
        _check(errors, not overlap,
               "checkpoint: stages cannot be both reused and recomputed: "
               f"{overlap!r}")
    quarantined = section.get("quarantined", [])
    if not isinstance(quarantined, list):
        errors.append("checkpoint.quarantined must be a list")
        return
    for i, entry in enumerate(quarantined):
        if not isinstance(entry, dict):
            errors.append(f"checkpoint.quarantined[{i}] must be an object")
            continue
        _check(errors, isinstance(entry.get("stage"), str)
               and isinstance(entry.get("reason"), str),
               f"checkpoint.quarantined[{i}] needs string stage/reason")


def _validate_delta(errors: List[str],
                    section: Dict[str, object]) -> None:
    """Schema + invariants of the delta-lineage section (format 3)."""
    if not isinstance(section, dict):
        errors.append("delta must be an object or null")
        return
    digest = section.get("mutation_digest")
    _check(errors, isinstance(digest, str) and len(digest) >= 8,
           "delta.mutation_digest must be a hex string")
    count = section.get("mutation_count")
    _check(errors, isinstance(count, int) and count >= 0,
           "delta.mutation_count must be a non-negative integer")
    for key in ("kinds", "aspects", "stages_reused",
                "stages_recomputed"):
        value = section.get(key)
        _check(errors, isinstance(value, list) and all(
                   isinstance(s, str) for s in value),
               f"delta.{key} must be a list of strings")
    reused = section.get("stages_reused")
    recomputed = section.get("stages_recomputed")
    if isinstance(reused, list) and isinstance(recomputed, list):
        overlap = sorted(set(reused) & set(recomputed))
        _check(errors, not overlap,
               "delta: stages cannot be both reused and recomputed: "
               f"{overlap!r}")
    digests = section.get("input_digests")
    if not isinstance(digests, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in digests.items()):
        errors.append("delta.input_digests must map stage names to "
                      "digests")


#: The serve section's counter subsections, in section order; each
#: field is the recorder counter ``serve.<subsection>.<field>``.
SERVE_SECTION_FIELDS = {
    "admit": ("offered", "admitted", "shed", "deadline_expired"),
    "http": ("timeouts", "client_disconnects"),
    "watch": ("errors", "circuit_open", "circuit_close"),
}


def _validate_serve(errors: List[str],
                    section: Dict[str, object]) -> None:
    """Schema + invariants of the serve section (format ≥ 4)."""
    if not isinstance(section, dict):
        errors.append("serve must be an object or null")
        return
    for name, fields in SERVE_SECTION_FIELDS.items():
        sub = section.get(name)
        if not isinstance(sub, dict):
            errors.append(f"serve.{name} must be an object")
            continue
        for field_name in fields:
            value = sub.get(field_name)
            _check(errors, isinstance(value, int) and value >= 0,
                   f"serve.{name}.{field_name} must be a non-negative "
                   "integer")
    admit = section.get("admit")
    if isinstance(admit, dict) and all(
            isinstance(admit.get(f), int)
            for f in SERVE_SECTION_FIELDS["admit"]):
        _check(errors,
               admit["offered"] == admit["admitted"] + admit["shed"],
               "serve.admit: offered != admitted + shed "
               f"({admit['offered']} != {admit['admitted']} + "
               f"{admit['shed']})")
        _check(errors, admit["deadline_expired"] <= admit["admitted"],
               "serve.admit: deadline_expired exceeds admitted")
    chaos = section.get("chaos")
    if chaos is not None and (not isinstance(chaos, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v >= 0
            for k, v in chaos.items())):
        errors.append("serve.chaos must map fault kinds to non-negative "
                      "integers")
    latency = section.get("latency")
    if latency is not None:
        _validate_serve_latency(errors, latency)


_LATENCY_SUMMARY_FIELDS = ("count", "p50_ms", "p99_ms", "mean_ms",
                           "max_ms")


def _validate_latency_summary(errors: List[str], prefix: str,
                              summary: object) -> Optional[int]:
    """One histogram summary; returns its count when well-formed."""
    if not isinstance(summary, dict):
        errors.append(f"{prefix} must be an object")
        return None
    ok = True
    for name in _LATENCY_SUMMARY_FIELDS:
        value = summary.get(name)
        if name == "count":
            good = isinstance(value, int) and value >= 0
        else:
            good = (isinstance(value, (int, float))
                    and not isinstance(value, bool) and value >= 0)
        if not good:
            errors.append(f"{prefix}.{name} must be a non-negative "
                          f"{'integer' if name == 'count' else 'number'}")
            ok = False
    if ok:
        _check(errors, summary["p50_ms"] <= summary["p99_ms"],
               f"{prefix}: p50_ms exceeds p99_ms")
        _check(errors, summary["p99_ms"] <= summary["max_ms"] or
               summary["count"] == 0,
               f"{prefix}: p99_ms exceeds max_ms")
    return summary.get("count") if ok else None


def _validate_serve_latency(errors: List[str], latency: object) -> None:
    """Schema + invariants of serve.latency (format 5, live telemetry).

    Shape: ``{"unit": "ms", "total": summary, "endpoints": {endpoint:
    {outcome: summary}}}``; the per-(endpoint, outcome) counts must sum
    to the total count, because every summary derives from the same
    exact-count histograms (:class:`repro.obs.live.Histogram`).
    """
    if not isinstance(latency, dict):
        errors.append("serve.latency must be an object or null")
        return
    _check(errors, latency.get("unit") == "ms",
           "serve.latency.unit must be 'ms'")
    total = _validate_latency_summary(errors, "serve.latency.total",
                                      latency.get("total"))
    endpoints = latency.get("endpoints")
    if not isinstance(endpoints, dict):
        errors.append("serve.latency.endpoints must be an object")
        return
    summed = 0
    complete = total is not None
    for endpoint, outcomes in endpoints.items():
        if not isinstance(outcomes, dict) or not outcomes:
            errors.append(f"serve.latency.endpoints.{endpoint} must be "
                          "a non-empty object of outcome summaries")
            complete = False
            continue
        for outcome, summary in outcomes.items():
            count = _validate_latency_summary(
                errors, f"serve.latency.endpoints.{endpoint}.{outcome}",
                summary)
            if count is None:
                complete = False
            else:
                summed += count
    if complete:
        _check(errors, summed == total,
               "serve.latency: endpoint-outcome counts sum to "
               f"{summed}, total.count is {total}")


def validate_manifest(payload: Dict[str, object]) -> None:
    """Check a manifest dict against the current format's schema.

    Raises :class:`ValidationError` listing every violation found:
    missing/ill-typed fields, malformed stage entries, broken counter
    invariants (``units == delivered + giveups``, coverages outside
    ``[0, 1]``), and an inconsistent checkpoint-lineage section
    (``reused + recomputed != stages_total``).
    """
    errors: List[str] = []
    _check(errors, isinstance(payload, dict), "manifest must be an object")
    if errors:
        raise ValidationError("; ".join(errors))

    version = payload.get("format_version")
    _check(errors, version == FORMAT_VERSION,
           f"format_version must be {FORMAT_VERSION}, got {version!r}")
    _check(errors, isinstance(payload.get("seed"), int),
           "seed must be an integer")
    config_hash = payload.get("config_hash")
    _check(errors, isinstance(config_hash, str) and len(config_hash) >= 8,
           "config_hash must be a hex string")

    stages = payload.get("stages")
    if not isinstance(stages, list):
        errors.append("stages must be a list")
    else:
        for i, stage in enumerate(stages):
            if not isinstance(stage, dict):
                errors.append(f"stages[{i}] must be an object")
                continue
            _check(errors, isinstance(stage.get("path"), str)
                   and isinstance(stage.get("name"), str),
                   f"stages[{i}] needs string path/name")
            _check(errors, isinstance(stage.get("calls"), int)
                   and stage.get("calls", 0) >= 1,
                   f"stages[{i}].calls must be a positive integer")
            wall = stage.get("wall_s")
            _check(errors, isinstance(wall, (int, float)) and wall >= 0,
                   f"stages[{i}].wall_s must be a non-negative number")

    for section in ("counters", "gauges"):
        values = payload.get(section, {})
        if not isinstance(values, dict):
            errors.append(f"{section} must be an object")
            continue
        for key, value in values.items():
            _check(errors, isinstance(key, str)
                   and isinstance(value, (int, float)),
                   f"{section}[{key!r}] must map a string to a number")

    campaigns = payload.get("campaigns")
    if not isinstance(campaigns, dict):
        errors.append("campaigns must be an object")
        campaigns = {}
    for name, record in campaigns.items():
        if not isinstance(record, dict):
            errors.append(f"campaigns[{name!r}] must be an object")
            continue
        for field_name in _CAMPAIGN_COUNTER_FIELDS:
            value = record.get(field_name)
            _check(errors, isinstance(value, int) and value >= 0,
                   f"campaigns[{name!r}].{field_name} must be a "
                   f"non-negative integer")
        if all(isinstance(record.get(f), int)
               for f in _CAMPAIGN_COUNTER_FIELDS):
            _check(errors,
                   record["units"] == record["delivered"]
                   + record["giveups"],
                   f"campaigns[{name!r}]: units != delivered + giveups")
        coverage = record.get("coverage")
        _check(errors, isinstance(coverage, (int, float))
               and 0.0 <= coverage <= 1.0,
               f"campaigns[{name!r}].coverage must be in [0, 1]")
        backoff = record.get("backoff_s", 0.0)
        _check(errors, isinstance(backoff, (int, float)) and backoff >= 0,
               f"campaigns[{name!r}].backoff_s must be non-negative")

    route_cache = payload.get("route_cache")
    if route_cache is not None:
        if not isinstance(route_cache, dict):
            errors.append("route_cache must be an object or null")
        else:
            for key in ("entries", "max_entries", "hits", "misses",
                        "evictions"):
                _check(errors, isinstance(route_cache.get(key), int)
                       and route_cache.get(key, -1) >= 0,
                       f"route_cache.{key} must be a non-negative integer")

    coverage = payload.get("coverage", {})
    if not isinstance(coverage, dict):
        errors.append("coverage must be an object")
    else:
        for component, record in coverage.items():
            if not isinstance(record, dict):
                errors.append(f"coverage[{component!r}] must be an object")
                continue
            value = record.get("coverage")
            _check(errors, isinstance(value, (int, float))
                   and 0.0 <= value <= 1.0,
                   f"coverage[{component!r}].coverage must be in [0, 1]")

    checkpoint = payload.get("checkpoint")
    if checkpoint is not None:
        _validate_checkpoint(errors, checkpoint)

    delta = payload.get("delta")
    if delta is not None:
        _check(errors, checkpoint is not None,
               "delta lineage requires a checkpoint section (delta "
               "builds are checkpointed builds)")
        _validate_delta(errors, delta)

    serve = payload.get("serve")
    if serve is not None:
        _validate_serve(errors, serve)

    if errors:
        raise ValidationError("invalid manifest: " + "; ".join(errors))
