"""Observability: span timers, manifests, run history and diffing.

Zero-dependency instrumentation for the map pipeline. A
:class:`Recorder` threads through :class:`repro.core.builder.MapBuilder`,
every ``repro.measure`` campaign, :class:`repro.net.routing.BgpSimulator`
and :class:`repro.faults.FaultContext`; the collected spans/counters fold
into a :class:`RunManifest` JSON document (CLI ``--metrics out.json``,
live span log via ``--trace``, per-span tracemalloc gauges via
``BuilderOptions.profile_memory``). Manifests accumulate across builds
in an append-only :class:`RunHistory` JSONL registry, and
:func:`diff_manifests` classifies the drift between two comparable runs
into ``ok``/``warn``/``regression`` findings (CLI ``repro history`` /
``repro compare``). The :data:`NULL_RECORDER` default makes all of it
free — and bit-identical — when unused. See ``docs/observability.md``.
"""

from .diff import (DIFF_CATEGORIES, STATUS_OK, STATUS_REGRESSION,
                   STATUS_WARN, DiffFinding, DiffThresholds, ManifestDiff,
                   comparability_errors, diff_manifests)
from .history import (DEFAULT_HISTORY_PATH, HISTORY_SCHEMA_VERSION,
                      HistoryEntry, RunHistory, RunKey, run_key_of)
from .live import (ACCESS_LOG_FIELDS, BUCKET_BOUNDS, BUCKET_GROWTH,
                   OUTCOMES, WINDOW_SECONDS, AccessLog, Histogram,
                   LiveTelemetry, RollingWindow, aggregate_access_log,
                   classify_status, load_access_log, render_prometheus)
from .manifest import (FORMAT_VERSION, KNOWN_CAMPAIGNS, CampaignRecord,
                       RunManifest, collect_manifest, config_digest,
                       fault_plan_digest, options_digest,
                       validate_manifest)
from .recorder import (NULL_RECORDER, NullRecorder, Recorder, StageTiming,
                       resolve_recorder)

__all__ = [
    "ACCESS_LOG_FIELDS",
    "BUCKET_BOUNDS",
    "BUCKET_GROWTH",
    "DEFAULT_HISTORY_PATH",
    "DIFF_CATEGORIES",
    "FORMAT_VERSION",
    "HISTORY_SCHEMA_VERSION",
    "KNOWN_CAMPAIGNS",
    "OUTCOMES",
    "WINDOW_SECONDS",
    "AccessLog",
    "CampaignRecord",
    "DiffFinding",
    "DiffThresholds",
    "Histogram",
    "HistoryEntry",
    "LiveTelemetry",
    "ManifestDiff",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "RollingWindow",
    "RunHistory",
    "RunKey",
    "RunManifest",
    "STATUS_OK",
    "STATUS_REGRESSION",
    "STATUS_WARN",
    "StageTiming",
    "aggregate_access_log",
    "classify_status",
    "collect_manifest",
    "comparability_errors",
    "config_digest",
    "diff_manifests",
    "fault_plan_digest",
    "load_access_log",
    "options_digest",
    "render_prometheus",
    "resolve_recorder",
    "run_key_of",
    "validate_manifest",
]
