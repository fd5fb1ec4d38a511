"""The repro.obs observability layer: recorder, manifest, bit-identity.

Three families of guarantee:

* the :class:`Recorder` primitives behave (span nesting, counters,
  gauges, trace output, the null recorder's statelessness);
* the :class:`RunManifest` schema round-trips and its validator catches
  broken invariants;
* instrumentation *observes without steering* — an instrumented build
  (auxiliary campaigns included) serializes to the bit-identical map an
  uninstrumented build produces, and counter identities hold under an
  active fault plan.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import ScenarioConfig, build_scenario
from repro.core.builder import BuilderOptions, MapBuilder
from repro.core.serialize import map_to_json
from repro.errors import ValidationError
from repro.faults import FaultPlan
from repro.obs import (FORMAT_VERSION, KNOWN_CAMPAIGNS, NULL_RECORDER,
                       NullRecorder, Recorder, RunManifest,
                       collect_manifest, config_digest, fault_plan_digest,
                       resolve_recorder, validate_manifest)

# ---------------------------------------------------------------------------
# Recorder primitives
# ---------------------------------------------------------------------------


def test_span_nesting_builds_dotted_paths():
    rec = Recorder()
    with rec.span("build"):
        with rec.span("users"):
            pass
        with rec.span("users"):
            pass
    paths = {s.path: s for s in rec.spans()}
    assert set(paths) == {"build", "build.users"}
    assert paths["build.users"].calls == 2
    assert paths["build.users"].name == "users"
    assert paths["build"].wall_s >= paths["build.users"].wall_s


def test_stage_lookup_matches_label_or_path():
    rec = Recorder()
    with rec.span("build"):
        with rec.span("measure.tls-scan"):
            pass
    assert rec.stage("measure.tls-scan") is not None
    assert rec.stage("build.measure.tls-scan") is not None
    assert rec.stage("nope") is None


def test_span_records_time_on_exception():
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with rec.span("doomed"):
            raise RuntimeError("boom")
    assert rec.stage("doomed").calls == 1
    # The stack unwound: a later span is not nested under the dead one.
    with rec.span("after"):
        pass
    assert rec.stage("after").path == "after"


def test_counters_and_gauges():
    rec = Recorder()
    rec.count("probes")
    rec.count("probes", 4)
    rec.count("backoff_s", 0.5)
    rec.gauge("entries", 10)
    rec.gauge("entries", 3)
    assert rec.counters["probes"] == 5
    assert rec.counters["backoff_s"] == 0.5
    assert rec.gauges["entries"] == 3


def test_trace_stream_logs_spans():
    out = io.StringIO()
    rec = Recorder(trace=out)
    with rec.span("build"):
        with rec.span("users"):
            pass
    text = out.getvalue()
    assert "[trace] > build" in text
    assert "[trace]   > users" in text
    assert "< build" in text


def test_null_recorder_is_stateless_and_shared():
    null = resolve_recorder(None)
    assert null is NULL_RECORDER
    assert isinstance(null, NullRecorder)
    assert not null.enabled
    with null.span("anything"):
        null.count("x")
        null.gauge("y", 1)
    assert null.spans() == []
    assert null.stage("anything") is None
    assert null.counters == {}
    assert null.gauges == {}


def test_resolve_recorder_passthrough():
    rec = Recorder()
    assert resolve_recorder(rec) is rec


# ---------------------------------------------------------------------------
# Memory profiling
# ---------------------------------------------------------------------------


def test_memory_profiling_records_peak_and_current_gauges():
    import tracemalloc
    assert not tracemalloc.is_tracing()
    rec = Recorder(profile_memory=True)
    try:
        assert rec.memory_profiling
        assert tracemalloc.is_tracing()
        with rec.span("outer"):
            with rec.span("inner"):
                blob = bytearray(512 * 1024)
            del blob
        for path in ("outer", "outer.inner"):
            assert rec.gauges[f"mem.{path}.peak_bytes"] >= 0
            assert f"mem.{path}.current_bytes" in rec.gauges
        # A child's allocations are part of the parent's high-water mark.
        assert rec.gauges["mem.outer.peak_bytes"] >= \
            rec.gauges["mem.outer.inner.peak_bytes"] >= 512 * 1024
    finally:
        rec.stop_memory_profiling()
    # The recorder owns tracemalloc: stopping profiling stops tracing.
    assert not tracemalloc.is_tracing()
    assert not rec.memory_profiling


def test_memory_profiling_peak_keeps_max_over_reentries():
    rec = Recorder(profile_memory=True)
    try:
        with rec.span("stage"):
            blob = bytearray(1024 * 1024)
            del blob
        first = rec.gauges["mem.stage.peak_bytes"]
        with rec.span("stage"):
            pass
        # The tiny second call must not shrink the recorded peak.
        assert rec.gauges["mem.stage.peak_bytes"] == first
    finally:
        rec.stop_memory_profiling()


def test_memory_profiling_off_adds_no_gauges():
    rec = Recorder()
    with rec.span("stage"):
        pass
    assert not any(name.startswith("mem.") for name in rec.gauges)


def test_null_recorder_memory_profiling_is_inert():
    import tracemalloc
    assert not tracemalloc.is_tracing()
    NULL_RECORDER.start_memory_profiling()
    # The null recorder never starts tracemalloc nor flips any state.
    assert not tracemalloc.is_tracing()
    assert not NULL_RECORDER.memory_profiling
    NULL_RECORDER.stop_memory_profiling()


def test_null_recorder_writes_never_mutate_shared_state():
    # NULL_RECORDER is a module-level singleton shared by every
    # uninstrumented builder; a leaked write would cross-contaminate
    # unrelated builds. The views it returns must be throwaways.
    NULL_RECORDER.counters["poison"] = 1.0
    NULL_RECORDER.gauges["poison"] = 1.0
    NULL_RECORDER.count("poison", 5)
    NULL_RECORDER.gauge("poison", 5)
    assert NULL_RECORDER.counters == {}
    assert NULL_RECORDER.gauges == {}
    assert NULL_RECORDER.spans() == []


# ---------------------------------------------------------------------------
# Manifest schema
# ---------------------------------------------------------------------------


def test_known_campaigns_match_campaign_constants():
    from repro.measure.atlas import ATLAS_CAMPAIGN
    from repro.measure.cache_probing import CACHE_PROBING_CAMPAIGN
    from repro.measure.catchment_probe import CATCHMENT_CAMPAIGN
    from repro.measure.cloud_vantage import CLOUD_VANTAGE_CAMPAIGN
    from repro.measure.ecs_mapping import ECS_MAPPING_CAMPAIGN
    from repro.measure.ipid import IPID_CAMPAIGN
    from repro.measure.resolver_assoc import RESOLVER_ASSOC_CAMPAIGN
    from repro.measure.reverse_traceroute import (
        REVERSE_TRACEROUTE_CAMPAIGN)
    from repro.measure.rootlogs import ROOTLOG_CAMPAIGN
    from repro.measure.sniscan import SNI_SCAN_CAMPAIGN
    from repro.measure.tlsscan import TLS_SCAN_CAMPAIGN
    constants = {
        ATLAS_CAMPAIGN, CACHE_PROBING_CAMPAIGN, CATCHMENT_CAMPAIGN,
        CLOUD_VANTAGE_CAMPAIGN, ECS_MAPPING_CAMPAIGN, IPID_CAMPAIGN,
        RESOLVER_ASSOC_CAMPAIGN, REVERSE_TRACEROUTE_CAMPAIGN,
        ROOTLOG_CAMPAIGN, SNI_SCAN_CAMPAIGN, TLS_SCAN_CAMPAIGN}
    assert set(KNOWN_CAMPAIGNS) == constants
    assert len(KNOWN_CAMPAIGNS) == 11


def test_config_digest_stable_and_sensitive(small_config):
    assert config_digest(small_config) == config_digest(small_config)
    other = small_config.with_seed(small_config.seed + 1)
    assert config_digest(other) != config_digest(small_config)


def test_fault_plan_digest_sensitive():
    a = FaultPlan.parse("probe_loss=0.2", seed=0)
    b = FaultPlan.parse("probe_loss=0.3", seed=0)
    assert fault_plan_digest(a) != fault_plan_digest(b)


def test_manifest_round_trip(small_builder, small_config):
    manifest = collect_manifest(
        small_builder.recorder, small_config,
        faults=small_builder.fault_context,
        itm=small_builder.itm, command="summary", scale="small")
    text = manifest.to_json()
    validate_manifest(json.loads(text))
    loaded = RunManifest.from_json(text)
    assert loaded.seed == small_config.seed
    assert loaded.format_version == FORMAT_VERSION
    assert loaded.config_hash == config_digest(small_config)
    assert set(loaded.campaigns) >= set(KNOWN_CAMPAIGNS)
    assert loaded.to_json() == text


def test_validate_manifest_catches_violations(small_builder,
                                              small_config):
    manifest = collect_manifest(small_builder.recorder, small_config)
    payload = manifest.to_dict()
    payload["format_version"] = 99
    payload["campaigns"]["tls-scan"]["units"] = 5   # 5 != 0 + 0
    with pytest.raises(ValidationError) as err:
        validate_manifest(payload)
    assert "format_version" in str(err.value)
    assert "units != delivered + giveups" in str(err.value)


def test_validate_manifest_rejects_non_object():
    with pytest.raises(ValidationError):
        validate_manifest([])


# ---------------------------------------------------------------------------
# Instrumented builds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def instrumented(small_config):
    """A fresh, fully instrumented build (aux campaigns on)."""
    scenario = build_scenario(small_config)
    builder = MapBuilder(
        scenario, options=BuilderOptions(run_auxiliary_campaigns=True),
        recorder=Recorder())
    builder.build()
    return builder


def test_instrumented_map_bit_identical(small_builder, instrumented):
    assert map_to_json(instrumented.itm) == map_to_json(small_builder.itm)


def test_manifest_covers_all_campaigns(instrumented):
    manifest = instrumented.manifest(command="summary", scale="small")
    validate_manifest(manifest.to_dict())
    for name in KNOWN_CAMPAIGNS:
        assert manifest.stage(f"measure.{name}") is not None, name
    assert set(manifest.campaigns_ran()) >= set(KNOWN_CAMPAIGNS)
    for stage in ("build", "users", "services", "routes", "aux",
                  "assemble", "fusion"):
        assert manifest.stage(stage) is not None, stage
    assert manifest.route_cache is not None
    assert set(manifest.coverage) == {"users", "services", "routes"}


@pytest.fixture(scope="module")
def profiled(small_config):
    """A fresh instrumented build with memory profiling on."""
    scenario = build_scenario(small_config)
    builder = MapBuilder(
        scenario, options=BuilderOptions(run_auxiliary_campaigns=True,
                                         profile_memory=True),
        recorder=Recorder())
    builder.build()
    return builder


def test_profiled_map_bit_identical(small_builder, profiled):
    # Regression lock: tracemalloc observes allocations, it must never
    # steer the build — a profiled map serializes byte-for-byte equal.
    assert map_to_json(profiled.itm) == map_to_json(small_builder.itm)


def test_profiled_build_stops_tracemalloc(profiled):
    import tracemalloc
    assert not tracemalloc.is_tracing()
    assert not profiled.recorder.memory_profiling


def test_profiled_manifest_carries_memory_gauges(profiled):
    manifest = profiled.manifest(command="summary", scale="small")
    validate_manifest(manifest.to_dict())
    gauges = manifest.gauges
    assert gauges["mem.build.peak_bytes"] > 0
    # Every campaign span gets its own peak, nested under the pipeline.
    for name in KNOWN_CAMPAIGNS:
        matches = [g for g in gauges
                   if g.endswith(f"measure.{name}.peak_bytes")]
        assert matches, name
    # The build's peak bounds every child stage's peak from above.
    build_peak = gauges["mem.build.peak_bytes"]
    for name, value in gauges.items():
        if name.startswith("mem.build.") and \
                name.endswith(".peak_bytes"):
            assert value <= build_peak, name
    # Peaks bound the matching end-of-span residency.
    for name, value in gauges.items():
        if name.startswith("mem.") and name.endswith(".peak_bytes"):
            current = gauges.get(name.replace(".peak_bytes",
                                              ".current_bytes"))
            assert current is not None and current <= value, name
    # The BGP route cache reports its resident footprint too.
    assert gauges["mem.routing.cache.resident_bytes"] > 0


def test_options_digest_ignores_profile_memory():
    from repro.obs import options_digest
    assert options_digest(BuilderOptions(profile_memory=True)) == \
        options_digest(BuilderOptions())
    assert options_digest(BuilderOptions(use_root_logs=False)) != \
        options_digest(BuilderOptions())


def test_options_digest_pinned():
    """Snapshot envelopes carry this digest: a drift would make every
    existing checkpoint dir fail to resume."""
    from repro.obs import options_digest
    assert options_digest(BuilderOptions()) == "a025fd004a055c5b"
    assert options_digest(BuilderOptions(
        run_auxiliary_campaigns=True)) == "baeafc02946599a5"


def test_plain_manifest_has_no_memory_gauges(instrumented):
    gauges = instrumented.manifest().gauges
    assert not any(name.startswith("mem.") for name in gauges)


def test_probe_counters_consistent_under_faults(small_config):
    scenario = build_scenario(small_config)
    rec = Recorder()
    builder = MapBuilder(
        scenario, faults=FaultPlan.parse("probe_loss=0.2", seed=7),
        recorder=rec)
    builder.build()
    sent = rec.counters["measure.cache-probing.probes_sent"]
    delivered = rec.counters["measure.cache-probing.probes_delivered"]
    dropped = rec.counters["measure.cache-probing.probes_dropped"]
    assert sent == delivered + dropped
    assert dropped > 0
    manifest = builder.manifest()
    validate_manifest(manifest.to_dict())
    record = manifest.campaign("cache-probing")
    assert record.units == record.delivered + record.giveups
    assert record.drops > 0
    assert manifest.fault_plan is not None
    assert manifest.fault_plan["digest"] == fault_plan_digest(
        builder.fault_context.plan)
    # Fault counters are mirrored into the recorder's counter namespace.
    assert rec.counters["faults.cache-probing.drops"] == record.drops
