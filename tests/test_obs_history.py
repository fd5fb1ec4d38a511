"""Cross-run observability: the history registry and manifest differ.

Two families of guarantee:

* :class:`repro.obs.RunHistory` is durable — appends are atomic (an
  interrupted or concurrent append can never corrupt earlier entries),
  invalid manifests are never persisted, torn lines are skipped on read
  but preserved on disk;
* :func:`repro.obs.diff_manifests` classifies drift correctly — the
  ok/warn/regression boundaries of every category, the refusal to
  compare runs whose digests differ, and the ``ignore``/``force``
  escape hatches.

All manifests here are synthetic (no world is built): the factories
below produce minimal schema-valid payloads so each test controls the
exact fields it perturbs.
"""

from __future__ import annotations

import copy
import json
import threading

import pytest

from repro.errors import ValidationError
from repro.obs import (DIFF_CATEGORIES, STATUS_OK, STATUS_REGRESSION,
                       STATUS_WARN, DiffThresholds, RunHistory,
                       RunManifest, RunKey, diff_manifests, run_key_of,
                       validate_manifest)

CONFIG_HASH = "deadbeefdeadbeef"


def make_payload(**overrides):
    """A minimal schema-valid manifest dict."""
    payload = {
        "format_version": 5,
        "seed": 1,
        "config_hash": CONFIG_HASH,
        "created_unix": 100.0,
        "command": "summary",
        "scale": "small",
        "fault_plan": None,
        "stages": [
            {"path": "build", "name": "build", "calls": 1, "wall_s": 2.0},
            {"path": "build.users", "name": "users", "calls": 1,
             "wall_s": 1.0},
        ],
        "counters": {"measure.cache-probing.probes_sent": 100.0},
        "gauges": {},
        "campaigns": {
            "cache-probing": {
                "ran": True, "failed": False, "failure_reason": None,
                "units": 100, "attempts": 100, "drops": 0, "retries": 0,
                "giveups": 0, "delivered": 100, "backoff_s": 0.0,
                "coverage": 1.0, "wall_s": 0.5,
            },
        },
        "route_cache": {"entries": 10, "max_entries": 64, "hits": 90,
                        "misses": 10, "evictions": 0, "hit_rate": 0.9},
        "coverage": {"users": {
            "coverage": 1.0,
            "techniques_intended": ["cache-probing", "root-logs"],
            "techniques_delivered": ["cache-probing", "root-logs"],
            "notes": []}},
        "checkpoint": None,
    }
    payload.update(overrides)
    return payload


def make_manifest(**overrides) -> RunManifest:
    return RunManifest.from_dict(make_payload(**overrides))


def tweak(manifest: RunManifest, mutate) -> RunManifest:
    """A deep-copied manifest with ``mutate(payload)`` applied."""
    payload = copy.deepcopy(manifest.to_dict())
    mutate(payload)
    return RunManifest.from_dict(payload)


# ---------------------------------------------------------------------------
# RunHistory: append, read, durability
# ---------------------------------------------------------------------------


class TestRunHistory:
    def test_missing_file_reads_empty(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        assert history.entries() == []
        assert len(history) == 0
        assert history.latest() is None
        assert not (tmp_path / "h.jsonl").exists()

    def test_record_round_trips(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        entry = history.record(make_payload(), label="baseline")
        assert entry.index == 0
        assert entry.label == "baseline"
        assert entry.key == RunKey(config=CONFIG_HASH)
        (loaded,), bad = history.scan()
        assert bad == []
        assert loaded.key == entry.key
        assert loaded.label == "baseline"
        assert loaded.load_manifest().config_hash == CONFIG_HASH

    def test_record_accepts_runmanifest_objects(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        entry = history.record(make_manifest(),
                               options_digest="0123456789abcdef")
        assert entry.key.options == "0123456789abcdef"
        assert history.latest(entry.key).index == 0

    def test_invalid_manifest_never_persisted(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        with pytest.raises(ValidationError):
            history.record({"format_version": 2})
        assert not path.exists()
        history.record(make_payload())
        before = path.read_bytes()
        with pytest.raises(ValidationError):
            history.record(make_payload(seed="not-an-int"))
        assert path.read_bytes() == before

    def test_require_same_key_rejects_incomparable(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(make_payload())
        with pytest.raises(ValidationError) as err:
            history.record(make_payload(config_hash="feedfacefeedface"),
                           require_same_key=True)
        assert "not comparable" in str(err.value)
        assert len(history) == 1
        # Same key appends fine; a different key without the flag too.
        history.record(make_payload(), require_same_key=True)
        history.record(make_payload(config_hash="feedfacefeedface"))
        assert len(history) == 3

    def test_torn_lines_skipped_but_preserved(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        history.record(make_payload(), label="good")
        with open(path, "a") as handle:
            handle.write("{\"schema\": 1, \"manifest\": {\"torn...\n")
            handle.write("not json at all\n")
        entries, bad = history.scan()
        assert [e.label for e in entries] == ["good"]
        assert bad == [2, 3]
        # Appending again keeps the bad lines byte-for-byte on disk.
        history.record(make_payload(), label="after")
        assert "not json at all" in path.read_text()
        entries, bad = history.scan()
        assert [e.label for e in entries] == ["good", "after"]
        assert bad == [2, 3]
        assert [e.index for e in entries] == [0, 1]

    def test_wrong_envelope_schema_is_a_bad_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        envelope = {"schema": 999, "manifest": make_payload(),
                    "key": {"config": CONFIG_HASH}}
        path.write_text(json.dumps(envelope) + "\n")
        entries, bad = RunHistory(path).scan()
        assert entries == []
        assert bad == [1]

    def test_get_supports_negative_and_rejects_out_of_range(self,
                                                            tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(make_payload(), label="a")
        history.record(make_payload(), label="b")
        assert history.get(0).label == "a"
        assert history.get(-1).label == "b"
        with pytest.raises(ValidationError) as err:
            history.get(5)
        assert "2 entries" in str(err.value)

    def test_latest_and_comparable_runs_filter_by_key(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(make_payload(), label="a")
        history.record(make_payload(config_hash="feedfacefeedface"),
                       label="other")
        history.record(make_payload(), label="b")
        key = RunKey(config=CONFIG_HASH)
        assert history.latest().label == "b"
        assert history.latest(key).label == "b"
        assert [e.label for e in history.comparable_runs(key)] == \
            ["a", "b"]

    def test_concurrent_appends_all_survive(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        errors = []

        def record(i):
            try:
                history.record(make_payload(), label=f"run-{i}")
            except Exception as exc:     # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=record, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        entries, bad = history.scan()
        assert bad == []
        assert sorted(e.label for e in entries) == \
            sorted(f"run-{i}" for i in range(8))
        # Every line is independently valid JSON (no interleaving).
        for line in (tmp_path / "h.jsonl").read_text().splitlines():
            validate_manifest(json.loads(line)["manifest"])

    def test_interrupted_append_leaves_registry_intact(self, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        history.record(make_payload(), label="safe")
        before = path.read_bytes()

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr("repro.obs.history.os.fsync", explode)
        with pytest.raises(ValidationError) as err:
            history.record(make_payload(), label="doomed")
        assert "disk full" in str(err.value)
        monkeypatch.undo()
        # The original registry is byte-identical and the temp is gone.
        assert path.read_bytes() == before
        assert list(tmp_path.glob(".*.tmp")) == []
        assert [e.label for e in history.entries()] == ["safe"]

    def test_run_key_of_reads_fault_digest(self):
        plain = run_key_of(make_payload())
        assert plain == RunKey(config=CONFIG_HASH)
        faulted = run_key_of(make_payload(fault_plan={
            "describe": "probe_loss=0.2", "seed": 0,
            "digest": "abcdabcdabcdabcd", "retry_attempts": 3,
            "backoff_s": 0.0}))
        assert faulted.fault_plan == "abcdabcdabcdabcd"
        assert plain != faulted


# ---------------------------------------------------------------------------
# diff_manifests: classification
# ---------------------------------------------------------------------------


def findings_for(diff, category):
    return [f for f in diff.findings if f.category == category]


class TestDiffClassification:
    def test_self_diff_is_clean(self):
        manifest = make_manifest()
        diff = diff_manifests(manifest, manifest)
        assert diff.status == STATUS_OK
        assert diff.findings == []
        assert diff.regressions() == []
        assert diff.warnings() == []
        assert not diff.forced

    def test_wall_thresholds(self):
        old = make_manifest()

        def scale_build(factor):
            return tweak(old, lambda p: p["stages"].__setitem__(
                0, dict(p["stages"][0], wall_s=2.0 * factor)))

        warn = diff_manifests(old, scale_build(1.20))
        (finding,) = findings_for(warn, "wall")
        assert finding.status == STATUS_WARN
        assert finding.metric == "build"
        regression = diff_manifests(old, scale_build(1.50))
        (finding,) = findings_for(regression, "wall")
        assert finding.status == STATUS_REGRESSION
        assert regression.status == STATUS_REGRESSION
        # +10% is inside the warn ratio: no finding at all.
        assert findings_for(diff_manifests(old, scale_build(1.10)),
                            "wall") == []

    def test_wall_absolute_floor_shields_tiny_stages(self):
        old = make_manifest(stages=[
            {"path": "build", "name": "build", "calls": 1,
             "wall_s": 0.001}])
        new = tweak(old, lambda p: p["stages"][0].update(wall_s=0.003))
        # +200% but only +2ms: under wall_min_seconds, not a finding.
        assert diff_manifests(old, new).findings == []

    def test_wall_improvement_reported_as_ok(self):
        old = make_manifest()
        new = tweak(old, lambda p: p["stages"][0].update(wall_s=1.0))
        (finding,) = findings_for(diff_manifests(old, new), "wall")
        assert finding.status == STATUS_OK
        assert "improved" in finding.detail

    def test_stage_present_in_one_run_only_warns(self):
        old = make_manifest()
        new = tweak(old, lambda p: p["stages"].pop())
        (finding,) = findings_for(diff_manifests(old, new), "wall")
        assert finding.status == STATUS_WARN
        assert "old build only" in finding.detail
        (finding,) = findings_for(diff_manifests(new, old), "wall")
        assert "new build only" in finding.detail

    def test_counter_change_warns_and_giveups_regress(self):
        old = make_manifest(counters={"probes": 100.0,
                                      "faults.tls-scan.giveups": 0.0})
        new = tweak(old, lambda p: p["counters"].update(
            {"probes": 150.0, "faults.tls-scan.giveups": 5.0}))
        diff = diff_manifests(old, new)
        by_metric = {f.metric: f for f in findings_for(diff, "counter")}
        assert by_metric["probes"].status == STATUS_WARN
        assert by_metric["faults.tls-scan.giveups"].status == \
            STATUS_REGRESSION
        # The reverse direction (giveups recovered) is only a warn.
        reverse = diff_manifests(new, old)
        by_metric = {f.metric: f
                     for f in findings_for(reverse, "counter")}
        assert by_metric["faults.tls-scan.giveups"].status == STATUS_WARN

    def test_memory_gauges_use_their_own_category(self):
        mib = float(1 << 20)
        old = make_manifest(gauges={"mem.build.peak_bytes": 10 * mib,
                                    "mem.build.current_bytes": 5 * mib})
        new = tweak(old, lambda p: p["gauges"].update(
            {"mem.build.peak_bytes": 20 * mib,
             "mem.build.current_bytes": 1 * mib}))
        diff = diff_manifests(old, new)
        (finding,) = findings_for(diff, "memory")
        assert finding.metric == "mem.build.peak_bytes"
        assert finding.status == STATUS_REGRESSION        # +100% >= 50%
        # current_bytes is a point-in-time value, never classified.
        assert findings_for(diff, "gauge") == []
        # +20% is a warn; +5% (or under the 1 MiB floor) is silent.
        warn = tweak(old, lambda p: p["gauges"].update(
            {"mem.build.peak_bytes": 12 * mib}))
        (finding,) = findings_for(diff_manifests(old, warn), "memory")
        assert finding.status == STATUS_WARN
        quiet = tweak(old, lambda p: p["gauges"].update(
            {"mem.build.peak_bytes": 10 * mib + 1000}))
        assert findings_for(diff_manifests(old, quiet), "memory") == []

    def test_memory_profiling_toggle_is_informational(self):
        old = make_manifest()
        new = tweak(old, lambda p: p["gauges"].update(
            {"mem.build.peak_bytes": float(1 << 24)}))
        (finding,) = findings_for(diff_manifests(old, new), "memory")
        assert finding.status == STATUS_OK
        assert "only one run" in finding.detail

    def test_campaign_coverage_drop_thresholds(self):
        old = make_manifest()

        def with_coverage(value, giveups):
            return tweak(old, lambda p: p["campaigns"]
                         ["cache-probing"].update(
                             coverage=value, giveups=giveups,
                             delivered=100 - giveups))

        (finding,) = findings_for(
            diff_manifests(old, with_coverage(0.99, 1)), "campaign")
        assert finding.status == STATUS_WARN
        (finding,) = findings_for(
            diff_manifests(old, with_coverage(0.90, 10)), "campaign")
        assert finding.status == STATUS_REGRESSION

    def test_campaign_stopped_or_failed_regresses(self):
        old = make_manifest()
        stopped = tweak(old, lambda p: p["campaigns"]
                        ["cache-probing"].update(
                            ran=False, units=0, attempts=0, delivered=0,
                            wall_s=None))
        (finding,) = findings_for(diff_manifests(old, stopped),
                                  "campaign")
        assert finding.status == STATUS_REGRESSION
        assert "stopped running" in finding.detail
        failed = tweak(old, lambda p: p["campaigns"]
                       ["cache-probing"].update(
                           failed=True, failure_reason="exploded"))
        (finding,) = findings_for(diff_manifests(old, failed), "campaign")
        assert finding.status == STATUS_REGRESSION
        assert "exploded" in finding.detail
        # Recovery from failure is an ok finding, not silence.
        (finding,) = findings_for(diff_manifests(failed, old), "campaign")
        assert finding.status == STATUS_OK
        assert "recovered" in finding.detail

    def test_component_coverage_lost_technique_regresses(self):
        old = make_manifest()
        new = tweak(old, lambda p: p["coverage"]["users"].update(
            coverage=0.999,
            techniques_delivered=["cache-probing"]))
        (finding,) = findings_for(diff_manifests(old, new), "coverage")
        assert finding.status == STATUS_REGRESSION
        assert "root-logs" in finding.detail

    def test_route_cache_hit_rate_thresholds(self):
        old = make_manifest()

        def with_hit_rate(value):
            return tweak(old, lambda p: p["route_cache"].update(
                hit_rate=value))

        (finding,) = findings_for(
            diff_manifests(old, with_hit_rate(0.87)), "route-cache")
        assert finding.status == STATUS_WARN
        (finding,) = findings_for(
            diff_manifests(old, with_hit_rate(0.75)), "route-cache")
        assert finding.status == STATUS_REGRESSION
        assert findings_for(diff_manifests(old, with_hit_rate(0.895)),
                            "route-cache") == []

    def test_checkpoint_reuse_drop_and_quarantine_warn(self):
        def with_ckpt(reused, recomputed, quarantined=()):
            return make_manifest(checkpoint={
                "checkpoint_dir": "/tmp/ckpt", "resumed": True,
                "stages_total": len(reused) + len(recomputed),
                "stages_reused": list(reused),
                "stages_recomputed": list(recomputed),
                "quarantined": [{"stage": s, "reason": "bad digest"}
                                for s in quarantined]})

        old = with_ckpt(["users", "services", "routes", "aux"], [])
        new = with_ckpt(["users"], ["services", "routes", "aux"],
                        quarantined=["services"])
        diff = diff_manifests(old, new)
        by_metric = {f.metric: f
                     for f in findings_for(diff, "checkpoint")}
        assert by_metric["reuse_ratio"].status == STATUS_WARN
        assert by_metric["quarantined"].status == STATUS_WARN
        # Unchecked-pointed runs produce no checkpoint findings at all.
        assert findings_for(diff_manifests(make_manifest(), new),
                            "checkpoint") == []


class TestDiffComparability:
    def test_refuses_different_config(self):
        old = make_manifest()
        new = make_manifest(config_hash="feedfacefeedface")
        with pytest.raises(ValidationError) as err:
            diff_manifests(old, new)
        assert "config_hash differs" in str(err.value)

    def test_refuses_different_fault_plan(self):
        old = make_manifest()
        new = make_manifest(fault_plan={
            "describe": "probe_loss=0.2", "seed": 0,
            "digest": "abcdabcdabcdabcd", "retry_attempts": 3,
            "backoff_s": 0.0})
        with pytest.raises(ValidationError) as err:
            diff_manifests(old, new)
        assert "fault plans differ" in str(err.value)

    def test_refuses_different_scale(self):
        with pytest.raises(ValidationError) as err:
            diff_manifests(make_manifest(), make_manifest(scale="medium"))
        assert "scale differs" in str(err.value)

    def test_force_carries_reasons_on_the_diff(self):
        old = make_manifest()
        new = make_manifest(config_hash="feedfacefeedface")
        diff = diff_manifests(old, new, force=True)
        assert diff.forced
        assert any("config_hash" in reason
                   for reason in diff.incomparable_reasons)

    def test_ignore_drops_categories(self):
        old = make_manifest()
        new = tweak(old, lambda p: (
            p["stages"][0].update(wall_s=4.0),
            p["route_cache"].update(hit_rate=0.5)))
        full = diff_manifests(old, new)
        assert findings_for(full, "wall") and \
            findings_for(full, "route-cache")
        partial = diff_manifests(old, new, ignore=("wall",))
        assert findings_for(partial, "wall") == []
        assert findings_for(partial, "route-cache")
        assert partial.ignored_categories == ("wall",)

    def test_unknown_ignore_category_rejected(self):
        manifest = make_manifest()
        with pytest.raises(ValidationError) as err:
            diff_manifests(manifest, manifest, ignore=("vibes",))
        assert "vibes" in str(err.value)

    def test_bad_thresholds_rejected(self):
        manifest = make_manifest()
        with pytest.raises(ValidationError):
            diff_manifests(manifest, manifest, DiffThresholds(
                wall_warn_ratio=0.5, wall_regression_ratio=0.1))

    def test_to_dict_shape(self):
        old = make_manifest()
        new = tweak(old, lambda p: p["stages"][0].update(wall_s=4.0))
        payload = diff_manifests(old, new).to_dict()
        assert payload["status"] == STATUS_REGRESSION
        assert payload["config_hash"] == CONFIG_HASH
        assert payload["ignored_categories"] == []
        (finding,) = payload["findings"]
        assert finding["category"] == "wall"
        assert set(DIFF_CATEGORIES) >= {finding["category"]}
        json.dumps(payload)     # JSON-serializable end to end
