"""Checkpoint/resume: the bit-identity guarantee, regression-locked.

The contract under test (docs/checkpointing.md): a build interrupted at
*any* stage boundary and resumed from its checkpoint directory produces
a map JSON-equal to a fresh uninterrupted build; snapshots that fail
verification are quarantined and recomputed, never trusted; and the
manifest's checkpoint-lineage section accounts for every stage.
"""

from __future__ import annotations

import json

import pytest

from repro.ckpt import (CheckpointError, CheckpointStore, run_supervised)
from repro.core.builder import (AUX_STAGES, PRIMARY_STAGES, BuilderOptions,
                                MapBuilder, checkpoint_stages)
from repro.core.serialize import (map_to_json, stage_payload_from_dict,
                                  stage_payload_to_dict)
from repro.errors import ValidationError
from repro.faults import FaultContext, FaultKind, FaultPlan, SimulatedCrash
from repro.obs import (RunManifest, Recorder, fault_plan_digest,
                       validate_manifest)

from .test_delta_identity import NO_PLAN, SEEDS, reuse_case

# Aux campaigns on so every stage boundary exists; moderate fault rates
# so snapshots carry non-trivial scope state and notes.
OPTS = BuilderOptions(run_auxiliary_campaigns=True)
PLAN = FaultPlan.uniform(0.2, seed=11)
ALL_STAGES = checkpoint_stages(OPTS)
INPUTS = "i" * 64  # a stage input digest for the store-level tests
BODY_MARKER = b',"body":'


def snapshot_meta(path) -> dict:
    """The envelope meta of a snapshot: everything before its body."""
    raw = path.read_bytes()
    return json.loads(raw[:raw.index(BODY_MARKER)] + b"}")


def store_for(path, root):
    """A store at ``root`` whose digests accept the snapshot at ``path``,
    and that snapshot's input digest."""
    meta = snapshot_meta(path)
    store = CheckpointStore(root, config_digest=meta["config_digest"],
                            fault_plan_digest=meta["fault_plan_digest"],
                            options_digest=meta["options_digest"])
    return store, meta["input_digest"]


@pytest.fixture(scope="module")
def fresh_json(small_scenario):
    """The uninterrupted build every recovery path must reproduce."""
    itm = MapBuilder(small_scenario, options=OPTS, faults=PLAN).build()
    return map_to_json(itm)


class TestCrashMatrix:
    """Crash at every stage boundary; supervisor resumes to the end."""

    @pytest.mark.parametrize("stage", ALL_STAGES)
    def test_crash_then_resume_is_bit_identical(self, stage):
        reuse_case(SEEDS[0], NO_PLAN, PLAN, OPTS, prior="none", crash=stage)

    def test_crash_without_checkpointing_reproduces(self, small_scenario):
        builder = MapBuilder(small_scenario, options=OPTS,
                             faults=PLAN.with_crash_at("cache-probing"))
        with pytest.raises(SimulatedCrash, match="cache-probing"):
            builder.build()

    def test_supervisor_gives_up_without_progress(self, small_scenario,
                                                  tmp_path, monkeypatch):
        # Defeat the no-crash-after-load rule so resume never advances.
        monkeypatch.setattr(CheckpointStore, "load",
                            lambda self, stage, lineage, input_digest: None)
        with pytest.raises(CheckpointError, match="gave up"):
            run_supervised(small_scenario, tmp_path / "ckpt",
                           faults=FaultPlan.none().with_crash_at("users"),
                           max_runs=3)


class TestResume:
    def test_clean_build_resume_bit_identical(self, small_scenario,
                                              small_itm, tmp_path):
        ckpt = tmp_path / "ckpt"
        MapBuilder(small_scenario, checkpoint_dir=ckpt).build()
        builder = MapBuilder(small_scenario, checkpoint_dir=ckpt,
                             resume=True)
        itm = builder.build()
        assert map_to_json(itm) == map_to_json(small_itm)
        assert builder.ckpt_lineage.stages_reused == list(PRIMARY_STAGES)
        assert not builder.ckpt_lineage.stages_recomputed
        assert not builder.ckpt_lineage.quarantined

    def test_corrupt_snapshot_quarantined_and_recomputed(
            self, small_scenario, fresh_json, tmp_path):
        ckpt = tmp_path / "ckpt"
        MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                   checkpoint_dir=ckpt).build()
        [path] = (ckpt / "snapshots").glob("services.*.json")
        raw = bytearray(path.read_bytes())
        raw[raw.index(BODY_MARKER) + len(BODY_MARKER) + 20] ^= 0x01
        path.write_bytes(bytes(raw))

        builder = MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                             checkpoint_dir=ckpt, resume=True)
        itm = builder.build()
        # Recomputed — never a wrong map built from tampered data.
        assert map_to_json(itm) == fresh_json
        lineage = builder.ckpt_lineage
        assert "services" in lineage.stages_recomputed
        assert [q["stage"] for q in lineage.quarantined] == ["services"]
        assert "digest" in lineage.quarantined[0]["reason"]
        assert list((ckpt / "quarantine").iterdir())

    def test_redumped_snapshot_quarantined_and_recomputed(
            self, small_scenario, fresh_json, tmp_path):
        """Same content, other separators: not the layout save writes,
        so it is never trusted, however intact its body."""
        ckpt = tmp_path / "ckpt"
        MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                   checkpoint_dir=ckpt).build()
        [path] = (ckpt / "snapshots").glob("services.*.json")
        raw = path.read_bytes()
        envelope, blob = raw.split(b"\n", 1)  # compact JSON has no newline
        path.write_bytes(json.dumps(json.loads(envelope)).encode()
                         + b"\n" + blob)

        builder = MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                             checkpoint_dir=ckpt, resume=True)
        assert map_to_json(builder.build()) == fresh_json
        lineage = builder.ckpt_lineage
        assert lineage.stages_recomputed == ["services"]
        assert [q["stage"] for q in lineage.quarantined] == ["services"]
        assert "layout" in lineage.quarantined[0]["reason"]

    def test_fault_plan_mismatch_quarantines_everything(
            self, small_scenario, tmp_path):
        ckpt = tmp_path / "ckpt"
        MapBuilder(small_scenario, faults=PLAN,
                   checkpoint_dir=ckpt).build()
        builder = MapBuilder(small_scenario, faults=PLAN.with_seed(99),
                             checkpoint_dir=ckpt, resume=True)
        builder.build()
        lineage = builder.ckpt_lineage
        assert not lineage.stages_reused
        assert lineage.stages_recomputed == list(PRIMARY_STAGES)
        assert len(lineage.quarantined) == len(PRIMARY_STAGES)
        assert all("fault_plan_digest" in q["reason"]
                   for q in lineage.quarantined)

    def test_crash_at_excluded_from_fault_plan_digest(self):
        # A supervisor re-run (crash still armed) must accept snapshots
        # from the crashed run, and a crash run's snapshots must satisfy
        # a later clean resume.
        assert fault_plan_digest(PLAN) \
            == fault_plan_digest(PLAN.with_crash_at("users"))

    def test_resume_requires_checkpoint_dir(self, small_scenario):
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            MapBuilder(small_scenario, resume=True)

    def test_unknown_crash_stage_rejected(self, small_scenario):
        with pytest.raises(ValidationError, match="not a stage"):
            MapBuilder(small_scenario,
                       faults=FaultPlan.none().with_crash_at("nope"))
        # aux stages only exist when the aux campaigns run
        with pytest.raises(ValidationError, match="not a stage"):
            MapBuilder(small_scenario,
                       faults=FaultPlan.none().with_crash_at("aux-ipid"))

    def test_stage_codecs_invert_snapshots(self, small_scenario,
                                           tmp_path):
        """decode(encode(x)) re-encodes to the identical snapshot bytes."""
        ckpt = tmp_path / "ckpt"
        MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                   checkpoint_dir=ckpt).build()
        snapshots = sorted((ckpt / "snapshots").glob("*.json"))
        assert len(snapshots) == len(ALL_STAGES)
        for path in snapshots:
            store, inputs = store_for(path, ckpt)
            again, __ = store_for(path, tmp_path / "again")
            stage = snapshot_meta(path)["stage"]
            snapshot = store.load(stage, None, inputs)
            value = stage_payload_from_dict(stage, snapshot.payload,
                                            atlas=small_scenario.atlas)
            rewritten = again.save(stage, stage_payload_to_dict(stage, value),
                                   snapshot.scopes, snapshot.notes, inputs)
            body = path.read_bytes().split(BODY_MARKER, 1)[1]
            assert rewritten.read_bytes().split(BODY_MARKER, 1)[1] == body, \
                stage

    @pytest.mark.parametrize("tamper", [
        {"payload": {"tampered": True}},                    # missing key
        {"payload": {"Evil": {}}},                          # unknown class
        {"payload": {"dtype": "|O", "shape": [1],           # object dtype
                     "offset": 0}},
        {"payload": {"dtype": "<i8", "shape": [1 << 30],    # past blob end
                     "offset": 0}},
        {"scopes": {"cache-probing": 1}},                   # bad scope state
        {"notes": {"users": 5}},                            # bad note list
    ], ids=["missing-key", "unknown-class", "object-dtype", "past-blob-end",
            "bad-scope-state", "bad-note-list"])
    def test_undecodable_snapshot_quarantined_and_recomputed(
            self, small_scenario, fresh_json, tmp_path, tamper):
        """A snapshot that verifies but does not decode is never trusted:
        quarantined, reason recorded, stage recomputed."""
        ckpt = tmp_path / "ckpt"
        MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                   checkpoint_dir=ckpt).build()
        [path] = (ckpt / "snapshots").glob("services.*.json")
        store, inputs = store_for(path, ckpt)
        snapshot = store.load("services", None, inputs)
        body = {"payload": snapshot.payload, "scopes": snapshot.scopes,
                "notes": snapshot.notes, **tamper}
        store.save("services", body["payload"], body["scopes"],
                   body["notes"], inputs)

        builder = MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                             checkpoint_dir=ckpt, resume=True)
        assert map_to_json(builder.build()) == fresh_json
        lineage = builder.ckpt_lineage
        assert "services" in lineage.stages_recomputed
        assert [q["stage"] for q in lineage.quarantined] == ["services"]
        assert lineage.quarantined[0]["reason"]
        assert len(list((ckpt / "quarantine").iterdir())) == 1

    def test_codec_runs_in_ckpt_spans(self, small_scenario, tmp_path):
        """Encode and decode are timed as ckpt.encode / ckpt.decode, one
        call per stage saved or reused."""
        def calls(recorder, label):
            return sum(t.calls for t in recorder.spans() if t.name == label)

        ckpt = tmp_path / "ckpt"
        recorder = Recorder()
        builder = MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                             recorder=recorder, checkpoint_dir=ckpt)
        builder.build()
        saved = builder.ckpt_lineage.stages_recomputed
        assert calls(recorder, "ckpt.encode") == len(saved) \
            == len(ALL_STAGES)
        assert calls(recorder, "ckpt.decode") == 0

        recorder = Recorder()
        builder = MapBuilder(small_scenario, options=OPTS, faults=PLAN,
                             recorder=recorder, checkpoint_dir=ckpt,
                             resume=True)
        builder.build()
        reused = builder.ckpt_lineage.stages_reused
        assert calls(recorder, "ckpt.decode") == len(reused) \
            == len(ALL_STAGES)
        assert calls(recorder, "ckpt.encode") == 0


class TestStore:
    def make(self, tmp_path, **overrides) -> CheckpointStore:
        digests = {"config_digest": "c" * 16,
                   "fault_plan_digest": "f" * 16,
                   "options_digest": "o" * 16}
        digests.update(overrides)
        return CheckpointStore(tmp_path / "ckpt", **digests)

    def test_save_load_round_trip(self, tmp_path):
        store = self.make(tmp_path)
        scopes = {"cache-probing": {"failed": False}}
        notes = {"users": ["a note"]}
        store.save("users", {"x": [1, 2]}, scopes, notes, INPUTS)
        snapshot = store.load("users", None, INPUTS)
        assert snapshot.stage == "users"
        assert snapshot.payload == {"x": [1, 2]}
        assert snapshot.scopes == scopes
        assert snapshot.notes == notes

    def test_missing_snapshot_is_plain_miss(self, tmp_path):
        store = self.make(tmp_path)
        assert store.load("users", None, INPUTS) is None
        assert not store.quarantine_dir.exists()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = self.make(tmp_path)
        store.save("users", {"x": 1}, {}, {}, INPUTS)
        leftovers = [p for p in store.snapshot_dir.iterdir()
                     if p.suffix != ".json"]
        assert not leftovers

    def test_second_save_replaces_first(self, tmp_path):
        store = self.make(tmp_path)
        store.save("users", {"x": 1}, {}, {}, INPUTS)
        store.save("users", {"x": 2}, {}, {}, INPUTS)
        assert len(store.snapshot_paths("users")) == 1
        assert store.load("users", None, INPUTS).payload == {"x": 2}

    def test_tampered_payload_quarantined(self, tmp_path):
        store = self.make(tmp_path)
        path = store.save("users", {"x": 1}, {}, {}, INPUTS)
        envelope = json.loads(path.read_text())
        envelope["body"]["payload"]["x"] = 666
        path.write_text(json.dumps(envelope, separators=(",", ":")))
        assert store.load("users", None, INPUTS) is None
        assert len(list(store.quarantine_dir.iterdir())) == 1
        assert not store.snapshot_paths("users")

    def test_unparseable_snapshot_quarantined(self, tmp_path):
        store = self.make(tmp_path)
        path = store.save("users", {"x": 1}, {}, {}, INPUTS)
        path.write_text("{not json")
        assert store.load("users", None, INPUTS) is None
        assert len(list(store.quarantine_dir.iterdir())) == 1

    def test_stage_name_mismatch_quarantined(self, tmp_path):
        store = self.make(tmp_path)
        path = store.save("users", {"x": 1}, {}, {}, INPUTS)
        path.rename(path.with_name(
            path.name.replace("users", "routes")))
        assert store.load("routes", None, INPUTS) is None

    def test_digest_mismatch_quarantined(self, tmp_path):
        store = self.make(tmp_path)
        store.save("users", {"x": 1}, {}, {}, INPUTS)
        other = self.make(tmp_path, options_digest="x" * 16)
        assert other.load("users", None, INPUTS) is None
        assert store.load("users", None, INPUTS) is None  # quarantined

    def test_schema_version_mismatch_quarantined(self, tmp_path):
        store = self.make(tmp_path)
        path = store.save("users", {"x": 1}, {}, {}, INPUTS)
        envelope = json.loads(path.read_text())
        envelope["format_version"] = 999
        path.write_text(json.dumps(envelope, separators=(",", ":")))
        assert store.load("users", None, INPUTS) is None


class TestScopeState:
    """export_state/restore_state keep fault accounting bit-identical."""

    def test_round_trip_preserves_counters(self):
        context = FaultContext(FaultPlan.uniform(0.4, seed=5))
        scope = context.campaign("cache-probing")
        scope.survive_mask(FaultKind.PROBE_LOSS, 200)
        scope.mark_failed("boom")
        state = context.export_scopes(["cache-probing"])

        restored = FaultContext(FaultPlan.uniform(0.4, seed=5))
        restored.restore_scopes(state)
        target = restored.campaign("cache-probing")
        assert target.counters == scope.counters
        assert target.by_kind == scope.by_kind
        assert target.failed and target.failure_reason == "boom"
        assert restored.totals() == context.totals()

    def test_restore_mirrors_deltas_onto_recorder(self):
        context = FaultContext(FaultPlan.uniform(0.4, seed=5))
        scope = context.campaign("cache-probing")
        scope.survive_mask(FaultKind.PROBE_LOSS, 50)
        state = context.export_scopes(["cache-probing"])

        recorder = Recorder()
        restored = FaultContext(FaultPlan.uniform(0.4, seed=5))
        restored.attach_recorder(recorder)
        restored.restore_scopes(state)
        assert recorder.counters["faults.cache-probing.units"] == 50


class TestManifestLineage:
    def _payload(self, checkpoint=None):
        manifest = RunManifest(seed=1, config_hash="ab" * 8)
        payload = manifest.to_dict()
        if checkpoint is not None:
            payload["checkpoint"] = checkpoint
        return payload

    def _lineage(self, **overrides):
        section = {
            "checkpoint_dir": "/tmp/ckpt",
            "resumed": True,
            "stages_total": 3,
            "stages_reused": ["cache-probing", "root-logs"],
            "stages_recomputed": ["users"],
            "quarantined": [{"stage": "users", "reason": "digest",
                             "path": "q/users.json"}],
        }
        section.update(overrides)
        return section

    def test_accepts_consistent_lineage(self):
        payload = self._payload(self._lineage())
        validate_manifest(payload)
        manifest = RunManifest.from_dict(payload)
        assert manifest.checkpoint["stages_total"] == 3

    def test_rejects_unbalanced_lineage(self):
        payload = self._payload(self._lineage(stages_total=4))
        with pytest.raises(ValidationError,
                           match="reused \\+ recomputed"):
            validate_manifest(payload)

    def test_rejects_stage_both_reused_and_recomputed(self):
        payload = self._payload(self._lineage(
            stages_reused=["users", "root-logs"], stages_total=3))
        with pytest.raises(ValidationError, match="both reused"):
            validate_manifest(payload)

    def test_rejects_lineage_on_format_1(self):
        payload = self._payload(self._lineage())
        payload["format_version"] = 1
        with pytest.raises(ValidationError,
                           match="format_version must be 5, got 1"):
            validate_manifest(payload)

    def test_rejects_malformed_quarantine_entries(self):
        payload = self._payload(self._lineage(quarantined=[{"oops": 1}]))
        with pytest.raises(ValidationError, match="stage/reason"):
            validate_manifest(payload)

    def test_builder_manifest_carries_lineage(self, small_scenario,
                                              tmp_path):
        ckpt = tmp_path / "ckpt"
        first = MapBuilder(small_scenario, faults=PLAN,
                           recorder=Recorder(), checkpoint_dir=ckpt)
        first.build()
        manifest = first.manifest(command="test", scale="small")
        payload = manifest.to_dict()
        validate_manifest(payload)
        assert payload["checkpoint"]["resumed"] is False
        assert payload["checkpoint"]["stages_recomputed"] \
            == list(PRIMARY_STAGES)

        second = MapBuilder(small_scenario, faults=PLAN,
                            recorder=Recorder(), checkpoint_dir=ckpt,
                            resume=True)
        second.build()
        payload = second.manifest(command="test", scale="small").to_dict()
        validate_manifest(payload)
        assert payload["checkpoint"]["resumed"] is True
        assert payload["checkpoint"]["stages_reused"] \
            == list(PRIMARY_STAGES)
        # resumed instrumented runs still report ckpt + fault counters
        assert payload["counters"]["ckpt.loads"] == len(PRIMARY_STAGES)
        assert any(key.startswith("faults.")
                   for key in payload["counters"])
