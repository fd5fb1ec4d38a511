"""Tests for the command-line interface."""

import io
import json
import shlex

import pytest

from repro import cli
from repro.cli import EXIT_INVALID_MANIFEST, EXIT_REGRESSION, main
from repro.delta import ActivitySwing, MutationPlan
from repro.faults import SERVE_KINDS


class TestCli:
    def test_summary(self, capsys):
        assert main(["--scale", "small", "summary"]) == 0
        out = capsys.readouterr().out
        assert "Internet Traffic Map" in out
        assert "activity share" in out

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workers", "2", "summary"])
        assert excinfo.value.code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_table1(self, capsys):
        assert main(["--scale", "small", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["--scale", "small", "figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1a" in out
        assert "Figure 1b" in out
        assert "Figure 2" in out

    def test_outage_ranking(self, capsys):
        assert main(["--scale", "small", "outage", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("AS") >= 3

    def test_outage_specific_as(self, capsys):
        # 1000 is the first eyeball ASN in every world.
        assert main(["--scale", "small", "outage", "--asn", "1000"]) == 0
        assert "AS1000" in capsys.readouterr().out

    def test_outage_unknown_as(self, capsys):
        assert main(["--scale", "small", "outage",
                     "--asn", "424242"]) == 2
        assert "unknown ASN" in capsys.readouterr().err

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["--scale", "small", "not-a-command"])

    def test_seed_flag(self, capsys):
        assert main(["--scale", "small", "--seed", "7",
                     "summary"]) == 0

    def test_profile_flag_writes_stats(self, tmp_path, capsys):
        stats = tmp_path / "profile.txt"
        assert main(["--scale", "small", "--profile", str(stats),
                     "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert f"wrote profile to {stats}" in captured.err
        text = stats.read_text()
        assert "cumulative" in text
        assert "function calls" in text
        # The hot routing path must appear in the profile.
        assert "routing.py" in text

    def test_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["--scale", "small", "report", "-o",
                     str(out)]) == 0
        text = out.read_text()
        assert "# Internet Traffic Map" in text
        assert "Headline claims" in text
        assert "| id | claim |" in text

    def test_command_defaults_to_summary(self, capsys):
        assert main(["--scale", "small"]) == 0
        assert "Internet Traffic Map" in capsys.readouterr().out

    def test_metrics_flag_writes_valid_manifest(self, tmp_path, capsys):
        from repro.obs import (KNOWN_CAMPAIGNS, RunManifest,
                               validate_manifest)
        path = tmp_path / "metrics.json"
        assert main(["--scale", "small", "--metrics", str(path),
                     "summary"]) == 0
        captured = capsys.readouterr()
        assert f"wrote metrics manifest to {path}" in captured.err
        manifest = RunManifest.load(str(path))
        validate_manifest(manifest.to_dict())
        assert manifest.command == "summary"
        assert manifest.scale == "small"
        # An instrumented CLI run covers every measurement campaign.
        for name in KNOWN_CAMPAIGNS:
            assert manifest.stage(f"measure.{name}") is not None, name
        assert manifest.stage("build") is not None

    def test_metrics_with_faults_records_plan(self, tmp_path, capsys):
        from repro.obs import RunManifest
        path = tmp_path / "metrics.json"
        assert main(["--scale", "small", "--faults", "probe_loss=0.2",
                     "--metrics", str(path), "summary"]) == 0
        manifest = RunManifest.load(str(path))
        assert manifest.fault_plan is not None
        assert "probe_loss" in manifest.fault_plan["describe"]
        record = manifest.campaign("cache-probing")
        assert record.units == record.delivered + record.giveups

    def test_trace_flag_streams_span_log(self, capsys):
        assert main(["--scale", "small", "--trace", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "[trace] > build" in captured.err
        assert "measure.cache-probing" in captured.err


@pytest.fixture(scope="module")
def metrics_path(tmp_path_factory):
    """A real small-build manifest, written once per module."""
    path = tmp_path_factory.mktemp("manifests") / "metrics.json"
    assert main(["--scale", "small", "--metrics", str(path),
                 "summary"]) == 0
    return path


class TestMetricsStdout:
    def test_metrics_dash_pipes_clean_json(self, capsys):
        assert main(["--scale", "small", "--metrics", "-",
                     "summary"]) == 0
        captured = capsys.readouterr()
        # stdout is exactly one JSON document: the validated manifest.
        manifest = json.loads(captured.out)
        assert manifest["command"] == "summary"
        # The command's own output moved to stderr.
        assert "activity share" in captured.err
        assert "wrote metrics manifest to stdout" in captured.err
        assert "activity share" not in captured.out

    def test_invalid_manifest_exits_5_and_persists_nothing(
            self, tmp_path, monkeypatch, capsys):
        from repro.errors import ValidationError

        def reject(payload):
            raise ValidationError("synthetic schema violation")

        monkeypatch.setattr("repro.cli.validate_manifest", reject)
        path = tmp_path / "metrics.json"
        history = tmp_path / "h.jsonl"
        assert main(["--scale", "small", "--metrics", str(path),
                     "--history", str(history),
                     "summary"]) == EXIT_INVALID_MANIFEST
        assert not path.exists()
        assert not history.exists()
        assert "not persisted" in capsys.readouterr().err


class TestProfileMemoryFlag:
    def test_profile_memory_adds_gauges_and_keeps_map_identical(
            self, tmp_path, capsys):
        plain_map = tmp_path / "plain.json"
        profiled_map = tmp_path / "profiled.json"
        metrics = tmp_path / "metrics.json"
        assert main(["--scale", "small", "--map-json", str(plain_map),
                     "summary"]) == 0
        assert main(["--scale", "small", "--profile-memory",
                     "--metrics", str(metrics),
                     "--map-json", str(profiled_map), "summary"]) == 0
        assert profiled_map.read_text() == plain_map.read_text()
        manifest = json.loads(metrics.read_text())
        assert manifest["gauges"]["mem.build.peak_bytes"] > 0


class TestHistoryCli:
    def test_record_list_show_round_trip(self, metrics_path, tmp_path,
                                         capsys):
        history = tmp_path / "h.jsonl"
        assert main(["history", "record", str(metrics_path),
                     "--history", str(history),
                     "--label", "baseline"]) == 0
        assert "recorded run @0" in capsys.readouterr().out
        assert main(["history", "list", "--history", str(history)]) == 0
        listing = capsys.readouterr().out
        assert "@0" in listing and "baseline" in listing
        assert main(["history", "show", "last",
                     "--history", str(history)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "summary"
        assert main(["history", "show", "@0", "--report",
                     "--history", str(history)]) == 0
        assert "Run report" in capsys.readouterr().out

    def test_record_invalid_manifest_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"seed\": \"nope\"}\n")
        history = tmp_path / "h.jsonl"
        assert main(["history", "record", str(bad), "--history",
                     str(history)]) == EXIT_INVALID_MANIFEST
        assert not history.exists()
        assert "not recorded" in capsys.readouterr().err

    def test_record_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["history", "record", str(tmp_path / "absent.json"),
                     "--history", str(tmp_path / "h.jsonl")]) == 2

    def test_build_history_flag_appends_entry(self, tmp_path, capsys):
        from repro.obs import RunHistory
        history = tmp_path / "h.jsonl"
        assert main(["--scale", "small", "--history", str(history),
                     "summary"]) == 0
        assert f"recorded run @0 in {history}" in capsys.readouterr().err
        (entry,) = RunHistory(history).entries()
        assert entry.manifest["command"] == "summary"
        # In-process appends know the builder's options digest.
        assert entry.key.options is not None

    def test_show_out_of_range_exits_2(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        assert main(["history", "show", "@3",
                     "--history", str(history)]) == 2


class TestCompareCli:
    def test_self_compare_exits_zero(self, metrics_path, capsys):
        assert main(["compare", str(metrics_path),
                     str(metrics_path), "--gate"]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_seeded_regression_exits_4(self, metrics_path, tmp_path,
                                       capsys):
        payload = json.loads(metrics_path.read_text())
        payload["coverage"]["users"]["coverage"] -= 0.10
        for stage in payload["stages"]:
            if stage["path"] == "build":
                stage["wall_s"] *= 3.0
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(payload))
        assert main(["compare", str(metrics_path),
                     str(regressed)]) == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "status: REGRESSION" in out
        assert "coverage" in out

    def test_gate_escalates_warnings(self, metrics_path, tmp_path,
                                     capsys):
        payload = json.loads(metrics_path.read_text())
        payload["coverage"]["users"]["coverage"] -= 0.01   # warn-sized
        warned = tmp_path / "warned.json"
        warned.write_text(json.dumps(payload))
        assert main(["compare", str(metrics_path), str(warned)]) == 0
        assert main(["compare", str(metrics_path), str(warned),
                     "--gate"]) == EXIT_REGRESSION

    def test_incomparable_exits_2_unless_forced(self, metrics_path,
                                                tmp_path, capsys):
        payload = json.loads(metrics_path.read_text())
        payload["config_hash"] = "feedfacefeedface"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(payload))
        assert main(["compare", str(metrics_path), str(other)]) == 2
        assert "not comparable" in capsys.readouterr().err
        assert main(["compare", str(metrics_path), str(other),
                     "--force", "--ignore", "wall"]) == 0
        assert "FORCED" in capsys.readouterr().out

    def test_ignore_wall_drops_timing_findings(self, metrics_path,
                                               tmp_path, capsys):
        payload = json.loads(metrics_path.read_text())
        for stage in payload["stages"]:
            stage["wall_s"] *= 10.0
        slower = tmp_path / "slower.json"
        slower.write_text(json.dumps(payload))
        assert main(["compare", str(metrics_path), str(slower),
                     "--ignore", "wall", "--gate"]) == 0

    def test_json_output_is_structured(self, metrics_path, capsys):
        assert main(["compare", str(metrics_path), str(metrics_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["findings"] == []

    def test_stdin_manifest(self, metrics_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(metrics_path.read_text()))
        assert main(["compare", "-", str(metrics_path),
                     "--gate"]) == 0

    def test_double_stdin_rejected(self, capsys):
        assert main(["compare", "-", "-"]) == 2

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2

    def test_garbage_manifest_exits_5(self, tmp_path, metrics_path,
                                      capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        assert main(["compare", str(metrics_path),
                     str(garbage)]) == EXIT_INVALID_MANIFEST

    def test_history_refs_resolve(self, metrics_path, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        assert main(["history", "record", str(metrics_path),
                     "--history", str(history)]) == 0
        capsys.readouterr()
        assert main(["compare", "@0", "last",
                     "--history", str(history)]) == 0

    def test_unknown_ignore_category_rejected(self, metrics_path):
        with pytest.raises(SystemExit):
            main(["compare", str(metrics_path), str(metrics_path),
                  "--ignore", "vibes"])


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__
        from repro.cli import _package_version
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert _package_version() in out
        assert "repro" in out
        # metadata fallback keeps -V working from a source checkout
        assert _package_version() == __version__ or _package_version()

    def test_short_flag_spelling(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-V"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCheckpointFlags:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["--scale", "small", "--resume", "summary"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_crash_exits_3_with_resume_hint(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(["--scale", "small", "--checkpoint-dir", str(ckpt),
                     "--crash-at", "users", "summary"])
        assert code == 3
        err = capsys.readouterr().err
        assert "simulated crash" in err
        assert "--resume" in err
        assert list((ckpt / "snapshots").glob("users.*.json"))

    def test_crash_resume_map_matches_fresh(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        fresh = tmp_path / "fresh.json"
        resumed = tmp_path / "resumed.json"
        assert main(["--scale", "small", "--map-json", str(fresh),
                     "summary"]) == 0
        assert main(["--scale", "small", "--checkpoint-dir", str(ckpt),
                     "--crash-at", "services", "summary"]) == 3
        assert main(["--scale", "small", "--checkpoint-dir", str(ckpt),
                     "--resume", "--map-json", str(resumed),
                     "summary"]) == 0
        assert resumed.read_text() == fresh.read_text()

    def test_resume_hint_reruns_the_crashed_command(self, tmp_path,
                                                    capsys):
        # The hint keeps every flag of the crashed command (a space in
        # the dir exercises the quoting): run verbatim, it resumes the
        # same world instead of quarantining its snapshots.
        ckpt = tmp_path / "check points"
        fresh = tmp_path / "fresh.json"
        resumed = tmp_path / "resumed.json"
        assert main(["--scale", "small", "--seed", "7", "--map-json",
                     str(fresh), "summary"]) == 0
        assert main(["--scale", "small", "--seed", "7", "--checkpoint-dir",
                     str(ckpt), "--crash-at", "users", "--map-json",
                     str(resumed), "summary"]) == 3
        err = capsys.readouterr().err
        hint = err.split("resume with: python -m repro ", 1)[1]
        hint = hint.splitlines()[0]
        assert "--crash-at" not in hint
        assert main(shlex.split(hint)) == 0
        assert not (ckpt / "quarantine").exists()
        assert resumed.read_text() == fresh.read_text()

    def test_mutate_with_resume_is_a_delta_build(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        plan = tmp_path / "plan.json"
        metrics = tmp_path / "m.json"
        MutationPlan(mutations=(ActivitySwing(prefix_ids=(0, 1),
                                              factor=2.0),)).save(plan)
        # --metrics turns the auxiliary campaigns on, and the builder
        # options are part of snapshot compatibility: both runs take it.
        assert main(["--scale", "small", "--checkpoint-dir", str(ckpt),
                     "--metrics", str(metrics), "summary"]) == 0
        assert main(["--scale", "small", "--checkpoint-dir", str(ckpt),
                     "--mutate", str(plan), "--resume", "--metrics",
                     str(metrics), "summary"]) == 0
        delta = json.loads(metrics.read_text())["delta"]
        assert delta["mutation_digest"] == MutationPlan.load(
            str(plan)).digest()
        assert "services" in delta["stages_reused"]

    def test_delta_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--delta", "summary"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --delta" \
            in capsys.readouterr().err

    def test_bad_crash_stage_exits_2(self, capsys):
        assert main(["--scale", "small", "--crash-at", "nope",
                     "summary"]) == 2
        assert "not a stage" in capsys.readouterr().err


class TestChaosFlag:
    """``serve --chaos`` is parsed by ``FaultPlan.parse`` over the serve
    kinds, before any world is built."""

    @pytest.fixture
    def no_world(self, monkeypatch):
        def refuse(config):
            raise AssertionError("a world was built before --chaos "
                                 "was parsed")
        monkeypatch.setattr(cli, "build_scenario", refuse)

    @pytest.mark.parametrize("spec", ["bogus=1", "probe_loss=0.1",
                                      "crash_at=users"])
    def test_bad_spec_exits_2_before_building(self, no_world, spec,
                                              capsys):
        assert main(["serve", "--chaos", spec]) == 2
        assert "bad --chaos spec" in capsys.readouterr().err

    def test_bare_chaos_arms_the_serve_kinds(self, no_world, monkeypatch):
        seen = {}

        def run(args, argv):
            seen["plan"] = args.chaos
            return 0

        monkeypatch.setattr(cli, "_run", run)
        assert main(["serve", "--chaos"]) == 0
        plan = seen["plan"]
        assert plan.active_kinds() == SERVE_KINDS
        assert all(plan.rate_of(kind) == 0.05 for kind in SERVE_KINDS)
        assert plan.describe() == (
            "slow_handler=0.05, artefact_corruption=0.05, "
            "cache_eviction_storm=0.05, client_disconnect=0.05")
