"""Tests for the reproduction harness: figures, Table 1, claims, report."""

import pytest

from repro.analysis.claims import ClaimResult, ClaimSuite
from repro.analysis.figures import (fig1a_prefixes_per_pop,
                                    fig1b_coverage_and_servers,
                                    fig2_subscribers_vs_signals)
from repro.analysis.report import (render_claims, render_diff_report,
                                   render_fig1a, render_fig1b,
                                   render_fig2, render_run_report,
                                   render_table, render_table1)
from repro.analysis.tables import regenerate_table1


@pytest.fixture(scope="module")
def suite(small_scenario, small_builder, small_itm):
    return ClaimSuite(small_scenario, small_itm, small_builder.artifacts)


class TestFigures:
    def test_fig1a_rows(self, small_scenario, small_builder):
        rows = fig1a_prefixes_per_pop(small_scenario,
                                      small_builder.artifacts.cache_result)
        assert len(rows) == len(small_scenario.gdns.pops)
        counts = [r.prefix_count for r in rows]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) > 0

    def test_fig1b_data(self, small_scenario, small_builder):
        data = fig1b_coverage_and_servers(
            small_scenario, small_builder.artifacts.cache_result,
            small_builder.artifacts.tls_result)
        assert data.global_user_coverage > 0.9
        assert data.server_dots
        assert any(dot.is_offnet for dot in data.server_dots)
        for row in data.shading:
            assert 0.0 <= row.covered_percent <= 100.0

    def test_fig2_data(self, small_scenario, small_builder):
        data = fig2_subscribers_vs_signals(
            small_scenario, small_builder.artifacts.cache_result)
        assert data.rows
        assert data.hit_count_pearson > 0.8
        assert data.hit_count_spearman > 0.8
        # France must be present: it is the paper's case study.
        assert any(r.country_code == "FR" for r in data.rows)

    def test_fig2_fitted_lines(self, small_scenario, small_builder):
        data = fig2_subscribers_vs_signals(
            small_scenario, small_builder.artifacts.cache_result)
        fit = data.hit_count_fit
        assert fit is not None
        assert fit.slope > 0          # more subscribers, more hits
        assert fit.r_value > 0.8
        # The fitted line roughly predicts the biggest ISP's hits.
        biggest = max(data.rows, key=lambda r: r.subscribers_m)
        predicted = fit.predict(biggest.subscribers_m)
        assert predicted == pytest.approx(biggest.cache_hit_count,
                                          rel=0.5)
        apnic_fit = data.apnic_fit
        assert apnic_fit is not None
        assert apnic_fit.slope > 0


class TestTable1:
    def test_rows_complete(self, small_scenario, small_itm):
        rows = regenerate_table1(small_scenario, small_itm)
        assert len(rows) == 5
        components = {r.component for r in rows}
        assert "Where are users?" in components
        assert "What routes are used?" in components
        for row in rows:
            assert row.coverage_now


class TestClaims:
    def test_claim_result_pass_logic(self):
        ok = ClaimResult("X", "d", "p", 0.5, (0.4, 0.6))
        bad = ClaimResult("X", "d", "p", 0.9, (0.4, 0.6))
        assert ok.passed and not bad.passed
        assert "ok" in ok.render() and "FAIL" in bad.render()

    def test_c7_ecs_claims(self, suite):
        results = suite.c7_ecs_adoption()
        assert all(r.passed for r in results)

    def test_c10_consolidation(self, suite):
        assert suite.c10_consolidation().passed

    def test_c1_and_c3_users_claims(self, suite):
        for result in suite.c1_cache_probing_coverage():
            assert result.passed, result.render()
        for result in suite.c3_combined_coverage():
            assert result.passed, result.render()

    def test_c5_mapping_claims_shape(self, suite):
        results = {r.claim_id: r for r in suite.c5_mapping_optimality()}
        # User-weighted must beat route-level regardless of exact bands.
        assert results["C5b"].measured > results["C5a"].measured


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "bb"], [(1, 2), ("x", "yyyy")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_render_figures(self, small_scenario, small_builder,
                            small_itm):
        fig1a = render_fig1a(fig1a_prefixes_per_pop(
            small_scenario, small_builder.artifacts.cache_result))
        assert "Figure 1a" in fig1a
        fig1b = render_fig1b(fig1b_coverage_and_servers(
            small_scenario, small_builder.artifacts.cache_result,
            small_builder.artifacts.tls_result))
        assert "Figure 1b" in fig1b
        fig2 = render_fig2(fig2_subscribers_vs_signals(
            small_scenario, small_builder.artifacts.cache_result))
        assert "Figure 2" in fig2 and "Orange" in fig2
        table1 = render_table1(regenerate_table1(small_scenario,
                                                 small_itm))
        assert "Table 1" in table1

    def test_render_claims(self, suite):
        results = suite.c7_ecs_adoption()
        text = render_claims(results)
        assert "claims within band" in text


class TestRunReport:
    @pytest.fixture()
    def lineage_manifest(self):
        """A manifest with checkpoint lineage + degraded coverage."""
        from repro.obs import RunManifest
        return RunManifest.from_dict({
            "format_version": 5,
            "seed": 7,
            "config_hash": "deadbeefdeadbeef",
            "created_unix": 100.0,
            "command": "summary",
            "scale": "small",
            "fault_plan": {"describe": "probe_loss=0.2", "seed": 0,
                           "digest": "abcdabcdabcdabcd",
                           "retry_attempts": 3, "backoff_s": 0.0},
            "stages": [
                {"path": "build", "name": "build", "calls": 1,
                 "wall_s": 2.0},
                {"path": "build.users", "name": "users", "calls": 1,
                 "wall_s": 1.0},
            ],
            "counters": {},
            "gauges": {"mem.build.peak_bytes": float(64 << 20),
                       "mem.build.current_bytes": float(8 << 20)},
            "campaigns": {"cache-probing": {
                "ran": True, "failed": False, "failure_reason": None,
                "units": 100, "attempts": 120, "drops": 20,
                "retries": 20, "giveups": 5, "delivered": 95,
                "backoff_s": 0.1, "coverage": 0.95, "wall_s": 0.4}},
            "route_cache": {"entries": 10, "max_entries": 64,
                            "hits": 90, "misses": 10, "evictions": 0,
                            "hit_rate": 0.9},
            "coverage": {"users": {
                "coverage": 0.95,
                "techniques_intended": ["cache-probing", "root-logs"],
                "techniques_delivered": ["cache-probing"],
                "notes": ["root-logs campaign failed"]}},
            "checkpoint": {
                "checkpoint_dir": "/tmp/ckpt", "resumed": True,
                "stages_total": 3,
                "stages_reused": ["users", "services"],
                "stages_recomputed": ["routes"],
                "quarantined": [{"stage": "routes",
                                 "reason": "digest mismatch"}]},
        })

    def test_render_run_report_covers_format_2_sections(
            self, lineage_manifest):
        text = render_run_report(lineage_manifest)
        assert "seed 7" in text and "deadbeefdeadbeef" in text
        assert "probe_loss=0.2" in text
        # Degraded coverage: the lost technique and its note surface.
        assert "users: 95.0%" in text
        assert "lost root-logs" in text
        assert "root-logs campaign failed" in text
        # Checkpoint lineage: reuse counts and the quarantined snapshot.
        assert "resumed from /tmp/ckpt" in text
        assert "reused 2/3 stages (users, services)" in text
        assert "recomputed 1 (routes)" in text
        assert "quarantined routes: digest mismatch" in text
        # Memory profiling section renders peaks in MiB.
        assert "Peak traced memory" in text
        assert "64.0 MiB" in text

    def test_render_run_report_omits_absent_sections(self, small_config,
                                                     small_builder):
        from repro.obs import collect_manifest
        manifest = collect_manifest(small_builder.recorder, small_config)
        text = render_run_report(manifest)
        assert "Checkpoints:" not in text
        assert "Peak traced memory" not in text

    def test_render_diff_report_sections(self, lineage_manifest):
        import copy
        from repro.obs import RunManifest, diff_manifests
        payload = copy.deepcopy(lineage_manifest.to_dict())
        for stage in payload["stages"]:
            if stage["path"] == "build":
                stage["wall_s"] *= 3.0
        payload["coverage"]["users"]["coverage"] = 0.80
        diff = diff_manifests(lineage_manifest,
                              RunManifest.from_dict(payload))
        text = render_diff_report(diff)
        assert "status: REGRESSION" in text
        assert "wall:" in text and "coverage:" in text
        assert "build" in text

    def test_render_diff_report_clean(self, lineage_manifest):
        from repro.obs import diff_manifests
        diff = diff_manifests(lineage_manifest, lineage_manifest,
                              ignore=("checkpoint",))
        text = render_diff_report(diff)
        assert "status: OK" in text
        assert "No drift" in text
        assert "ignored categories: checkpoint" in text
