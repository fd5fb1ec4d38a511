"""Experiments A1/A2 — ablations of the design choices DESIGN.md calls out.

* A1: cache-probing coverage as a function of probe budget (rounds/day).
  More rounds monotonically improve traffic coverage with diminishing
  returns — the knob a real campaign must size.
* A2: the value of fusing the two §3.1.2 techniques: the fused users
  component covers at least as much as either technique alone, and
  strictly more ASes than root logs alone.
"""

import numpy as np

from repro.analysis.report import render_table
from repro.core.builder import BuilderOptions, MapBuilder
from repro.measure.cache_probing import CacheProbingCampaign
from repro.par import ShardStreams
from repro.services.hypergiants import GROUND_TRUTH_CDN_KEY


def test_bench_probe_budget_sweep(benchmark, scenario):
    """A1: coverage vs probing budget."""
    services = scenario.catalog.top_by_popularity(
        scenario.config.measurement.probe_top_k_domains)
    pids = scenario.routable_prefix_ids()

    def coverage_at(rounds: int) -> float:
        campaign = CacheProbingCampaign(
            oracle=scenario.cache_oracle, gdns=scenario.gdns,
            services=services, prefix_ids=pids, rounds_per_day=rounds,
            streams=ShardStreams(scenario.config.seed,
                                 ("ablation-probe", str(rounds))))
        result = campaign.run()
        return scenario.traffic.coverage_of_prefix_set(
            result.detected_prefixes(), GROUND_TRUTH_CDN_KEY)

    budgets = [1, 2, 4, 8, 16, 32]
    coverages = benchmark.pedantic(
        lambda: [coverage_at(r) for r in budgets], rounds=1, iterations=1)

    print()
    print(render_table(
        ["probe rounds/day", "CDN traffic coverage"],
        [(r, f"{c:.3f}") for r, c in zip(budgets, coverages)]))

    # Monotone improvement (tiny sampling noise tolerated)...
    for lo, hi in zip(coverages, coverages[1:]):
        assert hi >= lo - 0.005
    # ...with diminishing returns: the first doublings buy more than the
    # last one.
    assert coverages[1] - coverages[0] > coverages[-1] - coverages[-2]
    # A single round already finds a sizeable share of the heavy hitters,
    # and the full budget approaches the paper's 95%.
    assert coverages[0] > 0.35
    assert coverages[-1] > 0.9


def test_bench_fusion_value(benchmark, scenario):
    """A2: fused users component vs each technique alone."""

    def build_variant(cache: bool, logs: bool):
        options = BuilderOptions(
            use_cache_probing=cache, use_root_logs=logs,
            use_tls_scan=False, use_sni_scan=False,
            use_ecs_mapping=False, geolocate_sites=False)
        return MapBuilder(scenario, options).build()

    fused = benchmark.pedantic(
        lambda: build_variant(True, True), rounds=1, iterations=1)
    probing_only = build_variant(True, False)
    logs_only = build_variant(False, True)

    def as_coverage(itm) -> float:
        return scenario.traffic.coverage_of_as_set(
            itm.users.detected_as_set(), GROUND_TRUTH_CDN_KEY)

    rows = [
        ("cache probing only", len(probing_only.users.detected_as_set()),
         f"{as_coverage(probing_only):.3f}"),
        ("root logs only", len(logs_only.users.detected_as_set()),
         f"{as_coverage(logs_only):.3f}"),
        ("fused", len(fused.users.detected_as_set()),
         f"{as_coverage(fused):.3f}"),
    ]
    print()
    print(render_table(["users component", "detected ASes",
                        "CDN traffic coverage"], rows))

    assert probing_only.users.detected_as_set() <= \
        fused.users.detected_as_set()
    assert logs_only.users.detected_as_set() <= \
        fused.users.detected_as_set()
    assert as_coverage(fused) >= max(as_coverage(probing_only),
                                     as_coverage(logs_only))
    # Root logs alone are far weaker — the paper's 60% vs 99% story.
    assert as_coverage(logs_only) < as_coverage(fused) - 0.15
