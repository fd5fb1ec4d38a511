"""Experiments C1-C3 — §3.1.2 coverage claims.

* C1: cache probing finds prefixes with ~95% of the ground-truth CDN's
  traffic, with <1% false positives;
* C2: root-log crawling finds ASes with ~60% of that traffic;
* C3: combined, ~99% of traffic and ~98% of APNIC-estimated users.

The benchmarked step is the full one-day cache-probing campaign over every
routable /24 x top-20 domains — the heart of the measurement machinery.
"""

from repro.analysis.report import render_claims
from repro.measure.cache_probing import CacheProbingCampaign
from repro.par import ShardStreams


def test_bench_cache_probing_campaign(benchmark, scenario, claims):
    config = scenario.config.measurement

    def run_campaign():
        return CacheProbingCampaign(
            oracle=scenario.cache_oracle,
            gdns=scenario.gdns,
            services=scenario.catalog.top_by_popularity(
                config.probe_top_k_domains),
            prefix_ids=scenario.routable_prefix_ids(),
            rounds_per_day=config.probe_rounds_per_day,
            streams=ShardStreams(scenario.config.seed,
                                 ("bench-probe",))).run()

    result = benchmark.pedantic(run_campaign, rounds=3, iterations=1)
    assert len(result.detected_prefixes()) > 0

    results = (claims.c1_cache_probing_coverage()
               + [claims.c2_rootlog_coverage()]
               + claims.c3_combined_coverage())
    print()
    print(render_claims(results))
    for claim in results:
        assert claim.passed, claim.render()

    # Complementarity: the union must beat the weaker technique alone.
    by_id = {c.claim_id: c for c in results}
    assert by_id["C3a"].measured >= by_id["C2"].measured


def test_bench_coverage_across_cdns(benchmark, scenario, builder, itm):
    """Robustness: the coverage result is not specific to the reference
    CDN — the detected-prefix set covers every hypergiant's traffic."""
    from repro.analysis.report import render_table

    detected = itm.users.detected_prefixes

    def coverage_table():
        rows = []
        for key in scenario.catalog.hypergiants:
            coverage = scenario.traffic.coverage_of_prefix_set(
                detected, key)
            rows.append((key, coverage))
        return rows

    rows = benchmark.pedantic(coverage_table, rounds=1, iterations=1)
    print()
    print(render_table(["hypergiant", "prefix-level traffic coverage"],
                       [(k, f"{c:.3f}") for k, c in rows]))
    for key, coverage in rows:
        assert coverage > 0.9, key
