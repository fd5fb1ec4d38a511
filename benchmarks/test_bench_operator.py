"""Experiments O1/O2 — the operator-facing use cases of §2.1.

* O1: anomaly detection — diff two probing campaigns; a surged and a
  blacked-out network must be flagged with the right direction, with a
  controlled false-positive rate.
* O2: commonly-used routes — the §3.3 framing: most user->hypergiant
  routes are stable under light churn, and the map can attach confidence
  to each route it publishes.
"""

import numpy as np

from repro.analysis.report import render_table
from repro.core.change_detection import detect_activity_changes
from repro.core.routes_common import CommonRouteEstimator
from repro.measure.cache_probing import CacheProbingCampaign
from repro.par import ShardStreams
from repro.rand import substream
from repro.services.dnsinfra import CacheOracle


def _campaign(scenario, oracle, label):
    return CacheProbingCampaign(
        oracle=oracle, gdns=scenario.gdns,
        services=scenario.catalog.top_by_popularity(10),
        prefix_ids=scenario.routable_prefix_ids(), rounds_per_day=12,
        streams=ShardStreams(scenario.config.seed,
                             ("bench-op", label))).run()


def test_bench_anomaly_detection(benchmark, scenario, itm):
    """O1: detect a surge and a blackout from probing deltas."""
    top = itm.users.top_ases(5)
    surge_asn = top[1][0]
    drop_asn = top[3][0]
    base_oracle = scenario.cache_oracle
    rates = base_oracle._rate.copy()
    asns = scenario.prefixes.asn_array
    rates[:, asns == surge_asn] *= 3.0
    rates[:, asns == drop_asn] *= 0.05
    event_oracle = CacheOracle(rates, list(base_oracle._ttls),
                               base_oracle.observability_scale)

    baseline = _campaign(scenario, base_oracle, "baseline")
    current = _campaign(scenario, event_oracle, "event")

    report = benchmark.pedantic(
        detect_activity_changes,
        args=(baseline, current, scenario.prefixes),
        rounds=1, iterations=1)

    print()
    rows = [(f"AS{c.asn}", c.direction, f"{c.baseline_hits:.0f}",
             f"{c.current_hits:.0f}", f"{c.z_score:+.1f}")
            for c in report.changes[:8]]
    print(render_table(
        ["AS", "direction", "baseline hits", "current hits", "z"], rows))
    print(f"{len(report.changes)} flagged of "
          f"{report.ases_compared} compared")

    flagged = report.flagged_asns()
    assert surge_asn in flagged
    assert drop_asn in flagged
    directions = {c.asn: c.direction for c in report.changes}
    assert directions[surge_asn] == "surge"
    assert directions[drop_asn] == "drop"
    # False positives stay rare.
    assert len(report.changes) <= max(4, report.ases_compared * 0.05)


def test_bench_common_routes(benchmark, scenario, itm):
    """O2: route stability under churn, with confidence."""
    top_ases = [asn for asn, __ in itm.users.top_ases(40)]
    dst = scenario.hypergiant_asn("googol")
    pairs = [(src, dst) for src in top_ases if src != dst]
    estimator = CommonRouteEstimator(
        scenario.graph,
        substream(scenario.config.seed, "bench-common"), samples=8)

    routes = benchmark.pedantic(estimator.estimate, args=(pairs,),
                                rounds=1, iterations=1)

    stable = [r for r in routes.values() if r.is_stable]
    confidences = [r.confidence for r in routes.values()]
    print()
    print(render_table(
        ["metric", "value"],
        [("pairs", len(routes)),
         ("stable (confidence > 2/3)",
          f"{len(stable) / len(routes):.0%}"),
         ("median confidence", f"{float(np.median(confidences)):.2f}"),
         ("median path diversity", f"{float(np.median([r.distinct_paths for r in routes.values()])):.1f}")]))

    # The §3.3 premise: user->hypergiant routes are overwhelmingly
    # stable, so publishing "commonly used routes" is meaningful.
    assert len(stable) / len(routes) > 0.7
