#!/usr/bin/env python3
"""Operator anomaly watch — "unusual traffic patterns" from public probes.

§2.1: operators "lack visibility to contextualize network events such as
network blackouts, performance anomalies, unusual traffic patterns, or
DDoS attacks." This example runs a baseline cache-probing campaign, then
injects two events into the world — a 3x traffic surge in one ISP and a
near-blackout in another — reruns the campaign, and lets the detector
find both from hit-count deltas alone.

Usage::

    python examples/anomaly_watch.py [seed]
"""

import sys

from repro import ScenarioConfig, build_scenario
from repro.analysis.report import render_table
from repro.core.builder import MapBuilder
from repro.core.change_detection import detect_activity_changes
from repro.measure.cache_probing import CacheProbingCampaign
from repro.par import ShardStreams
from repro.services.dnsinfra import CacheOracle


def campaign(scenario, oracle, label, seed):
    return CacheProbingCampaign(
        oracle=oracle, gdns=scenario.gdns,
        services=scenario.catalog.top_by_popularity(10),
        prefix_ids=scenario.routable_prefix_ids(), rounds_per_day=12,
        streams=ShardStreams(seed, ("anomaly", label))).run()


def main(seed: int = 20211110) -> None:
    scenario = build_scenario(ScenarioConfig.small(seed=seed))
    itm = MapBuilder(scenario).build()
    top = itm.users.top_ases(5)
    surge_asn, drop_asn = top[1][0], top[2][0]
    surge_name = scenario.registry.get(surge_asn).name
    drop_name = scenario.registry.get(drop_asn).name

    print("Day 0: baseline probing campaign...")
    baseline = campaign(scenario, scenario.cache_oracle, "base", seed)

    print(f"Overnight, the world changes: {surge_name} surges 3x "
          f"(viral event), {drop_name} goes nearly dark (outage).")
    rates = scenario.cache_oracle._rate.copy()
    asns = scenario.prefixes.asn_array
    rates[:, asns == surge_asn] *= 3.0
    rates[:, asns == drop_asn] *= 0.05
    event_oracle = CacheOracle(rates, list(scenario.cache_oracle._ttls),
                               scenario.cache_oracle.observability_scale)

    print("Day 1: same campaign, changed Internet...")
    current = campaign(scenario, event_oracle, "event", seed)

    report = detect_activity_changes(baseline, current,
                                     scenario.prefixes)
    print(f"\nFlagged {len(report.changes)} of "
          f"{report.ases_compared} compared ASes:\n")
    rows = []
    for change in report.changes[:8]:
        name = scenario.registry.get(change.asn).name
        rows.append((f"AS{change.asn}", name, change.direction,
                     f"{change.baseline_hits:.0f}",
                     f"{change.current_hits:.0f}",
                     f"{change.z_score:+.1f}"))
    print(render_table(
        ["AS", "name", "event", "hits before", "hits after", "z"], rows))

    flagged = report.flagged_asns()
    verdict = ("both events caught"
               if {surge_asn, drop_asn} <= flagged else "MISSED an event")
    print(f"\n{verdict} — from nothing but public DNS cache probes.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20211110)
