"""Tests for probing-delta anomaly detection."""

import numpy as np
import pytest

from repro.core.change_detection import detect_activity_changes
from repro.errors import ValidationError
from repro.measure.cache_probing import CacheProbingCampaign
from repro.par import ShardStreams
from repro.services.dnsinfra import CacheOracle


def run_campaign(scenario, oracle, label):
    campaign = CacheProbingCampaign(
        oracle=oracle, gdns=scenario.gdns,
        services=scenario.catalog.top_by_popularity(10),
        prefix_ids=scenario.routable_prefix_ids(),
        rounds_per_day=12,
        streams=ShardStreams(71, ("change", label)))
    return campaign.run()


def surged_oracle(scenario, target_asn, factor):
    """An oracle whose target-AS query rates are scaled by ``factor`` —
    the world after a traffic surge or drop in one network."""
    base = scenario.cache_oracle
    rates = base._rate.copy()
    mask = scenario.prefixes.asn_array == target_asn
    rates[:, mask] *= factor
    return CacheOracle(rates, list(base._ttls),
                       base.observability_scale)


@pytest.fixture(scope="module")
def baseline(small_scenario):
    return run_campaign(small_scenario, small_scenario.cache_oracle,
                        "baseline")


class TestDetection:
    def test_no_change_no_flags_mostly(self, small_scenario, baseline):
        """Two draws of the same world stay under the threshold almost
        everywhere (false-positive control)."""
        again = run_campaign(small_scenario, small_scenario.cache_oracle,
                             "again")
        report = detect_activity_changes(baseline, again,
                                         small_scenario.prefixes)
        assert len(report.changes) <= max(2, report.ases_compared * 0.03)

    def test_surge_detected(self, small_scenario, baseline, small_itm):
        target = small_itm.users.top_ases(3)[2][0]
        surged = run_campaign(
            small_scenario, surged_oracle(small_scenario, target, 4.0),
            "surge")
        report = detect_activity_changes(baseline, surged,
                                         small_scenario.prefixes)
        assert target in report.flagged_asns()
        change = next(c for c in report.changes if c.asn == target)
        assert change.direction == "surge"
        assert change.ratio > 1.5

    def test_outage_drop_detected(self, small_scenario, baseline,
                                  small_itm):
        target = small_itm.users.top_ases(1)[0][0]
        dropped = run_campaign(
            small_scenario, surged_oracle(small_scenario, target, 0.05),
            "drop")
        report = detect_activity_changes(baseline, dropped,
                                         small_scenario.prefixes)
        assert target in report.flagged_asns()
        change = next(c for c in report.changes if c.asn == target)
        assert change.direction == "drop"

    def test_strongest_change_first(self, small_scenario, baseline,
                                    small_itm):
        target = small_itm.users.top_ases(1)[0][0]
        dropped = run_campaign(
            small_scenario, surged_oracle(small_scenario, target, 0.02),
            "drop2")
        report = detect_activity_changes(baseline, dropped,
                                         small_scenario.prefixes)
        zs = [abs(c.z_score) for c in report.changes]
        assert zs == sorted(zs, reverse=True)

    def test_mismatched_campaigns_rejected(self, small_scenario,
                                           baseline):
        other = CacheProbingCampaign(
            oracle=small_scenario.cache_oracle, gdns=small_scenario.gdns,
            services=small_scenario.catalog.top_by_popularity(5),
            prefix_ids=small_scenario.routable_prefix_ids(),
            rounds_per_day=12, streams=ShardStreams(71, ("change", "odd"))).run()
        with pytest.raises(ValidationError):
            detect_activity_changes(baseline, other,
                                    small_scenario.prefixes)
