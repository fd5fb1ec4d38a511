"""Tests for the cache-probing campaign (§3.1.2 Approach 1)."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measure.cache_probing import CacheProbingCampaign
from repro.net.prefixes import PrefixKind
from repro.par import ShardStreams
from repro.services.hypergiants import GROUND_TRUTH_CDN_KEY


@pytest.fixture(scope="module")
def result(small_builder):
    return small_builder.artifacts.cache_result


class TestCampaign:
    def test_shapes(self, small_scenario, result):
        n_domains = len(result.service_sids)
        assert result.hits.shape == (n_domains, len(result.prefix_ids))
        assert result.probes_per_prefix == result.rounds * n_domains

    def test_hits_bounded_by_rounds(self, result):
        assert (result.hits >= 0).all()
        assert (result.hits <= result.rounds).all()

    def test_detection_covers_most_cdn_traffic(self, small_scenario,
                                               result):
        coverage = small_scenario.traffic.coverage_of_prefix_set(
            result.detected_prefixes(), GROUND_TRUTH_CDN_KEY)
        assert coverage > 0.85

    def test_userless_infra_rarely_detected(self, small_scenario, result):
        detected = set(result.detected_prefixes().tolist())
        infra = small_scenario.prefixes.of_kind(PrefixKind.INFRA)
        hits = sum(1 for pid in infra if int(pid) in detected)
        assert hits == 0

    def test_active_prefixes_hit_more(self, small_scenario, result):
        users = small_scenario.population.users_per_prefix
        hits = result.hits_per_prefix()
        busiest = np.argsort(-users)[:50]
        quietest = np.flatnonzero((users > 0) & (users < np.median(
            users[users > 0])))[:50]
        assert hits[busiest].mean() > hits[quietest].mean()

    def test_detected_per_pop_sums(self, result):
        total = sum(result.detected_per_pop().values())
        assert total == len(result.detected_prefixes())

    def test_hit_rate_by_as_bounded(self, small_scenario, result):
        rates = result.hit_rate_by_as(small_scenario.prefixes)
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_per_service_detected_subset(self, result):
        sid = result.service_sids[0]
        per_service = set(result.per_service_detected(sid).tolist())
        overall = set(result.detected_prefixes().tolist())
        assert per_service <= overall

    def test_per_service_unknown_sid_raises(self, result):
        with pytest.raises(MeasurementError):
            result.per_service_detected(10_000)

    def test_determinism(self, small_scenario):
        def run():
            services = small_scenario.catalog.top_by_popularity(10)
            campaign = CacheProbingCampaign(
                oracle=small_scenario.cache_oracle,
                gdns=small_scenario.gdns,
                services=services,
                prefix_ids=small_scenario.routable_prefix_ids(),
                rounds_per_day=4,
                streams=ShardStreams(77, ("probe",)))
            return campaign.run()
        a, b = run(), run()
        assert (a.hits == b.hits).all()

    def test_more_rounds_more_hits(self, small_scenario):
        def run(rounds):
            campaign = CacheProbingCampaign(
                oracle=small_scenario.cache_oracle,
                gdns=small_scenario.gdns,
                services=small_scenario.catalog.top_by_popularity(10),
                prefix_ids=small_scenario.routable_prefix_ids(),
                rounds_per_day=rounds,
                streams=ShardStreams(77, ("probe",)))
            return campaign.run().hits_per_prefix().sum()
        assert run(8) > run(2)

    def test_rejects_bad_inputs(self, small_scenario):
        services = small_scenario.catalog.top_by_popularity(5)
        with pytest.raises(MeasurementError):
            CacheProbingCampaign(small_scenario.cache_oracle,
                                 small_scenario.gdns, services,
                                 np.array([], dtype=int), 4,
                                 ShardStreams(1, ("x",)))
        with pytest.raises(MeasurementError):
            CacheProbingCampaign(small_scenario.cache_oracle,
                                 small_scenario.gdns, [],
                                 np.arange(5), 4, ShardStreams(1, ("x",)))
        with pytest.raises(MeasurementError):
            CacheProbingCampaign(small_scenario.cache_oracle,
                                 small_scenario.gdns, services,
                                 np.arange(5), 0, ShardStreams(1, ("x",)))
