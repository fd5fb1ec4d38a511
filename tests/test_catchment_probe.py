"""Tests for Verfploeter-style anycast catchment measurement (§3.2.3)."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measure.catchment_probe import VerfploeterCampaign
from repro.par import ShardStreams


@pytest.fixture(scope="module")
def model(small_scenario):
    key = next(iter(small_scenario.anycast_models))
    return small_scenario.anycast_models[key]


@pytest.fixture(scope="module")
def measurement(small_scenario, model):
    campaign = VerfploeterCampaign(model, small_scenario.prefixes,
                                   ShardStreams(41, ("verf",)))
    return campaign.run(small_scenario.user_prefix_ids())


class TestVerfploeter:
    def test_responsiveness_near_configured_rate(self, measurement):
        assert 0.5 < measurement.responsive_fraction() < 0.75

    def test_measured_sites_match_ground_truth(self, small_scenario,
                                               model, measurement):
        """Responsive targets report their true catchment site."""
        asns = small_scenario.prefixes.asn_array
        checked = 0
        for pid, site in zip(measurement.prefix_ids,
                             measurement.site_of_prefix):
            if site < 0:
                continue
            truth = model.catchment(int(asns[pid]))
            assert truth is not None
            assert truth.site.site_id == site
            checked += 1
            if checked >= 300:
                break
        assert checked > 0

    def test_catchment_sizes_cover_multiple_sites(self, measurement):
        sizes = measurement.catchment_sizes()
        assert len(sizes) >= 3
        assert sum(sizes.values()) == int(
            (measurement.site_of_prefix >= 0).sum())

    def test_measured_site_lookup(self, measurement):
        responsive = measurement.prefix_ids[
            measurement.site_of_prefix >= 0]
        pid = int(responsive[0])
        assert measurement.measured_site(pid) is not None
        with pytest.raises(MeasurementError):
            measurement.measured_site(10 ** 8)

    def test_full_response_rate_covers_everything(self, small_scenario,
                                                  model):
        campaign = VerfploeterCampaign(model, small_scenario.prefixes,
                                       ShardStreams(42, ("verf2",)),
                                       response_rate=1.0)
        result = campaign.run(small_scenario.user_prefix_ids()[:500])
        assert result.responsive_fraction() > 0.95

    def test_rejects_bad_inputs(self, small_scenario, model):
        with pytest.raises(MeasurementError):
            VerfploeterCampaign(model, small_scenario.prefixes,
                                ShardStreams(1, ("x",)), response_rate=0.0)
        campaign = VerfploeterCampaign(model, small_scenario.prefixes,
                                       ShardStreams(1, ("x",)))
        with pytest.raises(MeasurementError):
            campaign.run(np.array([], dtype=int))
