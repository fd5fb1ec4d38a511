"""Tests for the ITM data model and its cross-component queries."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.core.traffic_map import InternetTrafficMap, UsersComponent


class TestUsersComponent:
    def test_weights_accessible(self, small_itm):
        users = small_itm.users
        top = users.top_ases(5)
        assert len(top) == 5
        assert top[0][1] >= top[-1][1]
        asn, weight = top[0]
        assert users.as_weight(asn) == weight

    def test_unknown_as_weight_zero(self, small_itm):
        assert small_itm.users.as_weight(999_999) == 0.0

    def test_detected_as_set(self, small_itm):
        assert small_itm.users.detected_as_set() == \
            set(small_itm.users.activity_by_as)


class TestServicesComponent:
    def test_sites_listed_per_org(self, small_itm):
        services = small_itm.services
        assert services.sites_by_org
        for org, sites in services.sites_by_org.items():
            for site in sites:
                assert site.organization == org

    def test_offnet_asns(self, small_itm, small_scenario):
        spec = small_scenario.catalog.hypergiants["metabook"]
        offnets = small_itm.services.offnet_asns(spec.cert_org)
        hg_asn = small_scenario.hypergiant_asn("metabook")
        assert hg_asn not in offnets

    def test_host_for_user(self, small_itm):
        services = small_itm.services
        key = services.mapped_services()[0]
        clients, hosts = services.user_to_host[key]
        client = int(clients[0])
        assert services.host_for_user(key, client) == hosts[0]
        assert services.host_for_user("nope", client) is None


class TestRoutesComponent:
    def test_paths_recorded(self, small_itm):
        routes = small_itm.routes
        assert routes.attempted_pairs() > 0
        assert 0.0 <= routes.predictability <= 1.0

    def test_path_between(self, small_itm):
        (src, dst), path = next(iter(small_itm.routes.paths.items()))
        assert small_itm.routes.path_between(src, dst) == path
        assert small_itm.routes.path_between(-1, -2) is None


class TestCrossComponent:
    def test_activity_share_of_ases(self, small_itm):
        users = small_itm.users
        all_share = small_itm.activity_share_of_ases(
            set(users.activity_by_as))
        assert all_share == pytest.approx(1.0)
        assert small_itm.activity_share_of_ases(set()) == 0.0

    def test_weights_for_ases_vector(self, small_itm):
        asns = [asn for asn, __ in small_itm.users.top_ases(3)]
        weights = small_itm.weights_for_ases(asns)
        assert weights.shape == (3,)
        assert (weights > 0).all()

    def test_summary_renders(self, small_itm):
        text = small_itm.summary()
        assert "Internet Traffic Map" in text
        assert "users:" in text and "routes:" in text

    def test_services_serving_as(self, small_itm, small_scenario):
        top_asn = small_itm.users.top_ases(1)[0][0]
        served = small_itm.services_serving_as(top_asn)
        assert served  # a big eyeball is served by ECS-mapped services

    def test_prefix_in_as_requires_metadata(self, small_itm):
        bare = InternetTrafficMap(users=small_itm.users,
                                  services=small_itm.services,
                                  routes=small_itm.routes, metadata={})
        with pytest.raises(ValidationError):
            bare._prefix_in_as(0, 1)
