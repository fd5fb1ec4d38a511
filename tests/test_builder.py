"""Tests for the map builder pipeline."""

import math

import numpy as np
import pytest

from repro.core.builder import (MAX_GEOLOCATED_SITES_PER_ORG,
                                BuilderOptions, MapBuilder)
from repro.errors import ValidationError
from repro.net.geography import haversine_km


class TestBuilderOptions:
    def test_needs_a_users_technique(self):
        with pytest.raises(ValidationError):
            BuilderOptions(use_cache_probing=False,
                           use_root_logs=False).validate()

    def test_default_valid(self):
        BuilderOptions().validate()


class TestFullBuild:
    def test_all_components_present(self, small_itm):
        assert len(small_itm.users.detected_prefixes) > 0
        assert small_itm.services.sites_by_org
        assert small_itm.routes.attempted_pairs() > 0

    def test_artifacts_kept(self, small_builder):
        artifacts = small_builder.artifacts
        assert artifacts.cache_result is not None
        assert artifacts.rootlog_result is not None
        assert artifacts.tls_result is not None
        assert artifacts.ecs_result is not None
        assert artifacts.activity is not None

    def test_metadata_complete(self, small_itm, small_scenario):
        assert small_itm.metadata["seed"] == small_scenario.config.seed
        assert len(small_itm.metadata["prefix_asn"]) == \
            len(small_scenario.prefixes)

    def test_geolocated_sites_exist(self, small_itm):
        located = [site for sites in small_itm.services.sites_by_org.values()
                   for site in sites if site.estimated_city is not None]
        assert located

    def test_site_cities_match_loop_reference(self, small_builder,
                                              small_itm, small_scenario):
        """Site geolocation equals the per-pair loop it replaced: pool
        each answer's clients over services in campaign order, then the
        spherical centroid of the first 500 client cities, snapped to
        the nearest atlas city by (distance, name)."""
        prefixes = small_scenario.prefixes
        clients_of_answer = {}
        for mapping in small_builder.artifacts.ecs_result \
                .per_service.values():
            for client, answer in zip(mapping.client_pids.tolist(),
                                      mapping.answer_pids.tolist()):
                if answer >= 0:
                    clients_of_answer.setdefault(answer, []).append(client)
        tls = small_builder.artifacts.tls_result
        located = 0
        for org in tls.organizations():
            footprint = tls.footprint_of(org)
            pids = footprint.onnet_prefixes + footprint.offnet_prefixes
            sites = small_itm.services.sites_by_org[org]
            assert [site.prefix_id for site in sites] == pids
            geolocated = 0
            for site, pid in zip(sites, pids):
                clients = clients_of_answer.get(pid, [])
                expected = None
                if geolocated < MAX_GEOLOCATED_SITES_PER_ORG \
                        and len(clients) >= 3:
                    cities = [prefixes.city_of(c) for c in clients[:500]]
                    lats = np.radians([c.lat for c in cities])
                    lons = np.radians([c.lon for c in cities])
                    x = float((np.cos(lats) * np.cos(lons)).sum())
                    y = float((np.cos(lats) * np.sin(lons)).sum())
                    z = float(np.sin(lats).sum())
                    lat = math.degrees(math.asin(
                        z / math.sqrt(x * x + y * y + z * z)))
                    lon = math.degrees(math.atan2(y, x))
                    expected = min(small_scenario.atlas.cities,
                                   key=lambda c: (haversine_km(
                                       lat, lon, c.lat, c.lon), c.name))
                    geolocated += 1
                assert site.estimated_city == expected, (org, pid)
                located += expected is not None
        assert located

    def test_anycast_mapped_via_catchment_probing(self, small_itm,
                                                  small_scenario):
        """With operator cooperation (Verfploeter) the anycast services
        get a user->host mapping too; custom-URL services stay
        unmapped (§3.2.3's hardest case)."""
        mapped = set(small_itm.services.user_to_host)
        unmapped = set(small_itm.services.unmapped_services)
        for service in small_scenario.catalog.anycast_services():
            assert service.key in mapped
        for service in small_scenario.catalog.custom_url_services():
            assert service.key in unmapped

    def test_anycast_unmapped_without_catchment_probing(
            self, small_scenario):
        builder = MapBuilder(small_scenario, BuilderOptions(
            use_catchment_probing=False, use_sni_scan=False,
            geolocate_sites=False))
        itm = builder.build()
        unmapped = set(itm.services.unmapped_services)
        for service in small_scenario.catalog.anycast_services():
            assert service.key in unmapped

    def test_catchment_artifacts_recorded(self, small_builder,
                                          small_scenario):
        assert set(small_builder.artifacts.catchments) == \
            set(small_scenario.anycast_models)


class TestAblationVariants:
    def test_probing_only(self, small_scenario):
        builder = MapBuilder(small_scenario, BuilderOptions(
            use_root_logs=False, use_sni_scan=False,
            geolocate_sites=False))
        itm = builder.build()
        assert itm.users.techniques == ("cache-probing",)

    def test_rootlogs_only(self, small_scenario):
        builder = MapBuilder(small_scenario, BuilderOptions(
            use_cache_probing=False, use_tls_scan=False,
            use_sni_scan=False, use_ecs_mapping=False,
            geolocate_sites=False))
        itm = builder.build()
        assert itm.users.techniques == ("root-logs",)
        # Without TLS scanning there is no services footprint.
        assert itm.services.sites_by_org == {}

    def test_fused_covers_more_than_each(self, small_scenario,
                                         small_itm):
        probing_only = MapBuilder(small_scenario, BuilderOptions(
            use_root_logs=False, use_sni_scan=False,
            geolocate_sites=False)).build()
        logs_only = MapBuilder(small_scenario, BuilderOptions(
            use_cache_probing=False, use_tls_scan=False,
            use_sni_scan=False, use_ecs_mapping=False,
            geolocate_sites=False)).build()
        fused_ases = small_itm.users.detected_as_set()
        assert probing_only.users.detected_as_set() <= fused_ases
        assert logs_only.users.detected_as_set() <= fused_ases

    def test_without_ecs_mapping_routes_still_built(self, small_scenario):
        builder = MapBuilder(small_scenario, BuilderOptions(
            use_ecs_mapping=False, use_catchment_probing=False,
            geolocate_sites=False))
        itm = builder.build()
        assert itm.routes.attempted_pairs() > 0
        assert itm.services.user_to_host == {}

    def test_deterministic_rebuild(self, small_scenario, small_itm):
        again = MapBuilder(small_scenario).build()
        assert set(again.users.activity_by_as) == \
            set(small_itm.users.activity_by_as)
        for asn, weight in again.users.activity_by_as.items():
            assert weight == pytest.approx(
                small_itm.users.activity_by_as[asn])
