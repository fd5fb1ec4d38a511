"""Tests for ECS-based user-to-host mapping discovery (§3.2)."""

import numpy as np
import pytest

from repro.measure.ecs_mapping import EcsMapper
from repro.services.hypergiants import RedirectionScheme


@pytest.fixture(scope="module")
def mapper(small_scenario):
    return EcsMapper(small_scenario.authoritative, small_scenario.catalog,
                     small_scenario.prefixes)


@pytest.fixture(scope="module")
def result(small_scenario, mapper):
    return mapper.run(small_scenario.routable_prefix_ids())


class TestEcsMapping:
    def test_only_ecs_dns_services_covered(self, small_scenario, result):
        catalog = small_scenario.catalog
        for key in result.per_service:
            service = catalog.get(key)
            assert service.ecs_supported
            assert service.redirection is RedirectionScheme.DNS
        for key in result.uncovered_services:
            service = catalog.get(key)
            assert (not service.ecs_supported
                    or service.redirection is not RedirectionScheme.DNS)

    def test_coverage_fraction(self, result):
        assert 0.3 < result.coverage_by_service_count() < 0.95

    def test_answers_match_ground_truth(self, small_scenario, result):
        """ECS answers are the ground-truth assignment's addresses."""
        catalog = small_scenario.catalog
        mapping = small_scenario.mapping
        key = "googol-video"
        service_result = result.per_service[key]
        service = catalog.get(key)
        assignment = mapping.assignment_for_service(service)
        sites = mapping.sites_of(service.host_key)
        for client, answer in list(zip(service_result.client_pids,
                                       service_result.answer_pids))[:200]:
            site_idx = int(assignment.site_index[client])
            assert answer == sites[site_idx].prefix_ids[0]

    def test_answer_asns_resolved_publicly(self, small_scenario, result):
        service_result = result.per_service["googol-video"]
        asns = service_result.answer_asns(small_scenario.prefixes)
        mapped = service_result.answer_pids >= 0
        expected = small_scenario.prefixes.asn_array[
            service_result.answer_pids[mapped]]
        assert (asns[mapped] == expected).all()

    def test_clients_of_answer_prefix(self, result):
        service_result = result.per_service["googol-video"]
        answers = service_result.answer_pids
        target = int(answers[answers >= 0][0])
        clients = service_result.clients_of_answer_prefix(target)
        assert len(clients) >= 1
        assert (service_result.answer_pids[
            np.searchsorted(service_result.client_pids, clients)]
            == target).all()

    def test_anycast_service_uncovered(self, small_scenario, mapper):
        service = small_scenario.catalog.anycast_services()[0]
        only = mapper.run(small_scenario.routable_prefix_ids(), [service])
        assert only.per_service == {}
        assert only.uncovered_services == [service.key]

    def test_mapped_fraction_high_for_ecs_service(self, result):
        assert result.per_service["googol-video"].mapped_fraction() > 0.95
