"""Tests for the ground-truth traffic matrix and flow assignment."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.net.prefixes import PrefixKind
from repro.services.hypergiants import GROUND_TRUTH_CDN_KEY


class TestTrafficMatrix:
    def test_bytes_sum_to_one(self, small_scenario):
        total = small_scenario.traffic.bytes_per_day.sum()
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_per_service_share_respected(self, small_scenario):
        matrix = small_scenario.traffic
        for service in small_scenario.catalog:
            got = matrix.bytes_for_service(service).sum()
            assert got == pytest.approx(service.bytes_share, rel=1e-6)

    def test_bytes_only_on_user_prefixes(self, small_scenario):
        matrix = small_scenario.traffic
        users = small_scenario.population.users_per_prefix
        per_prefix = matrix.bytes_per_prefix()
        assert (per_prefix[users == 0] == 0).all()

    def test_queries_track_popularity_not_bytes(self, small_scenario):
        matrix = small_scenario.traffic
        catalog = small_scenario.catalog
        search = catalog.get("googol-search")
        vod = catalog.get("streamflix-vod")
        # Search has more queries; VOD more bytes.
        assert matrix.queries_for_service(search).sum() > \
            matrix.queries_for_service(vod).sum()
        assert matrix.bytes_for_service(vod).sum() > \
            matrix.bytes_for_service(search).sum()

    def test_scanner_prefixes_query_but_no_bytes(self, small_scenario):
        matrix = small_scenario.traffic
        scanners = small_scenario.prefixes.of_kind(PrefixKind.SCANNER)
        queries = matrix.queries_per_prefix()
        per_prefix = matrix.bytes_per_prefix()
        assert (queries[scanners] > 0).all()
        assert (per_prefix[scanners] == 0).all()

    def test_hypergiant_rollup(self, small_scenario):
        matrix = small_scenario.traffic
        catalog = small_scenario.catalog
        vector = matrix.bytes_for_hypergiant(GROUND_TRUTH_CDN_KEY)
        assert vector.sum() == pytest.approx(
            catalog.hypergiant_bytes_share(GROUND_TRUTH_CDN_KEY), rel=1e-6)

    def test_coverage_of_full_set_is_one(self, small_scenario):
        matrix = small_scenario.traffic
        all_pids = np.arange(len(small_scenario.prefixes))
        assert matrix.coverage_of_prefix_set(
            all_pids, GROUND_TRUTH_CDN_KEY) == pytest.approx(1.0)

    def test_coverage_of_empty_set_is_zero(self, small_scenario):
        matrix = small_scenario.traffic
        cov = matrix.coverage_of_prefix_set(np.array([], dtype=int),
                                            GROUND_TRUTH_CDN_KEY)
        assert cov == 0.0

    def test_coverage_monotone(self, small_scenario):
        matrix = small_scenario.traffic
        users = small_scenario.population.prefixes_with_users()
        half = matrix.coverage_of_prefix_set(users[:len(users) // 2],
                                             GROUND_TRUTH_CDN_KEY)
        full = matrix.coverage_of_prefix_set(users, GROUND_TRUTH_CDN_KEY)
        assert 0 <= half <= full <= 1.0 + 1e-9

    def test_bytes_by_as_totals(self, small_scenario):
        matrix = small_scenario.traffic
        by_as = matrix.bytes_by_as()
        assert sum(by_as.values()) == pytest.approx(1.0, rel=1e-6)


class TestFlows:
    def test_pair_volume_conservation(self, small_scenario):
        """Inter-AS + intra-AS + unroutable == total demand."""
        flows = small_scenario.flows
        total_demand = small_scenario.traffic.bytes_per_day.sum()
        assigned = (sum(flows.volume_by_pair.values())
                    + sum(flows.intra_as_volume.values())
                    + flows.unroutable_volume)
        assert assigned == pytest.approx(total_demand, rel=1e-6)

    def test_link_volume_consistent_with_pairs(self, small_scenario):
        flows = small_scenario.flows
        # Each pair contributes its volume to path-length many links;
        # total link volume >= total inter-AS pair volume (paths >= 1 hop).
        assert sum(flows.volume_by_link.values()) >= \
            sum(flows.volume_by_pair.values()) - 1e-9

    def test_as_volume_covers_endpoints(self, small_scenario):
        flows = small_scenario.flows
        for (client, host), volume in list(
                flows.volume_by_pair.items())[:50]:
            assert flows.as_volume(client) >= volume - 1e-12
            assert flows.as_volume(host) >= volume - 1e-12

    def test_link_volume_symmetric_key(self, small_scenario):
        flows = small_scenario.flows
        for (a, b) in flows.volume_by_link:
            assert a < b

    def test_offnet_traffic_stays_local(self, small_scenario):
        """ASes hosting off-nets have intra-AS volume."""
        deployment = small_scenario.deployment
        flows = small_scenario.flows
        hosts = [asn for asn, by_hg in deployment.offnet_index.items()
                 if by_hg]
        local = [asn for asn in hosts
                 if flows.intra_as_volume.get(asn, 0) > 0]
        assert len(local) > len(hosts) * 0.5

    def test_hypergiant_infra_sources_most_traffic(self, small_scenario):
        """Consolidation: demand served from hypergiant ASes (inter-AS)
        plus off-net caches (intra-AS) dominates total demand."""
        flows = small_scenario.flows
        hg = set(small_scenario.topology.hypergiant_asns.values())
        from_hg = sum(v for (client, host), v in
                      flows.volume_by_pair.items() if host in hg)
        offnet_local = sum(flows.intra_as_volume.values())
        total = small_scenario.traffic.bytes_per_day.sum()
        assert (from_hg + offnet_local) / total > 0.6

    def test_unroutable_negligible(self, small_scenario):
        assert small_scenario.flows.unroutable_volume < 0.01
