"""Regression lock: the columnar MapStore answers bit-identically to
the dict-based reference queries in :mod:`repro.core.usecases`.

Three layers of evidence:

* exhaustive sweeps on the small built map (every route target, every
  mapped service, sampled ASes) against
  ``map_path_length_contrast`` / ``OutageImpactAnalyzer`` /
  ``anycast_site_candidates``;
* a hypothesis round-trip over *synthetic* maps — arbitrary component
  dicts, including empty corners the builder never produces — checking
  ``TrafficMap → MapStore → answers`` equals answering off the dicts;
* a degraded (faulted) build: caveats survive into the store and the
  three §2 queries still match the reference on the degraded map.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import usecases as uc
from repro.core.builder import MapBuilder
from repro.core.mapstore import MapStore
from repro.core.serialize import map_from_json, map_to_json
from repro.core.traffic_map import (ComponentCoverage,
                                    InternetTrafficMap, MappedSite,
                                    RoutesComponent, ServicesComponent,
                                    UsersComponent)
from repro.core.uncertainty import coverage_caveats
from repro.errors import ValidationError
from repro.faults import FaultPlan
from repro.net.geography import City


@pytest.fixture(scope="module")
def store(small_itm, small_scenario):
    return MapStore.from_map(small_itm, graph=small_scenario.graph)


@pytest.fixture(scope="module")
def degraded(small_scenario):
    """A faulted build: lossy probes degrade component coverage."""
    builder = MapBuilder(small_scenario,
                         faults=FaultPlan.parse("probe_loss=0.35",
                                                seed=5))
    itm = builder.build()
    return itm, MapStore.from_map(itm, graph=small_scenario.graph)


def _contrasts_equal(ref, got):
    assert ref.metric_name == got.metric_name
    assert ref.weight_name == got.weight_name
    assert ref.weighted.points() == got.weighted.points()
    assert ref.unweighted.points() == got.unweighted.points()
    assert ref.weighted.median == got.weighted.median
    assert ref.weighted.mean() == got.weighted.mean()
    assert ref.median_shift() == got.median_shift()


class TestBuiltMapIdentity:
    def test_cdf_every_route_target(self, small_itm, store):
        targets = store.route_targets()
        assert targets.size > 0
        for target in targets:
            try:
                ref = uc.map_path_length_contrast(small_itm, int(target))
            except ValidationError:
                with pytest.raises(ValidationError):
                    store.cdf_contrast(int(target))
                continue
            _contrasts_equal(ref, store.cdf_contrast(int(target)))

    def test_cdf_unknown_as_raises(self, store):
        with pytest.raises(ValidationError):
            store.cdf_contrast(999_999_999)

    def test_outage_sampled_ases(self, small_itm, small_scenario, store):
        analyzer = uc.OutageImpactAnalyzer(small_itm,
                                           small_scenario.prefixes,
                                           small_scenario.graph)
        sample = sorted({int(a) for a in store.act_asns}
                        | {int(a) for a in store.route_targets()})
        assert len(sample) > 10
        for asn in sample:
            assert analyzer.assess_as_outage(asn) == \
                store.outage_report(asn)

    def test_region_outage(self, small_itm, small_scenario, store):
        analyzer = uc.OutageImpactAnalyzer(small_itm,
                                           small_scenario.prefixes,
                                           small_scenario.graph)
        asns = [int(a) for a in store.act_asns[:6]]
        assert analyzer.assess_region_outage(asns) == \
            store.region_outage_report(asns)
        with pytest.raises(ValidationError):
            store.region_outage_report([])

    def test_anycast_every_service(self, small_itm, store):
        checked = 0
        for key in store.service_keys:
            clients, __ = small_itm.services.user_to_host[key]
            for pid in clients[:20].tolist():
                assert uc.anycast_site_candidates(small_itm, key, pid,
                                                  k=4) == \
                    store.anycast_answer(key, pid, k=4)
                checked += 1
        assert checked > 100

    def test_anycast_errors_match_reference(self, small_itm, store):
        with pytest.raises(ValidationError):
            store.anycast_answer("no-such-service", 0)
        key = store.service_keys[0]
        clients, __ = small_itm.services.user_to_host[key]
        unmapped = int(clients.max() + 1)
        with pytest.raises(ValidationError):
            store.anycast_answer(key, unmapped)

    def test_point_lookups(self, small_itm, store):
        users = small_itm.users
        for pid in list(users.activity_by_prefix)[:50]:
            assert store.prefix_weight(pid) == users.prefix_weight(pid)
        assert store.prefix_weight(10**9) == 0.0
        for asn in list(users.activity_by_as):
            assert store.as_weight(asn) == users.as_weight(asn)
        key = store.service_keys[0]
        clients, hosts = small_itm.services.user_to_host[key]
        for pid, host in zip(clients[:50].tolist(), hosts[:50].tolist()):
            assert store.host_for_user(key, pid) == host
        assert store.host_for_user(key, 10**9) is None
        assert store.host_for_user("no-such-service", 0) is None
        for (src, dst), path in list(small_itm.routes.paths.items())[:80]:
            expected = tuple(path) if path is not None else None
            assert store.path_between(src, dst) == expected
        assert store.path_between(1, 2) is None or (1, 2) in \
            small_itm.routes.paths

    def test_hypergiant_asns_are_site_asns(self, small_itm, store):
        for org in store.organizations:
            asns = store.hypergiant_asns(org)
            sites = small_itm.services.sites_by_org[org]
            onnet = {s.asn for s in sites if not s.is_offnet}
            expected = onnet or {s.asn for s in sites}
            assert asns == tuple(sorted(expected))
        with pytest.raises(ValidationError):
            store.hypergiant_asns("no-such-org")

    def test_digest_stable_across_artefact_round_trip(
            self, small_itm, small_scenario, store):
        reloaded = map_from_json(
            map_to_json(small_itm), atlas=small_scenario.atlas,
            prefix_asn=small_scenario.prefixes.asn_array)
        restored = MapStore.from_map(reloaded,
                                     graph=small_scenario.graph)
        assert restored.digest == store.digest
        target = int(store.route_targets()[0])
        _contrasts_equal(store.cdf_contrast(target),
                         restored.cdf_contrast(target))

    def test_counts_describe_components(self, small_itm, store):
        counts = store.counts()
        assert counts["prefixes"] == len(small_itm.users.activity_by_prefix)
        assert counts["ases"] == len(small_itm.users.activity_by_as)
        assert counts["mapped_services"] == \
            len(small_itm.services.user_to_host)
        assert counts["route_pairs"] == len(small_itm.routes.paths)
        assert counts["sites"] == sum(
            len(sites) for sites in
            small_itm.services.sites_by_org.values())


class TestContextValidation:
    def test_pid_out_of_bounds_rejected(self, small_itm):
        clipped = dict(small_itm.metadata)
        clipped["prefix_asn"] = np.asarray(
            small_itm.metadata["prefix_asn"])[:3]
        bad = InternetTrafficMap(users=small_itm.users,
                                 services=small_itm.services,
                                 routes=small_itm.routes,
                                 metadata=clipped,
                                 coverage=small_itm.coverage)
        with pytest.raises(ValidationError, match="prefix"):
            MapStore.from_map(bad)

    def test_no_graph_means_no_outage(self, small_itm, store):
        bare = MapStore.from_map(small_itm)
        with pytest.raises(ValidationError, match="graph"):
            bare.outage_report(int(store.act_asns[0]))
        target = int(store.route_targets()[0])
        _contrasts_equal(store.cdf_contrast(target),
                         bare.cdf_contrast(target))

    def test_no_prefix_asn_means_no_asn_lookup(self, small_itm):
        stripped = InternetTrafficMap(users=small_itm.users,
                                      services=small_itm.services,
                                      routes=small_itm.routes,
                                      metadata={"seed": 1},
                                      coverage=small_itm.coverage)
        bare = MapStore.from_map(stripped)
        with pytest.raises(ValidationError):
            bare.asn_of_prefix(0)


class TestDegradedMap:
    def test_caveats_survive_into_store(self, degraded):
        itm, store = degraded
        assert store.degraded_components() == sorted(
            name for name, rec in itm.coverage.items() if rec.degraded)
        got = coverage_caveats(store)
        ref = coverage_caveats(itm)
        assert [c.detail for c in got] == [c.detail for c in ref]
        assert len(got) > 0, "faulted build should be degraded"

    def test_queries_match_reference_on_degraded_map(
            self, degraded, small_scenario):
        itm, store = degraded
        for target in store.route_targets():
            try:
                ref = uc.map_path_length_contrast(itm, int(target))
            except ValidationError:
                with pytest.raises(ValidationError):
                    store.cdf_contrast(int(target))
                continue
            _contrasts_equal(ref, store.cdf_contrast(int(target)))
        analyzer = uc.OutageImpactAnalyzer(itm, small_scenario.prefixes,
                                           small_scenario.graph)
        for asn in [int(a) for a in store.act_asns[:10]]:
            assert analyzer.assess_as_outage(asn) == \
                store.outage_report(asn)
        for key in store.service_keys[:5]:
            clients, __ = itm.services.user_to_host[key]
            for pid in clients[:10].tolist():
                assert uc.anycast_site_candidates(itm, key, pid) == \
                    store.anycast_answer(key, pid)


# ---------------------------------------------------------------------------
# Hypothesis round-trip on synthetic maps
# ---------------------------------------------------------------------------

_N_PREFIXES = 24
_CITIES = (
    City(name="a", country_code="aa", lat=0.0, lon=0.0, utc_offset=0.0),
    City(name="b", country_code="bb", lat=48.2, lon=16.4, utc_offset=1.0),
    City(name="c", country_code="cc", lat=-33.9, lon=151.2,
         utc_offset=10.0),
)

_pids = st.integers(min_value=0, max_value=_N_PREFIXES - 1)
_asns = st.integers(min_value=1, max_value=40)
_weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                     width=32)


@st.composite
def synthetic_maps(draw):
    """An arbitrary (valid) map plus its prefix_asn context."""
    prefix_asn = np.asarray(
        draw(st.lists(_asns, min_size=_N_PREFIXES,
                      max_size=_N_PREFIXES)), dtype=np.int64)
    activity_by_prefix = draw(st.dictionaries(_pids, _weights,
                                              max_size=12))
    activity_by_as = draw(st.dictionaries(_asns, _weights, max_size=12))
    detected = np.asarray(sorted(activity_by_prefix), dtype=np.int64)
    users = UsersComponent(detected_prefixes=detected,
                           activity_by_prefix=activity_by_prefix,
                           activity_by_as=activity_by_as,
                           techniques=("synthetic",))

    service_names = st.sampled_from(["svc-a", "svc-b", "svc-c"])
    user_to_host = {
        key: (np.asarray(list(pairs), dtype=np.int64),
              np.asarray(list(pairs.values()), dtype=np.int64))
        for key, pairs in draw(st.dictionaries(
            service_names, st.dictionaries(_pids, _pids, max_size=10),
            max_size=3)).items()}
    orgs = st.sampled_from(["OrgX", "OrgY"])
    site_entries = st.tuples(_pids, _asns,
                             st.sampled_from(_CITIES + (None,)),
                             st.booleans())
    sites_by_org = {
        org: [MappedSite(prefix_id=pid, asn=asn, organization=org,
                         estimated_city=city, is_offnet=offnet)
              for pid, asn, city, offnet in entries]
        for org, entries in draw(st.dictionaries(
            orgs, st.lists(site_entries, max_size=6),
            max_size=2)).items()}
    services = ServicesComponent(sites_by_org=sites_by_org,
                                 serving_asns_by_domain={},
                                 user_to_host=user_to_host,
                                 unmapped_services=())

    path_values = st.one_of(
        st.none(),
        st.lists(_asns, min_size=1, max_size=5).map(tuple))
    paths = draw(st.dictionaries(st.tuples(_asns, _asns), path_values,
                                 max_size=16))
    routes = RoutesComponent(paths=paths, predictability=0.5)

    coverage = {}
    if draw(st.booleans()):
        coverage["users"] = ComponentCoverage(
            component="users", coverage=draw(
                st.floats(min_value=0.1, max_value=0.9)),
            techniques_intended=("synthetic", "lost"),
            techniques_delivered=("synthetic",))
    return InternetTrafficMap(
        users=users, services=services, routes=routes,
        metadata={"seed": 0, "prefix_asn": prefix_asn},
        coverage=coverage)


class TestHypothesisRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(itm=synthetic_maps())
    def test_answers_bit_identical(self, itm):
        store = MapStore.from_map(itm)

        for target in {dst for __, dst in itm.routes.paths}:
            try:
                ref = uc.map_path_length_contrast(itm, target)
            except ValidationError:
                with pytest.raises(ValidationError):
                    store.cdf_contrast(target)
                continue
            _contrasts_equal(ref, store.cdf_contrast(target))

        for key, (clients, __) in itm.services.user_to_host.items():
            for pid in clients.tolist():
                assert uc.anycast_site_candidates(itm, key, pid, k=3) \
                    == store.anycast_answer(key, pid, k=3)

        for pid in range(_N_PREFIXES):
            assert store.prefix_weight(pid) == \
                itm.users.prefix_weight(pid)
        for asn in itm.users.activity_by_as:
            assert store.as_weight(asn) == itm.users.as_weight(asn)
        for (src, dst), path in itm.routes.paths.items():
            expected = tuple(path) if path is not None else None
            assert store.path_between(src, dst) == expected

        assert [c.detail for c in coverage_caveats(store)] == \
            [c.detail for c in coverage_caveats(itm)]

    @settings(max_examples=15, deadline=None)
    @given(itm=synthetic_maps())
    def test_digest_is_content_addressed(self, itm):
        again = MapStore.from_map(itm)
        assert MapStore.from_map(itm).digest == again.digest
        assert len(again.digest) == 64
