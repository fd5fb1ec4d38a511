"""The flow fold against the per-pair loop it replaced.

``repro.traffic.flows`` splits the fold into a routing-side incidence
(:func:`build_flow_incidence`) and an activity-side weight fold
(:func:`assign_flows`). :func:`reference_flows` below is the original
single-pass loop, kept as the oracle: every output must equal it
exactly (``==`` on floats, not approx), on a clean world and after
every mutation kind. The lifecycle tests pin when
:func:`repro.scenario.derive_surfaces` rebuilds the incidence.

Scenarios are mutated in place here, so every test builds its own world.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np
import pytest

from repro import ScenarioConfig, build_scenario
from repro.delta import (ActivitySwing, LinkChurn, MutationPlan,
                         SiteTurnover, apply_mutation_plan)
from repro.errors import ConfigError, ValidationError
from repro.scenario import derive_surfaces
from repro.traffic.flows import (FlowAssignment, assign_flows,
                                 build_flow_incidence)
from repro.traffic.matrix import TrafficMatrix

SEED = 20211110
OUTPUTS = ("volume_by_as", "volume_by_link", "volume_by_pair",
           "intra_as_volume", "unroutable_volume")


def small_world():
    return build_scenario(ScenarioConfig.small(seed=SEED))


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> Dict[int, float]:
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    return {int(k): float(v) for k, v in zip(unique, sums)}


def reference_flows(matrix, mapping, deployment, bgp) -> FlowAssignment:
    """The single-pass fold: per-service dict sums, then path by path."""
    prefix_table = matrix.prefix_table
    asns = prefix_table.asn_array
    result = FlowAssignment()
    pair_volume: Dict[Tuple[int, int], float] = {}
    for service in matrix.catalog:
        demand = matrix.bytes_for_service(service)
        if float(demand.sum()) <= 0:
            continue
        if service.host_key is None:
            host_pid = deployment.stub_hosting.get(service.key)
            if host_pid is None:
                raise ConfigError(
                    f"stub-hosted service {service.key!r} has no prefix")
            host_of_prefix = np.full(len(prefix_table),
                                     prefix_table.asn_of(host_pid),
                                     dtype=np.int64)
        else:
            assignment = mapping.assignment_for_service(service)
            sites = deployment.sites(service.host_key)
            site_hosts = np.array([s.host_asn for s in sites],
                                  dtype=np.int64)
            idx = assignment.site_index
            host_of_prefix = np.where(idx >= 0, site_hosts[
                np.clip(idx, 0, len(sites) - 1)], -1)
        active = np.flatnonzero(demand > 0)
        if not len(active):
            continue
        client = asns[active]
        host = host_of_prefix[active]
        volume = demand[active]
        unmapped = host < 0
        result.unroutable_volume += float(volume[unmapped].sum())
        intra = (~unmapped) & (host == client)
        if intra.any():
            for asn, vol in _sum_by_key(client[intra], volume[intra]).items():
                result.intra_as_volume[asn] = (
                    result.intra_as_volume.get(asn, 0.0) + vol)
                result.volume_by_as[asn] = (
                    result.volume_by_as.get(asn, 0.0) + vol)
        inter = (~unmapped) & (host != client)
        if inter.any():
            combined = (client[inter].astype(np.int64) << 32) | host[inter]
            for key, vol in _sum_by_key(combined, volume[inter]).items():
                pair = (int(key >> 32), int(key & 0xFFFFFFFF))
                pair_volume[pair] = pair_volume.get(pair, 0.0) + vol

    by_host: Dict[int, Dict[int, float]] = {}
    for (client_asn, host_asn), volume in pair_volume.items():
        by_host.setdefault(host_asn, {})[client_asn] = volume
    for host_asn in sorted(by_host):
        clients = sorted(by_host[host_asn])
        paths = bgp.routes_to([host_asn]).paths_for(clients)
        for client_asn in clients:
            volume = by_host[host_asn][client_asn]
            path = paths[client_asn]
            if path is None:
                result.unroutable_volume += volume
                continue
            result.volume_by_pair[(client_asn, host_asn)] = volume
            for asn in path:
                result.volume_by_as[asn] = (
                    result.volume_by_as.get(asn, 0.0) + volume)
            for a, b in zip(path, path[1:]):
                link = (min(a, b), max(a, b))
                result.volume_by_link[link] = (
                    result.volume_by_link.get(link, 0.0) + volume)
    return result


def assert_matches_reference(scenario) -> None:
    expected = reference_flows(scenario.traffic, scenario.mapping,
                               scenario.deployment, scenario.bgp)
    for name in OUTPUTS:
        assert getattr(scenario.flows, name) == getattr(expected, name), name


def removable_edge(scenario):
    a, b, rel = sorted(scenario.graph.edges())[0]
    return LinkChurn(op="remove", a=a, b=b, relationship=rel.value)


def retirable_site(scenario):
    hg = next(k for k, sites in
              sorted(scenario.deployment.sites_by_hypergiant.items())
              if len(sites) >= 2)
    return SiteTurnover(hypergiant_key=hg, site_id=0, op="retire")


def swing(scenario):
    users = scenario.population.prefixes_with_users()
    return ActivitySwing(prefix_ids=tuple(int(p) for p in users[:16]),
                         factor=4.0)


class TestFoldMatchesReference:
    def test_clean_world(self):
        scenario = small_world()
        assert scenario.flows.volume_by_pair
        assert scenario.flows.intra_as_volume
        assert_matches_reference(scenario)

    @pytest.mark.parametrize("mutation", [swing, removable_edge,
                                          retirable_site],
                             ids=["activity-swing", "link-churn",
                                  "site-turnover"])
    def test_after_one_mutation(self, mutation):
        scenario = small_world()
        apply_mutation_plan(scenario, MutationPlan(
            mutations=(mutation(scenario),)))
        assert_matches_reference(scenario)

    def test_unrouted_pairs_count_as_unroutable(self):
        # Cutting a single-homed stub host off the graph leaves every
        # pair towards it without a route.
        scenario = small_world()
        graph = scenario.graph
        host = next(asn for asn in sorted(
            {scenario.prefixes.asn_of(pid)
             for pid in scenario.deployment.stub_hosting.values()})
            if graph.degree(asn) == 1)
        a, b, rel = next(edge for edge in sorted(graph.edges())
                         if host in edge[:2])
        apply_mutation_plan(scenario, MutationPlan(mutations=(
            LinkChurn(op="remove", a=a, b=b, relationship=rel.value),)))
        assert len(scenario.flow_incidence.unrouted)
        assert scenario.flows.unroutable_volume > 0
        assert_matches_reference(scenario)

    def test_zero_demand_service_has_no_row(self):
        scenario = small_world()
        service = scenario.catalog.services[-1]
        traffic = scenario.traffic
        bytes_per_day = traffic.bytes_per_day.copy()
        bytes_per_day[service.sid] = 0.0
        quiet = TrafficMatrix(catalog=traffic.catalog,
                              prefix_table=traffic.prefix_table,
                              bytes_per_day=bytes_per_day,
                              queries_per_day=traffic.queries_per_day)
        incidence = build_flow_incidence(quiet, scenario.mapping,
                                         scenario.deployment, scenario.bgp)
        assert incidence.row_of_service[service.sid] == -1
        expected = reference_flows(quiet, scenario.mapping,
                                   scenario.deployment, scenario.bgp)
        folded = assign_flows(incidence, quiet)
        for name in OUTPUTS:
            assert getattr(folded, name) == getattr(expected, name), name

    def test_hypothesis_power_of_two_swings(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        scenario = small_world()
        incidence = scenario.flow_incidence
        n_prefixes = len(scenario.prefixes)

        @st.composite
        def plans(draw):
            steps = []
            for __ in range(draw(st.integers(1, 3))):
                ids = draw(st.lists(st.integers(0, n_prefixes - 1),
                                    min_size=1, max_size=64, unique=True))
                factor = 2.0 ** draw(st.integers(-8, 8).filter(bool))
                steps.append(ActivitySwing(prefix_ids=tuple(ids),
                                           factor=factor))
            return MutationPlan(mutations=tuple(steps))

        @given(plan=plans())
        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def folds_match(plan):
            apply_mutation_plan(scenario, plan)
            try:
                assert scenario.flow_incidence is incidence
                assert_matches_reference(scenario)
            finally:
                apply_mutation_plan(scenario, plan.inverse())

        folds_match()


class TestIncidenceLifecycle:
    def test_activity_only_plan_keeps_the_incidence(self):
        scenario = small_world()
        incidence = scenario.flow_incidence
        flows = scenario.flows
        apply_mutation_plan(scenario, MutationPlan(
            mutations=(swing(scenario),)))
        assert scenario.flow_incidence is incidence
        assert scenario.flows is not flows

    @pytest.mark.parametrize("mutation", [removable_edge, retirable_site],
                             ids=["link-churn", "site-turnover"])
    def test_routing_side_plan_replaces_it(self, mutation):
        scenario = small_world()
        incidence = scenario.flow_incidence
        apply_mutation_plan(scenario, MutationPlan(
            mutations=(mutation(scenario),)))
        assert scenario.flow_incidence is not incidence

    def test_no_aspect_keeps_it(self):
        scenario = small_world()
        incidence = scenario.flow_incidence
        flows = scenario.flows
        derive_surfaces(scenario, ())
        assert scenario.flow_incidence is incidence
        assert scenario.flows is flows

    def test_fold_refuses_demand_without_a_row(self):
        scenario = small_world()
        service = scenario.catalog.services[0]
        assert scenario.traffic.bytes_for_service(service).sum() > 0
        rows = scenario.flow_incidence.row_of_service.copy()
        rows[service.sid] = -1
        incidence = dataclasses.replace(scenario.flow_incidence,
                                        row_of_service=rows)
        with pytest.raises(ValidationError, match=service.key):
            assign_flows(incidence, scenario.traffic)
