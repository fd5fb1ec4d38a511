"""Scenario assembly: build the whole simulated Internet from one config.

:func:`build_scenario` deterministically generates the *raw substrate*
in dependency order (geography, catalog, topology, prefixes, population,
the as-generated CDN deployment, traffic, GDNS, root servers), then
:func:`derive_surfaces` builds every *derived surface* from it. The
returned :class:`Scenario` holds both the *privileged* ground truth
(traffic matrix, actual topology, populations) and the *public* surfaces
measurement code is allowed to touch (GDNS probe oracle, root-log
archive, TLS store, collector view, PeeringDB registry).

Measurement modules must only consume the public surfaces; validation code
(and only validation code) compares their output against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError
from .net.ases import ASRegistry
from .net.collectors import PublicTopologyView, build_public_view
from .net.geography import WorldAtlas
from .net.prefixes import PrefixTable
from .net.relationships import ASGraph
from .net.routers import RouterPopulation, build_routers
from .net.routing import BgpSimulator
from .net.topology import TopologyBuild, build_topology
from .population.activity import DiurnalCurve
from .population.apnic import ApnicDataset, simulate_apnic
from .population.users import PopulationModel, build_population
from .rand import substream
from .services.anycast import AnycastModel
from .services.catalog import ServiceCatalog
from .services.cdn import CdnDeployment, deploy_cdns, filtered_deployment
from .services.dnsinfra import (AuthoritativeDns, CacheOracle,
                                GoogleDnsModel, RootLogArchive, RootSystem,
                                TemporalCacheOracle)
from .services.hypergiants import PUBLIC_DNS_OPERATOR_KEY, hypergiant_names
from .services.mapping import GroundTruthMapping
from .services.tls import CertificateStore, issue_certificates
from .traffic.flows import (FlowAssignment, FlowIncidence, assign_flows,
                            build_flow_incidence)
from .traffic.matrix import TrafficMatrix, build_traffic_matrix

#: The raw-substrate aspects a change can dirty, in canonical order
#: (see :func:`derive_surfaces` and :mod:`repro.delta.digests`).
ASPECTS = ("routing", "activity", "population", "serving")


@dataclass
class Scenario:
    """A fully-built simulated Internet (ground truth + public surfaces).

    Init fields are the raw substrate: generated once by
    :func:`build_scenario` and edited afterwards only by
    :mod:`repro.delta` mutations. ``init=False`` fields are the derived
    surfaces, set only by :func:`derive_surfaces`.
    """

    config: ScenarioConfig
    atlas: WorldAtlas
    topology: TopologyBuild
    bgp: BgpSimulator
    prefixes: PrefixTable
    population: PopulationModel
    apnic: ApnicDataset
    catalog: ServiceCatalog
    # The as-generated deployment; ``deployment`` below is the active
    # one, filtered from it by the ``retired_sites`` handles.
    pristine_deployment: CdnDeployment
    traffic: TrafficMatrix
    gdns: GoogleDnsModel
    roots: RootSystem
    root_archive: RootLogArchive
    diurnal: DiurnalCurve
    # (hypergiant_key, pristine_site_id) pairs currently retired.
    retired_sites: Set[Tuple[str, int]] = field(default_factory=set)

    deployment: CdnDeployment = field(init=False)
    certstore: CertificateStore = field(init=False)
    anycast_models: Dict[str, AnycastModel] = field(init=False)
    mapping: GroundTruthMapping = field(init=False)
    authoritative: AuthoritativeDns = field(init=False)
    flow_incidence: FlowIncidence = field(init=False)
    flows: FlowAssignment = field(init=False)
    routers: RouterPopulation = field(init=False)
    cache_oracle: CacheOracle = field(init=False)
    temporal_oracle: TemporalCacheOracle = field(init=False)
    public_view: PublicTopologyView = field(init=False)

    # -- convenience accessors ------------------------------------------------

    @property
    def registry(self) -> ASRegistry:
        return self.topology.registry

    @property
    def graph(self) -> ASGraph:
        return self.topology.graph

    def hypergiant_asn(self, key: str) -> int:
        spec = self.catalog.hypergiants.get(key)
        if spec is None:
            raise ConfigError(f"unknown hypergiant {key!r}")
        return self.topology.hypergiant_asns[spec.display_name]

    @property
    def gdns_operator_asn(self) -> int:
        return self.hypergiant_asn(PUBLIC_DNS_OPERATOR_KEY)

    def user_prefix_ids(self) -> np.ndarray:
        return self.population.prefixes_with_users()

    def routable_prefix_ids(self) -> np.ndarray:
        """All announced /24s — the public probing target list."""
        return np.arange(len(self.prefixes))


def build_scenario(config: Optional[ScenarioConfig] = None) -> Scenario:
    """Build the world. Deterministic in ``config`` (including its seed)."""
    if config is None:
        config = ScenarioConfig.default()
    config.validate()
    seed = config.seed

    atlas = WorldAtlas.default()
    if config.country_codes is not None:
        atlas = atlas.subset(config.country_codes)

    catalog = ServiceCatalog.build(config.services,
                                   substream(seed, "catalog"))
    open_peering = tuple(spec.display_name
                         for spec in catalog.hypergiants.values()
                         if spec.uses_anycast)
    topo = build_topology(config.topology, atlas, hypergiant_names(),
                          substream(seed, "topology"),
                          open_peering_names=open_peering)

    prefix_table = PrefixTable()
    population = build_population(config.population, atlas, topo,
                                  prefix_table,
                                  substream(seed, "population"))
    deployment = deploy_cdns(config.services, atlas, topo, catalog,
                             prefix_table, substream(seed, "cdn"))
    prefix_table.freeze()
    population.pad_to_table()

    apnic = simulate_apnic(config.population, population,
                           substream(seed, "apnic"))
    traffic = build_traffic_matrix(catalog, population, config.dns,
                                   substream(seed, "traffic"))

    bgp = BgpSimulator(topo.graph,
                       max_cache_entries=config.route_cache_entries)

    gdns = GoogleDnsModel(config.dns, atlas, topo.registry, prefix_table,
                          substream(seed, "gdns"))
    roots = RootSystem(config.dns, topo.registry, substream(seed, "roots"))
    gdns_operator = topo.hypergiant_asns[
        catalog.hypergiants[PUBLIC_DNS_OPERATOR_KEY].display_name]
    root_archive = roots.generate_archive(
        registry=topo.registry, prefix_table=prefix_table,
        users_per_prefix=population.users_per_prefix,
        isp_resolver_share=gdns.isp_resolver_share,
        gdns_operator_asn=gdns_operator,
        config=config.dns, rng=substream(seed, "rootlogs"))

    scenario = Scenario(
        config=config, atlas=atlas, topology=topo, bgp=bgp,
        prefixes=prefix_table, population=population, apnic=apnic,
        catalog=catalog, pristine_deployment=deployment, traffic=traffic,
        gdns=gdns, roots=roots, root_archive=root_archive,
        diurnal=DiurnalCurve())
    derive_surfaces(scenario, ASPECTS)
    return scenario


def derive_surfaces(scenario: Scenario, aspects: Iterable[str]) -> None:
    """(Re)build the derived surfaces fed by the dirtied ``aspects``.

    The only place the derived surfaces are built: generation calls it
    with every aspect, :func:`repro.delta.apply_mutation_plan` with the
    aspects its plan dirtied. Each surface draws from its own named
    seed substream, so a world mutated after generation is bit-identical
    to one generated with the mutated substrate.

    Aspect -> surfaces rebuilt:

    * ``routing`` — anycast catchment models, ground-truth mapping
      (+ authoritative DNS), flow incidence, flows, routers, collector
      public view;
    * ``activity`` — flows (the weight fold over the kept incidence),
      routers, GDNS cache oracle (+ temporal oracle);
    * ``population`` — ground-truth mapping (+ authoritative DNS),
      flow incidence, flows, routers, cache oracles;
    * ``serving`` — active deployment (filtered from the pristine one),
      anycast models, mapping (+ authoritative DNS), TLS certificate
      store, flow incidence, flows, routers.

    The order is generation's and matters: the mapping is rebuilt
    *before* the flow incidence, whose per-service assignment calls are
    the mapping RNG's first consumers, and the BGP route cache sees the
    anycast models' lookups before the incidence's. An empty
    ``aspects`` rebuilds nothing.
    """
    dirty = frozenset(aspects)
    if not dirty:
        return
    routing = "routing" in dirty
    activity = "activity" in dirty
    population = "population" in dirty
    serving = "serving" in dirty
    seed = scenario.config.seed
    topo = scenario.topology
    catalog = scenario.catalog
    prefixes = scenario.prefixes

    if serving:
        scenario.deployment = filtered_deployment(
            scenario.pristine_deployment, scenario.retired_sites)
    deployment = scenario.deployment
    if routing or serving:
        scenario.anycast_models = {
            key: AnycastModel(
                hypergiant_key=key,
                hg_asn=topo.hypergiant_asns[spec.display_name],
                sites=deployment.sites(key),
                graph=topo.graph, registry=topo.registry,
                peeringdb=topo.peeringdb, bgp=scenario.bgp)
            for key, spec in catalog.hypergiants.items()
            if spec.uses_anycast}
    if routing or serving or population:
        scenario.mapping = GroundTruthMapping(
            prefix_table=prefixes, registry=topo.registry,
            deployment=deployment, catalog=catalog,
            anycast_models=scenario.anycast_models,
            users_per_prefix=scenario.population.users_per_prefix,
            rng=substream(seed, "mapping"))
        scenario.authoritative = AuthoritativeDns(catalog,
                                                  scenario.mapping)
    if serving:
        scenario.certstore = issue_certificates(
            catalog, deployment, prefixes, substream(seed, "tls"))

    # The flow incidence (where each demand lands, over which path)
    # follows the mapping. The demand fold over it, and the routers,
    # which scale with per-AS flow volume, follow every aspect.
    if routing or serving or population:
        scenario.flow_incidence = build_flow_incidence(
            scenario.traffic, scenario.mapping, deployment, scenario.bgp)
    scenario.flows = assign_flows(scenario.flow_incidence, scenario.traffic)
    scenario.routers = build_routers(topo.registry,
                                     scenario.flows.volume_by_as,
                                     scenario.diurnal,
                                     substream(seed, "routers"))

    if activity or population:
        # Query rate reaching GDNS caches = client resolutions * GDNS
        # share.
        gdns_rate = (scenario.traffic.queries_per_day
                     * scenario.gdns.gdns_share[None, :])
        ttls = [s.dns_ttl for s in catalog.services]
        probe_sids = [s.sid for s in catalog.top_by_popularity(
            scenario.config.measurement.probe_top_k_domains)]
        scenario.cache_oracle = CacheOracle.calibrated(
            gdns_rate, ttls, probe_sids,
            scenario.population.prefixes_with_users())
        city_offsets = np.array([c.utc_offset for c in prefixes.cities])
        scenario.temporal_oracle = TemporalCacheOracle.from_oracle(
            scenario.cache_oracle,
            utc_offsets=city_offsets[prefixes.city_index_array],
            curve=scenario.diurnal)

    if routing:
        scenario.public_view = build_public_view(
            topo.graph, topo.registry, substream(seed, "collectors"))
