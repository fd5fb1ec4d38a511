"""Hypergiant serving infrastructure: on-net PoPs and off-net caches.

The largest providers "serve traffic from CDN caches in thousands of
networks around the world [25] or across private peering links only used
for their traffic [64]" (§1). We model both deployment modes:

* **on-net sites** — serving prefixes inside the hypergiant's own AS,
  placed at cities where the hypergiant has facility presence;
* **off-net sites** — serving prefixes inside *eyeball* ASes (the
  GGC/FNA/OCA pattern), deployed preferentially into large eyeballs.

Long-tail services without a hypergiant host get a serving prefix in a stub
hosting AS.

Everything allocated here lands in the shared :class:`PrefixTable` with
``SERVER_ONNET`` / ``SERVER_OFFNET`` kinds, which the TLS certificate store
then binds to owner organisations — the raw material of the §3.2.2 scans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..config import ServiceConfig
from ..errors import ConfigError
from ..net.ases import ASType
from ..net.geography import City, WorldAtlas
from ..net.prefixes import PrefixKind, PrefixTable
from ..net.topology import TopologyBuild
from .catalog import ServiceCatalog
from .hypergiants import OffnetReach


class SiteKind(enum.Enum):
    """Whether a site lives in the hypergiant's own AS or a host AS."""

    ONNET = "onnet"
    OFFNET = "offnet"


@dataclass(frozen=True)
class ServingSite:
    """One serving location of a hypergiant."""

    site_id: int                # index within the hypergiant's site list
    hypergiant_key: str
    kind: SiteKind
    city: City
    host_asn: int               # hypergiant ASN (on-net) or eyeball ASN
    prefix_ids: Tuple[int, ...]

    @property
    def is_offnet(self) -> bool:
        return self.kind is SiteKind.OFFNET


@dataclass
class CdnDeployment:
    """All serving infrastructure, indexed for mapping and for scans."""

    sites_by_hypergiant: Dict[str, List[ServingSite]] = field(
        default_factory=dict)
    # eyeball ASN -> {hypergiant_key -> site} for off-net lookups.
    offnet_index: Dict[int, Dict[str, ServingSite]] = field(
        default_factory=dict)
    # prefix id -> (hypergiant_key, site) for scan-side lookups.
    site_of_prefix: Dict[int, Tuple[str, ServingSite]] = field(
        default_factory=dict)
    # stub-hosted service key -> hosting prefix id.
    stub_hosting: Dict[str, int] = field(default_factory=dict)

    def sites(self, hypergiant_key: str) -> List[ServingSite]:
        return list(self.sites_by_hypergiant.get(hypergiant_key, []))

    def onnet_sites(self, hypergiant_key: str) -> List[ServingSite]:
        return [s for s in self.sites(hypergiant_key)
                if s.kind is SiteKind.ONNET]

    def offnet_site_in_as(self, asn: int,
                          hypergiant_key: str) -> Optional[ServingSite]:
        return self.offnet_index.get(asn, {}).get(hypergiant_key)

    def all_serving_prefixes(self) -> List[int]:
        return sorted(self.site_of_prefix)

    def offnet_host_count(self, hypergiant_key: str) -> int:
        return sum(1 for s in self.sites(hypergiant_key) if s.is_offnet)


def filtered_deployment(pristine: CdnDeployment,
                        retired: Set[Tuple[str, int]]) -> CdnDeployment:
    """The active deployment: pristine sites minus the retired set.

    ``retired`` holds ``(hypergiant_key, pristine_site_id)`` handles.
    Site ids are renumbered to list positions (mapping assignments and
    catchment answers index per-hypergiant site lists by ``site_id``),
    preserving the pristine order so the filtering is deterministic and
    exactly reversible. With nothing retired the pristine deployment
    itself is returned.
    """
    if not retired:
        return pristine
    active = CdnDeployment()
    active.stub_hosting = dict(pristine.stub_hosting)
    for key, sites in pristine.sites_by_hypergiant.items():
        kept = []
        for site in sites:
            if (key, site.site_id) in retired:
                continue
            renumbered = replace(site, site_id=len(kept))
            kept.append(renumbered)
            for pid in renumbered.prefix_ids:
                active.site_of_prefix[pid] = (key, renumbered)
            if renumbered.kind is SiteKind.OFFNET:
                active.offnet_index.setdefault(
                    renumbered.host_asn, {})[key] = renumbered
        active.sites_by_hypergiant[key] = kept
    return active


def _offnet_probability(reach: OffnetReach, size_quantile: float,
                        base_major: float, base_minor: float) -> float:
    """Probability an eyeball at a given size quantile hosts an off-net.

    ``size_quantile`` is 0 for the largest eyeball, 1 for the smallest;
    deployment probability decays with it — hypergiants install caches in
    big networks first.
    """
    if reach is OffnetReach.NONE:
        return 0.0
    base = base_major if reach is OffnetReach.MAJOR else base_minor
    return min(0.98, base * (1.8 - 1.6 * size_quantile))


def deploy_cdns(config: ServiceConfig, atlas: WorldAtlas,
                topo: TopologyBuild, catalog: ServiceCatalog,
                prefix_table: PrefixTable,
                rng: np.random.Generator) -> CdnDeployment:
    """Allocate serving prefixes for every hypergiant and stub host."""
    config.validate()
    if prefix_table.frozen:
        raise ConfigError("prefix table already frozen")
    deployment = CdnDeployment()
    registry = topo.registry
    eyeballs = registry.eyeballs()
    weights = topo.eyeball_size_weight
    ranked_eyeballs = sorted(eyeballs, key=lambda e: -weights[e.asn])

    for key, spec in catalog.hypergiants.items():
        hg_asn = topo.hypergiant_asns.get(spec.display_name)
        if hg_asn is None:
            raise ConfigError(f"no AS generated for hypergiant {key!r}")
        sites: List[ServingSite] = []

        # On-net PoPs at cities where the hypergiant has facilities; every
        # hypergiant keeps a core deployment even without facility data.
        cities = topo.peeringdb.facility_cities(hg_asn)
        unique_cities: List[City] = []
        seen = set()
        for city in cities:
            if (city.country_code, city.name) not in seen:
                seen.add((city.country_code, city.name))
                unique_cities.append(city)
        if not unique_cities:
            unique_cities = [registry.get(hg_asn).home_city]
        # Anycast CDNs deploy many thin sites; others fewer, bigger ones.
        target = (config.anycast_site_count if spec.uses_anycast
                  else max(6, int(len(unique_cities) * 0.6)))
        target = min(target, len(unique_cities))
        chosen = rng.choice(len(unique_cities), size=target, replace=False)
        for city_idx in sorted(int(i) for i in chosen):
            city = unique_cities[city_idx]
            n_prefixes = 1 + int(rng.integers(0, 3))
            pids = prefix_table.add_many(
                hg_asn, PrefixKind.SERVER_ONNET, city, n_prefixes)
            site = ServingSite(
                site_id=len(sites), hypergiant_key=key, kind=SiteKind.ONNET,
                city=city, host_asn=hg_asn, prefix_ids=tuple(pids))
            sites.append(site)
            for pid in pids:
                deployment.site_of_prefix[pid] = (key, site)

        # Off-net caches inside eyeball networks, biggest networks first,
        # scaled by the hypergiants' per-country infrastructure presence.
        n_eyeballs = len(ranked_eyeballs)
        presence = topo.hg_country_presence
        for rank, eyeball in enumerate(ranked_eyeballs):
            quantile = rank / max(1, n_eyeballs - 1)
            prob = _offnet_probability(
                spec.offnet_reach, quantile,
                config.offnet_reach_major, config.offnet_reach_minor)
            prob *= presence.get(eyeball.country_code, 1.0)
            if prob <= 0 or rng.random() >= prob:
                continue
            pid = prefix_table.add(
                eyeball.asn, PrefixKind.SERVER_OFFNET, eyeball.home_city)
            site = ServingSite(
                site_id=len(sites), hypergiant_key=key, kind=SiteKind.OFFNET,
                city=eyeball.home_city, host_asn=eyeball.asn,
                prefix_ids=(pid,))
            sites.append(site)
            deployment.offnet_index.setdefault(
                eyeball.asn, {})[key] = site
            deployment.site_of_prefix[pid] = (key, site)

        deployment.sites_by_hypergiant[key] = sites

    # Stub hosting for services without a hypergiant host.
    stubs = registry.of_type(ASType.STUB)
    if stubs:
        for service in catalog:
            if service.host_key is not None:
                continue
            stub = stubs[int(rng.integers(len(stubs)))]
            pid = prefix_table.add(
                stub.asn, PrefixKind.HOSTING, stub.home_city)
            deployment.stub_hosting[service.key] = pid
    return deployment
