"""The §2.1 use cases: what an Internet Traffic Map is *for*.

* :func:`path_length_study` — the iPlane-vs-Google contrast: unweighted,
  almost no paths are short (~2% two ASes long); query-weighted, most
  queries come from ASes that host a server or sit one hop away (~73%).
* :func:`mapping_optimality_study` — the [38]-style CDN optimality view:
  ~31% of routes to the closest site yet ~60% of users mapped optimally,
  plus the anycast "within 500 km" distribution.
* :class:`OutageImpactAnalyzer` — "to assess the impact of an outage in a
  <region, AS>, the map can tell us which popular services are affected,
  which prefixes are affected for those services, what fraction of traffic
  or users are affected, and where the prefixes may be routed instead."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..net.geography import haversine_km
from ..net.prefixes import PrefixTable
from ..net.relationships import ASGraph
from ..net.routing import BgpSimulator
from ..services.catalog import Service
from ..services.hypergiants import RedirectionScheme
from ..services.mapping import SchemeAssignment
from .traffic_map import InternetTrafficMap, MappedSite
from .weighting import WeightedCDF, WeightingContrast, weighting_contrast


# ---------------------------------------------------------------------------
# Path-length study
# ---------------------------------------------------------------------------

@dataclass
class PathLengthStudy:
    """Unweighted vs activity-weighted AS-path-length distributions."""

    contrast: WeightingContrast
    unweighted_short_fraction: float   # paths <= 1 AS hop, each AS equal
    weighted_short_fraction: float     # same, weighted by activity
    offnet_or_adjacent_weighted: float # "host a server or connect directly"

    def divergence(self) -> float:
        return (self.offnet_or_adjacent_weighted
                - self.unweighted_short_fraction)


def iplane_short_fraction(bgp: BgpSimulator, vp_asns: Sequence[int],
                          dst_asns: Sequence[int],
                          max_hops: int = 1) -> float:
    """The traditional-topology baseline of §2.1.

    "When considering iPlane's paths from PlanetLab to all prefixes — a
    traditional academic Internet topology — only 2% of Internet paths
    were two ASes long." Computes the fraction of (vantage, destination)
    paths that are at most ``max_hops`` AS hops (two ASes = one hop),
    counting every destination equally — the unweighted view the paper
    wants retired.
    """
    if not vp_asns or not dst_asns:
        raise ValidationError("need vantage and destination ASes")
    short = 0
    total = 0
    for dst in dst_asns:
        table = bgp.routes_to([dst])
        for vp in vp_asns:
            if vp == dst:
                continue
            length = table.length_of(vp)
            if length is None:
                continue
            total += 1
            if length <= max_hops:
                short += 1
    if total == 0:
        raise ValidationError("no routable pairs")
    return short / total


def path_length_study(graph: ASGraph, bgp: BgpSimulator,
                      client_asns: Sequence[int],
                      weight_by_as: Dict[int, float],
                      target_asn: int,
                      offnet_host_asns: "set[int]" = frozenset()
                      ) -> PathLengthStudy:
    """Path lengths from client ASes to a hypergiant, both ways of
    counting.

    ``offnet_host_asns`` — ASes hosting the target's off-net caches, which
    effectively serve at distance zero.
    """
    if not client_asns:
        raise ValidationError("no client ASes")
    lengths: List[float] = []
    weights: List[float] = []
    near_mass = 0.0
    total_mass = 0.0
    table = bgp.routes_to([target_asn])
    for asn in client_asns:
        weight = weight_by_as.get(asn, 0.0)
        if asn in offnet_host_asns:
            length = 0
        else:
            length = table.length_of(asn)
            if length is None:
                continue
        lengths.append(float(length))
        weights.append(weight)
        total_mass += weight
        # "host a Google server or connect directly with Google or
        # another AS hosting a Google server"
        if asn in offnet_host_asns or length <= 1 or any(
                n in offnet_host_asns for n in graph.neighbors_of(asn)):
            near_mass += weight
    if not lengths:
        raise ValidationError("no routable clients")
    if all(w == 0 for w in weights):
        raise ValidationError("no activity weight on any client")
    contrast = weighting_contrast("as_path_length", lengths, weights,
                                  weight_name="client activity")
    return PathLengthStudy(
        contrast=contrast,
        unweighted_short_fraction=contrast.unweighted.cdf(1.0),
        weighted_short_fraction=contrast.weighted.cdf(1.0),
        offnet_or_adjacent_weighted=(near_mass / total_mass
                                     if total_mass > 0 else 0.0))


# ---------------------------------------------------------------------------
# CDN / anycast mapping optimality
# ---------------------------------------------------------------------------

@dataclass
class MappingOptimalityStudy:
    """The [38]-style optimality numbers for one assignment."""

    route_optimal_fraction: float      # per-prefix, unweighted (~31%)
    user_optimal_fraction: float       # user-weighted (~60%)
    extra_distance_cdf: WeightedCDF    # km beyond the closest site
    within_500km_fraction: float       # anycast efficiency (~80%)


def mapping_optimality_study(assignment: SchemeAssignment,
                             users_per_prefix: np.ndarray,
                             client_pids: Optional[np.ndarray] = None
                             ) -> MappingOptimalityStudy:
    """Score a ground-truth or measured assignment for optimality."""
    if client_pids is None:
        client_pids = np.flatnonzero(users_per_prefix > 0)
    client_pids = np.asarray(client_pids, dtype=int)
    if client_pids.size == 0:
        raise ValidationError("no client prefixes")
    mapped = assignment.site_index[client_pids] >= 0
    pids = client_pids[mapped]
    if pids.size == 0:
        raise ValidationError("no mapped clients")
    optimal = assignment.is_optimal()[pids]
    users = users_per_prefix[pids]
    extra = assignment.extra_km()[pids]
    user_total = float(users.sum())
    return MappingOptimalityStudy(
        route_optimal_fraction=float(optimal.mean()),
        user_optimal_fraction=(float((optimal * users).sum() / user_total)
                               if user_total > 0 else 0.0),
        extra_distance_cdf=WeightedCDF(extra),
        within_500km_fraction=float((extra <= 500.0).mean()))


# ---------------------------------------------------------------------------
# Link-importance study
# ---------------------------------------------------------------------------

@dataclass
class LinkImportanceStudy:
    """The §1 congested-interconnect fallacy quantified.

    "Or each congested interconnect impacts the same amount of traffic."
    Counting links equally versus weighting them by carried volume
    produces very different views of which interconnects matter.
    """

    top_links_by_volume: List[Tuple[Tuple[int, int], float]]
    volume_share_of_top: Dict[int, float]   # k -> share carried by top-k
    volume_gini: float
    total_links: int

    def top_share(self, k: int) -> float:
        try:
            return self.volume_share_of_top[k]
        except KeyError:
            raise ValidationError(f"top-{k} share not computed") from None


def link_importance_study(volume_by_link: Dict[Tuple[int, int], float],
                          top_ks: Sequence[int] = (10, 50, 100)
                          ) -> LinkImportanceStudy:
    """Quantify how unequal interconnect importance is.

    An unweighted analysis treats all ``total_links`` links alike (each
    carries 1/N of the "impact"); the volume-weighted view shows a tiny
    fraction of links carrying most traffic.
    """
    if not volume_by_link:
        raise ValidationError("no link volumes")
    volumes = np.array(sorted(volume_by_link.values(), reverse=True))
    total = float(volumes.sum())
    if total <= 0:
        raise ValidationError("zero total volume")
    shares = {k: float(volumes[:k].sum()) / total
              for k in top_ks if k >= 1}
    # Gini over link volumes.
    ascending = volumes[::-1]
    n = len(ascending)
    ranks = np.arange(1, n + 1)
    gini = float((2 * (ranks * ascending).sum()) / (n * total)
                 - (n + 1) / n)
    ranked = sorted(volume_by_link.items(),
                    key=lambda kv: (-kv[1], kv[0]))
    return LinkImportanceStudy(
        top_links_by_volume=ranked[:max(top_ks)],
        volume_share_of_top=shares,
        volume_gini=gini,
        total_links=n)


# ---------------------------------------------------------------------------
# Outage impact
# ---------------------------------------------------------------------------

@dataclass
class OutageReport:
    """Map-derived answer to "what would an outage of this AS mean?"."""

    asn: int
    activity_share: float                  # fraction of global activity
    affected_prefix_count: int
    affected_services: Tuple[str, ...]     # services serving those users
    offnet_orgs_inside: Tuple[str, ...]    # orgs with caches in the AS
    alternate_transit: bool                # users still routable without AS
    rerouted_service_asns: Dict[str, int]  # service -> fallback host AS

    def headline(self) -> str:
        return (f"AS{self.asn}: {self.activity_share:.1%} of activity, "
                f"{self.affected_prefix_count} prefixes, "
                f"{len(self.affected_services)} services affected")


class OutageImpactAnalyzer:
    """Answers §2.1's outage question from the map alone."""

    def __init__(self, itm: InternetTrafficMap,
                 prefix_table: PrefixTable, graph: ASGraph) -> None:
        self._itm = itm
        self._prefixes = prefix_table
        self._graph = graph

    def assess_as_outage(self, asn: int) -> OutageReport:
        itm = self._itm
        activity_share = itm.users.as_weight(asn)
        affected_pids = [pid for pid in itm.users.detected_prefixes
                         if self._prefixes.asn_of(int(pid)) == asn]

        # Which mapped services serve users in this AS?
        affected_services: List[str] = []
        rerouted: Dict[str, int] = {}
        prefix_asns = self._prefixes.asn_array
        for service_key, (clients, hosts) in \
                itm.services.user_to_host.items():
            serves_here = False
            fallback: Optional[int] = None
            for client_pid, answer_pid in zip(clients.tolist(),
                                              hosts.tolist()):
                client_asn = int(prefix_asns[client_pid])
                answer_asn = int(prefix_asns[answer_pid])
                if client_asn == asn:
                    serves_here = True
                if answer_asn != asn and fallback is None:
                    fallback = answer_asn
            if serves_here:
                affected_services.append(service_key)
                if fallback is not None:
                    rerouted[service_key] = fallback

        offnet_orgs = tuple(sorted(
            org for org, sites in itm.services.sites_by_org.items()
            if any(site.asn == asn and site.is_offnet for site in sites)))

        # Alternate transit: do the AS's neighbors keep a path to the rest
        # of the graph if this AS disappears? Cheap proxy: the AS is not a
        # cut vertex for its customers (they have another provider/peer).
        alternate = True
        for customer in self._graph.customers_of(asn):
            others = self._graph.neighbors_of(customer) - {asn}
            if not others:
                alternate = False
                break

        return OutageReport(
            asn=asn,
            activity_share=activity_share,
            affected_prefix_count=len(affected_pids),
            affected_services=tuple(sorted(affected_services)),
            offnet_orgs_inside=offnet_orgs,
            alternate_transit=alternate,
            rerouted_service_asns=rerouted)

    def rank_by_impact(self, asns: Sequence[int],
                       k: int = 10) -> List[Tuple[int, float]]:
        """The k highest-activity ASes — where outages hurt most."""
        ranked = sorted(((asn, self._itm.users.as_weight(asn))
                         for asn in asns), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def assess_region_outage(self, asns: Sequence[int]
                             ) -> "RegionOutageReport":
        """Aggregate outage report for a <region, AS-set> (§2.1's
        "outage in a <region, AS>" question at region scope) — e.g. all
        ASes of one country."""
        if not asns:
            raise ValidationError("empty AS set")
        reports = [self.assess_as_outage(asn) for asn in asns]
        services: set = set()
        orgs: set = set()
        for report in reports:
            services.update(report.affected_services)
            orgs.update(report.offnet_orgs_inside)
        return RegionOutageReport(
            asns=tuple(sorted(asns)),
            activity_share=sum(r.activity_share for r in reports),
            affected_prefix_count=sum(r.affected_prefix_count
                                      for r in reports),
            affected_services=tuple(sorted(services)),
            offnet_orgs_inside=tuple(sorted(orgs)))


@dataclass
class RegionOutageReport:
    """Aggregate impact of losing a whole set of ASes (e.g. a country)."""

    asns: Tuple[int, ...]
    activity_share: float
    affected_prefix_count: int
    affected_services: Tuple[str, ...]
    offnet_orgs_inside: Tuple[str, ...]

    def headline(self) -> str:
        return (f"{len(self.asns)} ASes: {self.activity_share:.1%} of "
                f"activity, {self.affected_prefix_count} prefixes, "
                f"{len(self.affected_services)} services affected")


# ---------------------------------------------------------------------------
# Map-only queries (the ``repro.serve`` endpoint semantics)
# ---------------------------------------------------------------------------
#
# The query service answers from a read-optimized MapStore
# (:mod:`repro.core.mapstore`); the functions below are the *reference*
# semantics, computed straight off the dict-based map. The store is
# regression-locked to answer bit-identically to these.

def map_path_length_contrast(itm: InternetTrafficMap,
                             target_asn: int) -> WeightingContrast:
    """Unweighted vs activity-weighted AS-path-length CDFs to one
    destination AS, from the map alone (the §2.1 "weighted CDF for
    AS X" question).

    Samples are the map's routes component entries ``(src, target_asn)``
    with a predicted path; each sample's weight is ``src``'s activity
    share from the users component. Iteration order is the routes dict's
    insertion order, which the serialisation preserves — answers are
    bit-stable across round trips.
    """
    lengths: List[float] = []
    weights: List[float] = []
    for (src, dst), path in itm.routes.paths.items():
        if dst != target_asn or path is None:
            continue
        lengths.append(float(len(path) - 1))
        weights.append(itm.users.as_weight(src))
    if not lengths:
        raise ValidationError(
            f"map covers no predicted routes to AS{target_asn}")
    if all(w == 0 for w in weights):
        raise ValidationError(
            f"no activity weight on any AS routed to AS{target_asn}")
    return weighting_contrast("as_path_length", lengths, weights,
                              weight_name="client activity")


@dataclass(frozen=True)
class SiteCandidate:
    """One ranked alternative serving site for an anycast answer."""

    organization: str
    prefix_id: int
    asn: int
    distance_km: Optional[float]    # None when either city is unknown
    is_offnet: bool


@dataclass(frozen=True)
class AnycastAnswer:
    """Where a client prefix is served, and its best failover sites."""

    service_key: str
    client_pid: int
    host_pid: int
    host_asn: Optional[int]         # None when the site is unknown
    organization: Optional[str]     # org owning the serving site
    candidates: Tuple[SiteCandidate, ...]


def rank_site_candidates(serving: MappedSite,
                         pool: Sequence[MappedSite],
                         k: int) -> Tuple[SiteCandidate, ...]:
    """The k best alternative sites, nearest the current serving site.

    Sites with a known estimated city rank by great-circle distance from
    the serving site's city; city-less sites sort after them. Ties break
    on (ASN, prefix id) so the ranking is total and deterministic.
    """
    def sort_key(site: MappedSite):
        if serving.estimated_city is None or site.estimated_city is None:
            return (1, 0.0, site.asn, site.prefix_id)
        distance = haversine_km(
            serving.estimated_city.lat, serving.estimated_city.lon,
            site.estimated_city.lat, site.estimated_city.lon)
        return (0, distance, site.asn, site.prefix_id)

    ranked = sorted(pool, key=sort_key)[:max(0, k)]
    out = []
    for site in ranked:
        if serving.estimated_city is None or site.estimated_city is None:
            distance = None
        else:
            distance = haversine_km(
                serving.estimated_city.lat, serving.estimated_city.lon,
                site.estimated_city.lat, site.estimated_city.lon)
        out.append(SiteCandidate(
            organization=site.organization, prefix_id=site.prefix_id,
            asn=site.asn, distance_km=distance,
            is_offnet=site.is_offnet))
    return tuple(out)


def anycast_site_candidates(itm: InternetTrafficMap, service_key: str,
                            client_pid: int, k: int = 3
                            ) -> AnycastAnswer:
    """The §2.1 anycast-placement question, from the map alone.

    For client prefix ``client_pid`` and one mapped service: which site
    serves it today (the ECS user→host answer), and which k sites of the
    same organisation are the best alternatives — "where the prefixes
    may be routed instead". Organisations are scanned in sorted order so
    a prefix hosted by several deployments resolves deterministically.
    """
    columns = itm.services.user_to_host.get(service_key)
    if columns is None:
        raise ValidationError(
            f"service {service_key!r} has no user->host mapping")
    clients, hosts = columns
    client_pid = int(client_pid)
    host_pid = next((host for client, host in zip(clients.tolist(),
                                                   hosts.tolist())
                     if client == client_pid), None)
    if host_pid is None:
        raise ValidationError(
            f"prefix {client_pid} is not mapped by {service_key!r}")
    serving: Optional[MappedSite] = None
    org_of: Optional[str] = None
    for org in sorted(itm.services.sites_by_org):
        for site in itm.services.sites_by_org[org]:
            if site.prefix_id == host_pid:
                serving, org_of = site, org
                break
        if serving is not None:
            break
    candidates: Tuple[SiteCandidate, ...] = ()
    if serving is not None:
        pool = [s for s in itm.services.sites_by_org[org_of]
                if s.prefix_id != host_pid]
        candidates = rank_site_candidates(serving, pool, k)
    return AnycastAnswer(
        service_key=service_key,
        client_pid=int(client_pid),
        host_pid=int(host_pid),
        host_asn=serving.asn if serving is not None else None,
        organization=org_of,
        candidates=candidates)
