"""Flow assignment: putting the traffic matrix onto AS-level routes.

Produces the per-AS and per-link traffic volumes that (a) drive router
IP ID counters (§3.1.3), (b) let the weighting use cases ask "how much
traffic does this interconnect carry?" (§1's congested-interconnect
example), and (c) provide the ground-truth route usage the map's routes
component is validated against.

Traffic for a (service, client prefix) flows between the client's AS and
the AS hosting the assigned serving site. Off-net traffic stays inside the
client AS. AS-level paths are taken from the valley-free simulator; we use
the client->host path for both directions (AS paths are close enough to
symmetric for volume accounting, and the simplification is documented).

The work is split in two so a world kept current under churn re-folds
only what changed:

* :func:`build_flow_incidence` is the routing side. It records, for every
  (service, prefix), the bin its demand lands in: a (client AS, host AS)
  pair, the client AS itself (intra-AS), or nowhere (no serving site).
  It then walks each pair's AS path once. It depends on the mapping,
  the deployment and the routes, never on demand *values*, so it
  covers the pairs of every mapped prefix, active or not, and is
  rebuilt only when ``routing``, ``serving`` or ``population`` change.
* :func:`assign_flows` is the activity side: a weighted ``bincount``
  per service over the incidence, run on every change. Its summation
  order is the one of the per-pair loop it replaces (per-service
  partials in prefix order, services in catalog order, paths in
  (host ASN, client ASN) order), so the volumes are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigError, ValidationError
from ..net.routing import BgpSimulator
from ..services.cdn import CdnDeployment
from ..services.mapping import GroundTruthMapping
from .matrix import TrafficMatrix


@dataclass
class FlowAssignment:
    """Aggregated traffic volumes over the actual topology."""

    volume_by_as: Dict[int, float] = field(default_factory=dict)
    volume_by_link: Dict[Tuple[int, int], float] = field(default_factory=dict)
    # (client_asn, host_asn) -> bytes, for route-usage ground truth.
    volume_by_pair: Dict[Tuple[int, int], float] = field(default_factory=dict)
    intra_as_volume: Dict[int, float] = field(default_factory=dict)
    unroutable_volume: float = 0.0

    def as_volume(self, asn: int) -> float:
        return self.volume_by_as.get(asn, 0.0)


@dataclass
class FlowIncidence:
    """Where each (service, prefix) demand lands under the current routes.

    A pair id orders (client AS, host AS) pairs by (host ASN, client
    ASN). Bin ``b`` of a prefix is its pair id for inter-AS traffic,
    ``n_pairs + a`` for traffic kept inside the client AS of index ``a``
    (into ``asns``), and ``n_pairs + len(asns)`` (the discard bin) when
    the prefix has no serving site. Services placed alike share a row
    of ``bins``; a service without demand when the incidence was built
    has none.
    """

    asns: np.ndarray               # (A,) ascending ASN of each AS index
    row_of_service: np.ndarray     # (S,) bins row per service id, -1 = none
    bins: np.ndarray               # (R, P) int32 bin of each prefix
    unmapped: List[np.ndarray]     # per row: prefix ids with no site
    pair_client: np.ndarray        # (N,) client ASN per pair id
    pair_host: np.ndarray          # (N,) host ASN per pair id
    unrouted: np.ndarray           # pair ids with no route
    as_keys: np.ndarray            # arange(A), then path ASes by pair id
    path_pair: np.ndarray          # pair id of each path AS entry
    link_id: np.ndarray            # link of each path hop, by pair id
    link_pair: np.ndarray          # pair id of each path hop
    link_ends: Tuple[np.ndarray, np.ndarray]  # (lo ASN, hi ASN) per link

    @property
    def n_pairs(self) -> int:
        return len(self.pair_client)


def build_flow_incidence(matrix: TrafficMatrix,
                         mapping: GroundTruthMapping,
                         deployment: CdnDeployment,
                         bgp: BgpSimulator) -> FlowIncidence:
    """The routing side of the fold. See module docstring.

    Asks the mapping for the assignments of the services with demand,
    in catalog order: these calls are the mapping RNG's first consumers.
    """
    prefix_table = matrix.prefix_table
    prefix_asns = prefix_table.asn_array
    hosts = np.unique(np.array(
        [site.host_asn for sites in deployment.sites_by_hypergiant.values()
         for site in sites]
        + [prefix_table.asn_of(pid)
           for pid in deployment.stub_hosting.values()], dtype=np.int64))
    asns = np.unique(np.concatenate(
        (np.asarray(bgp.graph.asns, dtype=np.int64), prefix_asns, hosts)))
    n_as = len(asns)
    as_index = np.full(int(asns[-1]) + 1, -1, dtype=np.int64)
    as_index[asns] = np.arange(n_as)
    host_index = np.full(int(hosts[-1]) + 1 if len(hosts) else 0, -1,
                         dtype=np.int64)
    host_index[hosts] = np.arange(len(hosts))
    client = as_index[prefix_asns]
    # Codes: host * n_as + client for a pair, then one per intra-AS
    # client, then the discard code. A present-bitmap over the pair
    # codes ranks them into pair ids in (host ASN, client ASN) order.
    intra_base = len(hosts) * n_as
    discard = intra_base + n_as
    intra_codes = intra_base + client
    present = np.zeros(discard + 1, dtype=bool)

    # Services placed alike (same hypergiant and redirection scheme, or
    # the same stub host) share one row of codes.
    row_of_service = np.full(len(matrix.catalog), -1, dtype=np.int64)
    row_of_key: Dict[object, int] = {}
    lines: List[np.ndarray] = []
    unmapped: List[np.ndarray] = []
    for service in matrix.catalog:
        if float(matrix.bytes_for_service(service).sum()) <= 0:
            continue
        if service.host_key is None:
            host_pid = deployment.stub_hosting.get(service.key)
            if host_pid is None:
                raise ConfigError(
                    f"stub-hosted service {service.key!r} has no prefix")
            key: object = host_pid
            site_asns = np.array([prefix_table.asn_of(host_pid)])
            idx = np.zeros(len(prefix_asns), dtype=np.int64)
        else:
            idx = mapping.assignment_for_service(service).site_index
            key = (service.host_key, service.redirection)
            site_asns = np.array(
                [s.host_asn for s in deployment.sites(service.host_key)],
                dtype=np.int64)
        if key not in row_of_key:
            # A trailing sentinel answers site index -1 (unmapped).
            site_as = np.append(as_index[site_asns], -1)
            site_base = np.append(host_index[site_asns] * n_as, 0)
            line = np.where(site_as[idx] == client, intra_codes,
                            site_base[idx] + client)
            missing = np.flatnonzero(idx < 0)
            line[missing] = discard
            present[line] = True
            row_of_key[key] = len(lines)
            lines.append(line)
            unmapped.append(missing)
        row_of_service[service.sid] = row_of_key[key]

    pair_codes = np.flatnonzero(present[:intra_base])
    n_pairs = len(pair_codes)
    lut = np.empty(discard + 1, dtype=np.int32)
    lut[pair_codes] = np.arange(n_pairs)
    lut[intra_base:] = n_pairs + np.arange(n_as + 1)
    bins = np.empty((len(lines), len(prefix_asns)), dtype=np.int32)
    for row, line in enumerate(lines):
        bins[row] = lut[line]
    pair_host = hosts[pair_codes // n_as]
    pair_client = asns[pair_codes % n_as]

    # Walk each host's route table over all of its clients at once.
    starts = np.flatnonzero(np.diff(pair_host, prepend=-1))
    ends = np.r_[starts[1:], n_pairs]
    none = np.zeros(0, dtype=np.int64)
    walks = [(none, none, none)]
    for start, end in zip(starts.tolist(), ends.tolist()):
        table = bgp.routes_to([int(pair_host[start])])
        rows, hops, nexts = table.walk_paths(pair_client[start:end])
        walks.append((start + rows, hops, nexts))
    pair_of, hop_asns, next_asns = (np.concatenate(part)
                                    for part in zip(*walks))
    routed = np.zeros(n_pairs, dtype=bool)
    routed[pair_of] = True
    hop = as_index[hop_asns]
    hop_link = next_asns >= 0
    nxt = as_index[next_asns[hop_link]]
    here = hop[hop_link]
    link_keys, link_id = np.unique(
        np.minimum(here, nxt) * n_as + np.maximum(here, nxt),
        return_inverse=True)
    return FlowIncidence(
        asns=asns, row_of_service=row_of_service, bins=bins,
        unmapped=unmapped, pair_client=pair_client, pair_host=pair_host,
        unrouted=np.flatnonzero(~routed),
        as_keys=np.concatenate((np.arange(n_as), hop)).astype(np.int32),
        path_pair=pair_of.astype(np.int32),
        link_id=link_id.astype(np.int32),
        link_pair=pair_of[hop_link].astype(np.int32),
        link_ends=(asns[link_keys // n_as], asns[link_keys % n_as]))


def _positive(values: np.ndarray, *keys: np.ndarray) -> Dict:
    """``{key: value}`` for the strictly positive ``values``; a key is
    one entry of ``keys[0]``, or a tuple across several key columns."""
    nz = np.flatnonzero(values > 0)
    columns = [column[nz].tolist() for column in keys]
    return dict(zip(columns[0] if len(columns) == 1 else zip(*columns),
                    values[nz].tolist()))


def assign_flows(incidence: FlowIncidence,
                 matrix: TrafficMatrix) -> FlowAssignment:
    """Fold the matrix's demand over the incidence. See module docstring.

    Raises :class:`ValidationError` for a service with demand but no
    incidence row (its demand was zero when the incidence was built).
    """
    n_pairs = incidence.n_pairs
    n_as = len(incidence.asns)
    n_bins = n_pairs + n_as + 1
    totals = np.zeros(n_bins)
    unroutable = 0.0
    for service in matrix.catalog:
        demand = matrix.bytes_for_service(service)
        row = int(incidence.row_of_service[service.sid])
        if row < 0:
            if float(demand.sum()) > 0:
                raise ValidationError(
                    f"service {service.key!r} has demand but no flow "
                    f"incidence row; rebuild the incidence")
            continue
        totals += np.bincount(incidence.bins[row], weights=demand,
                              minlength=n_bins)
        stranded = demand[incidence.unmapped[row]]
        unroutable += float(stranded[stranded > 0].sum())
    pair_volume = totals[:n_pairs]
    intra = totals[n_pairs:n_pairs + n_as]
    for volume in pair_volume[incidence.unrouted].tolist():
        unroutable += volume

    by_as = np.bincount(
        incidence.as_keys,
        weights=np.concatenate((intra, pair_volume[incidence.path_pair])),
        minlength=n_as)
    by_link = np.bincount(incidence.link_id,
                          weights=pair_volume[incidence.link_pair],
                          minlength=len(incidence.link_ends[0]))
    routed = pair_volume.copy()
    routed[incidence.unrouted] = 0.0
    return FlowAssignment(
        volume_by_as=_positive(by_as, incidence.asns),
        volume_by_link=_positive(by_link, *incidence.link_ends),
        volume_by_pair=_positive(routed, incidence.pair_client,
                                 incidence.pair_host),
        intra_as_volume=_positive(intra, incidence.asns),
        unroutable_volume=unroutable)
