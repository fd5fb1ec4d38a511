"""Measuring out from cloud VMs (§3.3.2, [7]).

"Measuring out from cloud VMs uncovers most peering links between the
cloud and users [7], and Reverse Traceroute can measure reverse paths
[36]." — and the §3.3.3 limitation: "these techniques require a vantage
point within the cloud, so are not suitable for CDNs that do not support
VMs running measurements."

A researcher rents VMs inside a cloud hypergiant and traceroutes out to
every target network. The first AS hop of each path *is* one of the
cloud's interconnections — exactly the links route collectors cannot see.
The discovered links can then be merged into the public topology
(:func:`augment_public_view`), improving path prediction for that cloud —
while VM-less hypergiants (Netflix-style CDNs) stay dark, which is why
the paper still needs the §3.3.3 recommender.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.collectors import PublicTopologyView
from ..net.routing import BgpSimulator
from ..obs.recorder import Recorder, resolve_recorder

CLOUD_VANTAGE_CAMPAIGN = "cloud-vantage"


@dataclass
class CloudVantageResult:
    """Links discovered by tracerouting out of one cloud."""

    cloud_asn: int
    discovered_links: FrozenSet[Tuple[int, int]]
    targets_probed: int
    targets_reached: int

    @property
    def reach_fraction(self) -> float:
        if self.targets_probed == 0:
            return 0.0
        return self.targets_reached / self.targets_probed


class CloudVantageCampaign:
    """Traceroute from inside a cloud AS to a target list.

    The campaign consumes the network itself (paths the simulated
    Internet actually routes) — the same privilege level as running real
    traceroutes from rented VMs. It reveals only links on forward paths
    *from* the cloud; everything else stays hidden.
    """

    def __init__(self, bgp: BgpSimulator, cloud_asn: int,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        self._bgp = bgp
        self._cloud = cloud_asn
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)

    def run(self, target_asns: Sequence[int]) -> CloudVantageResult:
        with self._recorder.span(f"measure.{CLOUD_VANTAGE_CAMPAIGN}"):
            return self._run(target_asns)

    def _run(self, target_asns: Sequence[int]) -> CloudVantageResult:
        if not target_asns:
            raise MeasurementError("no targets to traceroute")
        links: Set[Tuple[int, int]] = set()
        reached = 0
        remotes = [dst for dst in target_asns if dst != self._cloud]
        paths = self._bgp.paths_from(self._cloud, remotes)
        scope = self._faults.campaign(CLOUD_VANTAGE_CAMPAIGN)
        if scope.active(FaultKind.PROBE_LOSS):
            # Traceroutes whose probes are lost end-to-end reveal nothing.
            delivered = scope.survive_mask(FaultKind.PROBE_LOSS,
                                           len(remotes))
            paths = {dst: (paths[dst] if ok else None)
                     for dst, ok in zip(remotes, delivered)}
        for dst in target_asns:
            if dst == self._cloud:
                continue
            path = paths[dst]
            if path is None:
                continue
            reached += 1
            for a, b in zip(path, path[1:]):
                links.add((min(a, b), max(a, b)))
        rec = self._recorder
        rec.count(f"measure.{CLOUD_VANTAGE_CAMPAIGN}.traceroutes_sent",
                  len(remotes))
        rec.count(f"measure.{CLOUD_VANTAGE_CAMPAIGN}.targets_reached",
                  reached)
        rec.count(f"measure.{CLOUD_VANTAGE_CAMPAIGN}.links_discovered",
                  len(links))
        return CloudVantageResult(
            cloud_asn=self._cloud,
            discovered_links=frozenset(links),
            targets_probed=len(target_asns),
            targets_reached=reached)


def augment_public_view(view: PublicTopologyView,
                        result: CloudVantageResult,
                        actual_graph) -> PublicTopologyView:
    """Merge cloud-discovered links into the public topology.

    ``actual_graph`` serves as the relationship oracle for the discovered
    links — in practice the relationship is inferable from the traceroute
    context (the first hop off a cloud is a peer or provider; standard
    relationship-inference algorithms [35, 41] classify the rest). Only
    links the campaign actually discovered are read from it.
    """
    augmented = view.graph.copy()
    for a, b in sorted(result.discovered_links):
        if a not in augmented or b not in augmented:
            continue
        if augmented.relationship_of(a, b) is not None:
            continue
        rel = actual_graph.relationship_of(a, b)
        if rel is None:
            continue
        if rel.name == "P2P":
            augmented.add_p2p(a, b)
        elif actual_graph.is_provider_of(b, a):
            augmented.add_c2p(a, b)     # a buys from b
        else:
            augmented.add_c2p(b, a)
    return PublicTopologyView(
        graph=augmented,
        vantage_asns=view.vantage_asns,
        visible_links=augmented.link_set())
