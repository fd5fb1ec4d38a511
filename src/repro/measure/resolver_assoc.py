"""Associating recursive resolvers with their clients (§3.1.3).

"Since logs capture the address of the recursive resolver (rather than of
the client), we either need to make simplifying assumptions ... or deploy
techniques to associate recursive resolvers with their clients (e.g.,
embedding measurements of the associations in popular pages [43]). Such an
association would enable joining of resolver-based techniques with
client-based techniques."

The campaign embeds a one-pixel measurement in popular pages: each
*sampled page view* resolves a unique per-view hostname, so the
measurement platform observes the pair (client /24 from the HTTP fetch,
resolver that asked the authoritative). Sampling follows real traffic —
busy prefixes are sampled more — so the association is naturally
activity-weighted.

:func:`attribute_rootlog_volume` then uses the association to convert
per-resolver Chromium volumes into per-client-AS activity *without* the
"clients are in their resolver's AS" assumption — including re-attributing
the public-resolver volume that plain root-log crawling must discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.prefixes import PrefixTable
from ..obs.recorder import Recorder, resolve_recorder
from ..services.dnsinfra import GoogleDnsModel
from .rootlogs import RootLogCrawlResult

RESOLVER_ASSOC_CAMPAIGN = "resolver-association"

# Resolver identity observed at the measurement authoritative: either the
# ISP resolver of some AS, or the shared public DNS service.
PUBLIC_RESOLVER = -1


@dataclass
class ResolverAssociation:
    """Sampled (resolver -> client AS) association weights.

    ``weights[resolver][client_asn]`` is the fraction of the resolver's
    observed page views that came from that client AS. Resolver id is the
    ISP's ASN, or :data:`PUBLIC_RESOLVER` for the public DNS service.
    """

    weights: Dict[int, Dict[int, float]]
    sample_size: int

    def clients_of(self, resolver_id: int) -> Dict[int, float]:
        return dict(self.weights.get(resolver_id, {}))


class PageMeasurementCampaign:
    """Samples page views to learn resolver-client associations.

    Consumes only public-ish surfaces: the simulated measurement platform
    sees, per sampled view, the client /24 (HTTP side) and the resolver
    that fetched the unique hostname (DNS side). The underlying sampling
    distribution is driven by true per-prefix activity, as real page-view
    sampling would be.
    """

    def __init__(self, prefix_table: PrefixTable, gdns: GoogleDnsModel,
                 view_weights: np.ndarray,
                 rng: np.random.Generator,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        if len(view_weights) != len(prefix_table):
            raise MeasurementError("view weights must cover every prefix")
        total = float(view_weights.sum())
        if total <= 0:
            raise MeasurementError("no page views to sample")
        self._prefixes = prefix_table
        self._gdns = gdns
        self._probabilities = np.asarray(view_weights, dtype=float) / total
        self._rng = rng
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)

    def run(self, sample_size: int = 50_000) -> ResolverAssociation:
        with self._recorder.span(f"measure.{RESOLVER_ASSOC_CAMPAIGN}"):
            return self._run(sample_size)

    def _run(self, sample_size: int) -> ResolverAssociation:
        if sample_size < 1:
            raise MeasurementError("sample_size must be positive")
        pids = self._rng.choice(len(self._prefixes), size=sample_size,
                                p=self._probabilities)
        use_gdns = self._rng.random(sample_size) < \
            self._gdns.gdns_share[pids]
        scope = self._faults.campaign(RESOLVER_ASSOC_CAMPAIGN)
        if scope.active(FaultKind.RESOLVER_TIMEOUT):
            # The DNS side of a sampled view timing out loses the pair:
            # the platform never sees which resolver fetched the hostname.
            observed = scope.survive_mask(FaultKind.RESOLVER_TIMEOUT,
                                          sample_size)
            if not observed.any():
                raise MeasurementError(
                    "every sampled page view lost its DNS side")
            pids = pids[observed]
            use_gdns = use_gdns[observed]
        rec = self._recorder
        rec.count(f"measure.{RESOLVER_ASSOC_CAMPAIGN}.views_sampled",
                  sample_size)
        rec.count(f"measure.{RESOLVER_ASSOC_CAMPAIGN}.pairs_observed",
                  len(pids))
        asns = self._prefixes.asn_array[pids]
        counts: Dict[int, Dict[int, float]] = {}
        for pid, asn, via_gdns in zip(pids, asns, use_gdns):
            asn = int(asn)
            if via_gdns or self._gdns.outsourced_by_asn.get(asn, False):
                resolver = PUBLIC_RESOLVER
            else:
                resolver = asn   # the ISP resolver announces the ISP's ASN
            counts.setdefault(resolver, {})
            counts[resolver][asn] = counts[resolver].get(asn, 0.0) + 1.0
        weights: Dict[int, Dict[int, float]] = {}
        for resolver, clients in counts.items():
            total = sum(clients.values())
            weights[resolver] = {asn: c / total
                                 for asn, c in clients.items()}
        return ResolverAssociation(weights=weights,
                                   sample_size=sample_size)


def attribute_rootlog_volume(crawl: RootLogCrawlResult,
                             association: ResolverAssociation,
                             min_volume: float = 1.0
                             ) -> Dict[int, float]:
    """Per-client-AS activity from root logs + the learned association.

    ISP-resolver volume is spread over that resolver's observed client
    ASes; the public-resolver aggregate — unattributable to plain root-log
    crawling — is spread over the public resolver's client mix. The result
    covers networks the same-AS assumption must miss (§3.1.3's promised
    join of resolver-based and client-based techniques).
    """
    activity: Dict[int, float] = {}

    def spread(volume: float, clients: Dict[int, float]) -> None:
        for asn, weight in clients.items():
            activity[asn] = activity.get(asn, 0.0) + volume * weight

    for resolver_asn, volume in crawl.volume_by_as.items():
        clients = association.clients_of(resolver_asn)
        if clients:
            spread(volume, clients)
        else:
            # Unsampled resolver: fall back to the same-AS assumption.
            activity[resolver_asn] = activity.get(resolver_asn, 0.0) \
                + volume
    public_clients = association.clients_of(PUBLIC_RESOLVER)
    if public_clients and crawl.public_resolver_volume > 0:
        spread(crawl.public_resolver_volume, public_clients)
    return {asn: v for asn, v in activity.items() if v >= min_volume}
