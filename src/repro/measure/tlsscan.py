"""Approach 1 of §3.2.2: TLS scans to identify serving infrastructure.

"TLS certificates validate the owner of a resource. With the recent
dramatic increase in web encryption, we used TLS scans to identify the
global serving infrastructure of large content providers and CDNs [25]."

The scanner connects to every routable /24 (one representative address per
prefix — real scans use full zmap sweeps, the per-/24 granularity loses
nothing in our model) and records the certificate, if any. Prefix origin
ASes come from the public routing table.

From the raw scan it derives an infrastructure inventory per organisation:

* the organisation's *home AS* — inferred as the AS originating the most
  of its certificate-bearing prefixes (no privileged data needed);
* **on-net** serving prefixes (inside the home AS) and **off-net** serving
  prefixes (the same org's certificate served from someone else's AS —
  the off-net-cache fingerprint of [25]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.prefixes import PrefixTable
from ..obs.recorder import Recorder, resolve_recorder
from ..services.tls import Certificate, CertificateStore

TLS_SCAN_CAMPAIGN = "tls-scan"


@dataclass(frozen=True)
class ScanObservation:
    """One TLS endpoint observed by the scanner."""

    prefix_id: int
    origin_asn: int
    certificate: Certificate


@dataclass
class OrgFootprint:
    """Inferred serving infrastructure of one certificate organisation."""

    organization: str
    home_asn: int
    onnet_prefixes: List[int] = field(default_factory=list)
    offnet_prefixes: List[int] = field(default_factory=list)
    offnet_asns: "set[int]" = field(default_factory=set)

    @property
    def total_prefixes(self) -> int:
        return len(self.onnet_prefixes) + len(self.offnet_prefixes)


@dataclass
class TlsScanResult:
    """Raw observations plus the derived per-organisation footprints."""

    observations: List[ScanObservation]
    footprints: Dict[str, OrgFootprint]

    def footprint_of(self, organization: str) -> OrgFootprint:
        try:
            return self.footprints[organization]
        except KeyError:
            raise MeasurementError(
                f"no TLS footprint observed for {organization!r}") from None

    def organizations(self) -> List[str]:
        return sorted(self.footprints)

    def serving_prefixes(self) -> List[int]:
        return [obs.prefix_id for obs in self.observations]


class TlsScanner:
    """Internet-wide TLS scan over the routable prefix list.

    With an active :class:`FaultContext`, scan shards churn away
    (``vantage_churn``): the prefixes a churned shard was responsible for
    go unscanned, thinning every organisation's observed footprint.
    """

    def __init__(self, certstore: CertificateStore,
                 prefix_table: PrefixTable,
                 min_footprint_prefixes: int = 2,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        self._certstore = certstore
        self._prefixes = prefix_table
        self._min_footprint = min_footprint_prefixes
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)

    def run(self, prefix_ids: Optional[np.ndarray] = None) -> TlsScanResult:
        """Scan the given prefixes (default: the whole routing table)."""
        with self._recorder.span(f"measure.{TLS_SCAN_CAMPAIGN}"):
            return self._run(prefix_ids)

    def _run(self, prefix_ids: Optional[np.ndarray]) -> TlsScanResult:
        if prefix_ids is None:
            pids = range(len(self._prefixes))
        else:
            pids = [int(p) for p in prefix_ids]
        scope = self._faults.campaign(TLS_SCAN_CAMPAIGN)
        if scope.active(FaultKind.VANTAGE_CHURN):
            pids = list(pids)
            scanned = scope.survive_mask(FaultKind.VANTAGE_CHURN,
                                         len(pids))
            pids = [pid for pid, ok in zip(pids, scanned) if ok]
        self._recorder.count(
            f"measure.{TLS_SCAN_CAMPAIGN}.prefixes_scanned", len(pids))
        observations: List[ScanObservation] = []
        for pid in pids:
            cert = self._certstore.cert_for_prefix(pid)
            if cert is None:
                continue
            observations.append(ScanObservation(
                prefix_id=pid,
                origin_asn=self._prefixes.asn_of(pid),
                certificate=cert))
        footprints = self._derive_footprints(observations)
        rec = self._recorder
        rec.count(f"measure.{TLS_SCAN_CAMPAIGN}.certs_observed",
                  len(observations))
        rec.count(f"measure.{TLS_SCAN_CAMPAIGN}.orgs_identified",
                  len(footprints))
        return TlsScanResult(
            observations=observations,
            footprints=footprints)

    def _derive_footprints(self, observations: List[ScanObservation]
                           ) -> Dict[str, OrgFootprint]:
        by_org: Dict[str, List[ScanObservation]] = {}
        for obs in observations:
            by_org.setdefault(obs.certificate.organization, []).append(obs)
        footprints: Dict[str, OrgFootprint] = {}
        for org, group in by_org.items():
            if len(group) < self._min_footprint:
                continue
            counts: Dict[int, int] = {}
            for obs in group:
                counts[obs.origin_asn] = counts.get(obs.origin_asn, 0) + 1
            home_asn = max(sorted(counts), key=lambda a: counts[a])
            footprint = OrgFootprint(organization=org, home_asn=home_asn)
            for obs in group:
                if obs.origin_asn == home_asn:
                    footprint.onnet_prefixes.append(obs.prefix_id)
                else:
                    footprint.offnet_prefixes.append(obs.prefix_id)
                    footprint.offnet_asns.add(obs.origin_asn)
            footprints[org] = footprint
        return footprints
