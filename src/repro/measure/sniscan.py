"""Approach 2 of §3.2.2: SNI scans for per-service footprints.

"We propose using Internet-wide SNI (TLS + hostname) scans to uncover the
footprint of popular services by identifying which CDN or cloud IP
addresses have the services' TLS certificates."

Given a list of candidate serving prefixes (e.g. from a prior TLS scan),
the scanner offers each service's hostname in the SNI and records which
endpoints present a certificate covering it. The result maps every service
domain to the set of (prefix, AS) locations serving it — including
third-party services exposed on CDN/cloud infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.prefixes import PrefixTable
from ..obs.recorder import Recorder, resolve_recorder
from ..services.tls import CertificateStore

SNI_SCAN_CAMPAIGN = "sni-scan"


@dataclass
class SniScanResult:
    """domain -> endpoints presenting a matching certificate."""

    endpoints_by_domain: Dict[str, List[Tuple[int, int]]]  # (pid, asn)

    def footprint(self, domain: str) -> List[Tuple[int, int]]:
        return list(self.endpoints_by_domain.get(domain, []))

    def asns_serving(self, domain: str) -> "set[int]":
        return {asn for __, asn in self.endpoints_by_domain.get(domain, [])}

    def domains_found(self) -> List[str]:
        return sorted(d for d, eps in self.endpoints_by_domain.items()
                      if eps)

    def domains_missing(self) -> List[str]:
        return sorted(d for d, eps in self.endpoints_by_domain.items()
                      if not eps)


class SniScanner:
    """SNI scan of candidate endpoints for a set of service hostnames.

    With an active :class:`FaultContext`, endpoints that keep
    rate-limiting the scanner's handshakes (``sni_rate_limit``) drop out
    of the scan — their certificates, and whatever service coverage they
    would have proven, go unobserved.
    """

    def __init__(self, certstore: CertificateStore,
                 prefix_table: PrefixTable,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        self._certstore = certstore
        self._prefixes = prefix_table
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)

    def run(self, domains: Sequence[str],
            candidate_prefixes: Iterable[int]) -> SniScanResult:
        with self._recorder.span(f"measure.{SNI_SCAN_CAMPAIGN}"):
            return self._run(domains, candidate_prefixes)

    def _run(self, domains: Sequence[str],
             candidate_prefixes: Iterable[int]) -> SniScanResult:
        if not domains:
            raise MeasurementError("no SNI hostnames given")
        candidates = sorted(set(int(p) for p in candidate_prefixes))
        scope = self._faults.campaign(SNI_SCAN_CAMPAIGN)
        if scope.active(FaultKind.SNI_RATE_LIMIT):
            reachable = scope.survive_mask(FaultKind.SNI_RATE_LIMIT,
                                           len(candidates))
            candidates = [pid for pid, ok in zip(candidates, reachable)
                          if ok]
        result: Dict[str, List[Tuple[int, int]]] = {d: [] for d in domains}
        for pid in candidates:
            cert = self._certstore.cert_for_prefix(pid)
            if cert is None:
                continue
            asn = self._prefixes.asn_of(pid)
            for domain in domains:
                if cert.covers_domain(domain):
                    result[domain].append((pid, asn))
        rec = self._recorder
        rec.count(f"measure.{SNI_SCAN_CAMPAIGN}.endpoints_scanned",
                  len(candidates))
        rec.count(f"measure.{SNI_SCAN_CAMPAIGN}.footprints_matched",
                  sum(len(eps) for eps in result.values()))
        return SniScanResult(endpoints_by_domain=result)
