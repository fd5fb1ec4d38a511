"""RIPE-Atlas-like measurement platform: distributed traceroute and ping.

Provides the distributed vantage points the paper repeatedly leans on:
§3.3.1 ("when we tried to predict paths from RIPE Atlas probes to root DNS
servers, more than half could not be predicted due to missing links") and
§3.2.2's constraint-based localisation.

Vantage points sit in a mixed set of networks (research nets, eyeballs,
stubs). ``traceroute`` returns the true AS path the simulated Internet
routes — what a real traceroute would reveal after IP-to-AS mapping.
``ping`` returns a speed-of-light-in-fiber RTT plus noise; the platform
computes the true geometry internally and exposes only the latency, like a
real network would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.ases import ASRegistry, ASType
from ..net.geography import City, haversine_km
from ..net.prefixes import PrefixTable
from ..net.routing import BgpSimulator
from ..obs.recorder import Recorder, resolve_recorder

ATLAS_CAMPAIGN = "atlas-platform"

# RTT model: ~200 km/ms propagation one way -> RTT ms = km / 100, plus a
# queueing/processing floor and multiplicative circuitousness noise.
KM_PER_RTT_MS = 100.0
RTT_FLOOR_MS = 2.0


@dataclass(frozen=True, slots=True)
class VantagePoint:
    """One measurement probe."""

    vp_id: int
    asn: int
    city: City


@dataclass(frozen=True, slots=True)
class TracerouteResult:
    """AS-level traceroute output (after IP-to-AS mapping)."""

    vp: VantagePoint
    dst_asn: int
    as_path: Optional[Tuple[int, ...]]   # None if unreachable

    @property
    def reached(self) -> bool:
        return self.as_path is not None


class AtlasPlatform:
    """Vantage-point selection plus traceroute/ping primitives.

    With an active :class:`FaultContext`, hosted probes churn away
    (``vantage_churn``) — the platform keeps only the vantage points
    that stay connected for the measurement window, as hosted-probe
    fleets really do.
    """

    def __init__(self, registry: ASRegistry, bgp: BgpSimulator,
                 prefix_table: PrefixTable,
                 rng: np.random.Generator, vp_count: int = 120,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        if vp_count < 1:
            raise MeasurementError("need at least one vantage point")
        self._registry = registry
        self._bgp = bgp
        self._prefixes = prefix_table
        self._rng = rng
        self._recorder = resolve_recorder(recorder)
        with self._recorder.span(f"measure.{ATLAS_CAMPAIGN}"):
            self.vantage_points = self._place_vps(vp_count)
            scope = (faults or FaultContext.null()).campaign(ATLAS_CAMPAIGN)
            if scope.active(FaultKind.VANTAGE_CHURN):
                alive = scope.survive_mask(FaultKind.VANTAGE_CHURN,
                                           len(self.vantage_points))
                self.vantage_points = [
                    vp for vp, ok in zip(self.vantage_points, alive) if ok]
                if not self.vantage_points:
                    raise MeasurementError(
                        "every vantage point churned away mid-campaign")
            self._recorder.count(
                f"measure.{ATLAS_CAMPAIGN}.vantage_points",
                len(self.vantage_points))

    def _place_vps(self, count: int) -> List[VantagePoint]:
        """Probes live mostly in eyeballs, plus research nets and stubs —
        roughly the RIPE Atlas host demographics."""
        eyeballs = self._registry.of_type(ASType.EYEBALL)
        research = self._registry.of_type(ASType.RESEARCH)
        stubs = self._registry.of_type(ASType.STUB)
        pools = [(eyeballs, 0.6), (research, 0.2), (stubs, 0.2)]
        vps: List[VantagePoint] = []
        for pool, share in pools:
            if not pool:
                continue
            take = max(1, int(count * share))
            idx = self._rng.choice(len(pool), size=min(take, len(pool)),
                                   replace=False)
            for i in sorted(int(j) for j in idx):
                asys = pool[i]
                vps.append(VantagePoint(
                    vp_id=len(vps), asn=asys.asn, city=asys.home_city))
        return vps[:count]

    # -- primitives ------------------------------------------------------------

    def traceroute(self, vp: VantagePoint, dst_asn: int) -> TracerouteResult:
        """AS path from the vantage point to a destination AS."""
        path = self._bgp.path(vp.asn, dst_asn)
        return TracerouteResult(vp=vp, dst_asn=dst_asn, as_path=path)

    def traceroute_all(self, dst_asn: int) -> List[TracerouteResult]:
        """Traceroute from every vantage point (one bulk path lookup)."""
        with self._recorder.span(f"measure.{ATLAS_CAMPAIGN}"):
            paths = self._bgp.routes_to([dst_asn]).paths_for(
                vp.asn for vp in self.vantage_points)
            results = [TracerouteResult(vp=vp, dst_asn=dst_asn,
                                        as_path=paths[vp.asn])
                       for vp in self.vantage_points]
        rec = self._recorder
        rec.count(f"measure.{ATLAS_CAMPAIGN}.traceroutes_sent",
                  len(results))
        rec.count(f"measure.{ATLAS_CAMPAIGN}.traceroutes_reached",
                  sum(1 for r in results if r.reached))
        return results

    def ping_rtt_ms(self, vp: VantagePoint, target_pid: int) -> float:
        """RTT to an address in a prefix. The platform resolves the true
        endpoint location internally; the caller sees only latency."""
        target_city = self._prefixes.city_of(target_pid)
        distance = haversine_km(vp.city.lat, vp.city.lon,
                                target_city.lat, target_city.lon)
        circuitousness = float(self._rng.lognormal(0.15, 0.12))
        return (RTT_FLOOR_MS + distance / KM_PER_RTT_MS * circuitousness
                + float(self._rng.exponential(1.0)))

    def ping_from_all(self, target_pid: int,
                      max_vps: Optional[int] = None
                      ) -> List[Tuple[VantagePoint, float]]:
        vps = self.vantage_points if max_vps is None else \
            self.vantage_points[:max_vps]
        return [(vp, self.ping_rtt_ms(vp, target_pid)) for vp in vps]
