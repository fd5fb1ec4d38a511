"""Reverse traceroute and path asymmetry (§3.3.2, [36]).

"Measuring out from cloud VMs uncovers most peering links between the
cloud and users [7], and Reverse Traceroute can measure reverse paths
[36]."

Forward traceroute shows the path *from* a vantage point; the path back
is generally different (valley-free routing is not symmetric), and no
amount of forward probing reveals it. Reverse Traceroute measures it with
record-route/spoofing tricks from a controlled host. Here the primitive
returns the true reverse AS path, and :func:`asymmetry_study` quantifies
how often forward != reverse — the measurement gap the technique closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.routing import BgpSimulator
from ..obs.recorder import Recorder, resolve_recorder
from .atlas import VantagePoint

REVERSE_TRACEROUTE_CAMPAIGN = "reverse-traceroute"


@dataclass(frozen=True, slots=True)
class PathPair:
    """Forward and reverse AS paths between a vantage point and an AS."""

    vp_asn: int
    remote_asn: int
    forward: Optional[Tuple[int, ...]]   # vp -> remote
    reverse: Optional[Tuple[int, ...]]   # remote -> vp

    @property
    def measurable(self) -> bool:
        return self.forward is not None and self.reverse is not None

    @property
    def symmetric(self) -> bool:
        """True iff the reverse path is the forward path reversed."""
        if not self.measurable:
            return False
        return tuple(reversed(self.reverse)) == self.forward


class ReverseTraceroute:
    """Reverse-path measurement from a controlled vantage point.

    Requires control of the vantage host (to stamp and receive
    record-route probes), like the real system; usable from any Atlas VP.
    """

    def __init__(self, bgp: BgpSimulator,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        self._bgp = bgp
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)

    def measure(self, vp: VantagePoint, remote_asn: int) -> PathPair:
        """Both directions between the VP's AS and a remote AS."""
        scope = self._faults.campaign(REVERSE_TRACEROUTE_CAMPAIGN)
        if scope.active(FaultKind.PROBE_LOSS) \
                and not scope.survive(FaultKind.PROBE_LOSS):
            # Record-route probes never came back; the pair is
            # unmeasurable, like a filtered reverse hop in reality.
            return PathPair(vp_asn=vp.asn, remote_asn=remote_asn,
                            forward=None, reverse=None)
        return PathPair(
            vp_asn=vp.asn, remote_asn=remote_asn,
            forward=self._bgp.path(vp.asn, remote_asn),
            reverse=self._bgp.path(remote_asn, vp.asn))

    def measure_many(self, vp: VantagePoint,
                     remote_asns: Sequence[int]) -> List[PathPair]:
        """Measure many remotes: one bulk reverse-table lookup for the
        shared VP destination, per-destination forward lookups."""
        if not remote_asns:
            raise MeasurementError("no remote ASes given")
        with self._recorder.span(
                f"measure.{REVERSE_TRACEROUTE_CAMPAIGN}"):
            remotes = [asn for asn in remote_asns if asn != vp.asn]
            forward = self._bgp.paths_from(vp.asn, remotes)
            reverse = self._bgp.routes_to([vp.asn]).paths_for(remotes)
            scope = self._faults.campaign(REVERSE_TRACEROUTE_CAMPAIGN)
            if scope.active(FaultKind.PROBE_LOSS):
                measured = scope.survive_mask(FaultKind.PROBE_LOSS,
                                              len(remotes))
                pairs = [PathPair(vp_asn=vp.asn, remote_asn=asn,
                                  forward=forward[asn] if ok else None,
                                  reverse=reverse[asn] if ok else None)
                         for asn, ok in zip(remotes, measured)]
            else:
                pairs = [PathPair(vp_asn=vp.asn, remote_asn=asn,
                                  forward=forward[asn],
                                  reverse=reverse[asn])
                         for asn in remotes]
            rec = self._recorder
            rec.count(f"measure.{REVERSE_TRACEROUTE_CAMPAIGN}."
                      "pairs_measured", len(pairs))
            rec.count(f"measure.{REVERSE_TRACEROUTE_CAMPAIGN}.pairs_lost",
                      sum(1 for p in pairs if not p.measurable))
            return pairs


@dataclass
class AsymmetryStudy:
    """How asymmetric the measured path corpus is."""

    pairs_measured: int
    symmetric_fraction: float
    mean_length_difference: float   # |len(fwd) - len(rev)| in hops

    @property
    def asymmetric_fraction(self) -> float:
        return 1.0 - self.symmetric_fraction


def asymmetry_study(pairs: Sequence[PathPair]) -> AsymmetryStudy:
    """Quantify forward/reverse divergence over measured pairs."""
    measurable = [p for p in pairs if p.measurable]
    if not measurable:
        raise MeasurementError("no measurable pairs")
    symmetric = sum(1 for p in measurable if p.symmetric)
    length_diffs = [abs(len(p.forward) - len(p.reverse))
                    for p in measurable]
    return AsymmetryStudy(
        pairs_measured=len(measurable),
        symmetric_fraction=symmetric / len(measurable),
        mean_length_difference=sum(length_diffs) / len(length_diffs))
