"""Uncertainty quantification for the users component.

The paper asks for *relative* activity levels; a responsible map should
say how certain those levels are. Probe hits are binomial draws, so the
per-AS hit totals carry quantifiable sampling noise. The bootstrap here
resamples per-(domain, prefix) hit counts and rebuilds the per-AS
activity shares, yielding confidence intervals and a
distinguishability test for AS pairs ("is prefix1 really ~2x prefix2" —
the §2 use-case phrasing — or is that within noise?).

Beyond sampling noise there is *coverage* uncertainty: a degraded build
(fault injection, failed campaigns) delivers a map whose components
simply saw less of the Internet. :func:`coverage_caveats` turns the
map's per-component coverage records into explicit caveats an analysis
should carry alongside the confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..measure.cache_probing import CacheProbingResult
from ..net.prefixes import PrefixTable
from .traffic_map import InternetTrafficMap


@dataclass
class ActivityInterval:
    """Bootstrap confidence interval on one AS's activity share."""

    asn: int
    point: float
    low: float
    high: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass
class UncertaintyReport:
    """Per-AS intervals plus pairwise distinguishability."""

    intervals: Dict[int, ActivityInterval]
    replicates: int
    confidence: float

    def interval(self, asn: int) -> ActivityInterval:
        try:
            return self.intervals[asn]
        except KeyError:
            raise ValidationError(f"no interval for AS{asn}") from None

    def distinguishable(self, a: int, b: int) -> bool:
        """Whether two ASes' activities differ beyond sampling noise
        (disjoint confidence intervals)."""
        ia, ib = self.interval(a), self.interval(b)
        return ia.low > ib.high or ib.low > ia.high


@dataclass(frozen=True)
class CoverageCaveat:
    """One component's coverage shortfall, stated for the analyst."""

    component: str
    coverage: float
    missing_techniques: Tuple[str, ...]
    detail: str


def coverage_caveats(itm: InternetTrafficMap) -> List[CoverageCaveat]:
    """Caveats for every degraded component of a map (empty when clean).

    Reads the per-component :class:`ComponentCoverage` records the
    builder attaches; maps built before coverage reporting (or
    deserialised from old artefacts) yield no caveats.
    """
    caveats: List[CoverageCaveat] = []
    for name in sorted(itm.coverage):
        record = itm.coverage[name]
        if not record.degraded:
            continue
        missing = tuple(sorted(set(record.techniques_intended)
                               - set(record.techniques_delivered)))
        parts = [f"{name} component delivered "
                 f"{record.coverage:.0%} of its measurement units"]
        if missing:
            parts.append(f"techniques lost: {', '.join(missing)}")
        parts.extend(record.notes)
        caveats.append(CoverageCaveat(
            component=name,
            coverage=record.coverage,
            missing_techniques=missing,
            detail="; ".join(parts)))
    return caveats


def bootstrap_activity(result: CacheProbingResult,
                       prefix_table: PrefixTable,
                       replicates: int = 200,
                       confidence: float = 0.9,
                       rng: Optional[np.random.Generator] = None,
                       asns: Optional[Sequence[int]] = None
                       ) -> UncertaintyReport:
    """Bootstrap per-AS activity shares from a probing campaign.

    Each replicate redraws every (domain, prefix) hit count from
    Binomial(rounds, p_hat) with p_hat the observed hit fraction — the
    parametric bootstrap matching the campaign's sampling process.
    """
    if not 0.5 < confidence < 1.0:
        raise ValidationError("confidence must be in (0.5, 1)")
    if replicates < 10:
        raise ValidationError("need at least 10 replicates")
    rng = rng or np.random.default_rng(0)

    p_hat = result.hits / float(result.rounds)
    asn_of_col = prefix_table.asn_array[result.prefix_ids]
    keep = (np.isin(asn_of_col, np.asarray(list(asns), dtype=np.int64))
            if asns is not None else np.ones(len(asn_of_col), dtype=bool))
    unique_asns, inverse = np.unique(asn_of_col[keep],
                                     return_inverse=True)
    p_kept = p_hat[:, keep]

    point_hits = result.hits[:, keep].sum(axis=0).astype(float)
    point_by_as = np.bincount(inverse, weights=point_hits,
                              minlength=len(unique_asns))
    point_total = point_by_as.sum()
    if point_total <= 0:
        raise ValidationError("no hits to bootstrap")

    samples = np.empty((replicates, len(unique_asns)))
    for r in range(replicates):
        redraw = rng.binomial(result.rounds, p_kept).sum(axis=0)
        by_as = np.bincount(inverse, weights=redraw.astype(float),
                            minlength=len(unique_asns))
        total = by_as.sum()
        samples[r] = by_as / total if total > 0 else 0.0

    alpha = (1.0 - confidence) / 2.0
    lows = np.quantile(samples, alpha, axis=0)
    highs = np.quantile(samples, 1.0 - alpha, axis=0)
    intervals = {
        int(asn): ActivityInterval(
            asn=int(asn),
            point=float(point_by_as[i] / point_total),
            low=float(lows[i]), high=float(highs[i]))
        for i, asn in enumerate(unique_asns)}
    return UncertaintyReport(intervals=intervals, replicates=replicates,
                             confidence=confidence)
