"""Approach 2 of §3.1.2: crawling root DNS logs for Chromium probes.

"Chromium browsers use DNS probes to detect DNS interception ... the
queries go to a DNS root server. ... Since most queries to the root DNS
are from recursive resolvers (rather than clients), crawling root DNS logs
gave an indicator of activity by recursive resolver. With the assumption
that most users are in the same AS as their recursive resolvers, crawling
root DNS logs helped us identify the presence of Internet clients in ASes
representing 60% of Microsoft CDN traffic."

The crawler reads the usable roots' logs, filters Chromium-probe entries,
discards known public resolvers (whose clients could be anywhere), and
aggregates query volume per resolver AS. Known limitations are faithfully
reproduced:

* AS granularity only (clients assumed co-located with their resolver);
* networks whose users predominantly use public DNS are invisible;
* anonymised roots contribute nothing;
* a minimum-volume threshold suppresses noise entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import MeasurementError
from ..faults import CampaignFaultScope, FaultContext, FaultKind
from ..obs.recorder import Recorder, resolve_recorder
from ..par import CampaignExecutor
from ..services.dnsinfra import RootLogArchive

ROOTLOG_CAMPAIGN = "root-logs"


@dataclass
class RootLogCrawlResult:
    """Per-AS Chromium-probe volume, from usable roots only."""

    volume_by_as: Dict[int, float]
    roots_crawled: int
    roots_total: int
    public_resolver_volume: float    # visible but unattributable
    min_query_threshold: float
    # Usable roots whose feed was truncated/withdrawn during the crawl
    # (fault injection); 0 on a clean crawl.
    roots_truncated: int = 0

    @property
    def delivered_anything(self) -> bool:
        """Whether the crawl produced a usable per-AS signal at all."""
        return self.roots_crawled > 0 and bool(self.volume_by_as)

    def detected_asns(self) -> "set[int]":
        """ASes whose resolvers show enough Chromium-probe volume."""
        return {asn for asn, vol in self.volume_by_as.items()
                if vol >= self.min_query_threshold}

    def relative_activity(self) -> Dict[int, float]:
        """Per-AS activity proxy (normalised to sum to 1).

        "The number of Chromium queries seen at the DNS roots is likely
        roughly proportional to the number of Chromium clients behind a
        recursive resolver" (§3.1.3).
        """
        detected = {asn: vol for asn, vol in self.volume_by_as.items()
                    if vol >= self.min_query_threshold}
        total = sum(detected.values())
        if total <= 0:
            return {}
        return {asn: vol / total for asn, vol in detected.items()}


def _crawl_shard(payload: Tuple["RootLogCrawler", List[str]], shard: int,
                 scope: CampaignFaultScope
                 ) -> Tuple[Dict[int, float], float, bool]:
    """Crawl one usable root's log (one root per shard)."""
    crawler, letters = payload
    letter = letters[shard]
    if scope.active(FaultKind.ROOTLOG_TRUNCATION) \
            and not scope.survive(FaultKind.ROOTLOG_TRUNCATION):
        # This root's feed is truncated for the whole crawl window;
        # re-fetches (retries) already failed.
        return {}, 0.0, True
    volume: Dict[int, float] = {}
    public_volume = 0.0
    for entry in crawler._archive.entries_for(letter):
        if entry.is_public_resolver:
            # 8.8.8.8-style resolvers: the clients behind them are not
            # in the resolver's AS; volume is unattributable.
            public_volume += entry.query_count
            continue
        volume[entry.resolver_asn] = (
            volume.get(entry.resolver_asn, 0.0) + entry.query_count)
    return volume, public_volume, False


class RootLogCrawler:
    """Crawls whatever root logs are publicly usable.

    Each usable root is its own shard (truncation draws bind to the
    root, per-root subtotals merged in root-letter order), so results are
    bit-identical for any worker count of the optional ``executor``.
    Without one the shards run inline, exactly as the builder runs them
    at ``workers=1``.
    """

    def __init__(self, archive: RootLogArchive,
                 min_query_threshold: float = 50.0,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None,
                 executor: Optional[CampaignExecutor] = None) -> None:
        if min_query_threshold < 0:
            raise MeasurementError("threshold must be non-negative")
        self._archive = archive
        self._threshold = min_query_threshold
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)
        self._executor = executor

    def run(self) -> RootLogCrawlResult:
        with self._recorder.span(f"measure.{ROOTLOG_CAMPAIGN}"):
            return self._run()

    def _run(self) -> RootLogCrawlResult:
        letters = [root.letter for root in self._archive.roots
                   if root.logs_usable]
        rec = self._recorder
        executor = self._executor or CampaignExecutor(recorder=rec)
        shards = executor.run_campaign(_crawl_shard, (self, letters),
                                       len(letters), ROOTLOG_CAMPAIGN,
                                       self._faults)
        volume: Dict[int, float] = {}
        public_volume = 0.0
        crawled = 0
        truncated = 0
        for root_volume, root_public, was_truncated in shards:
            if was_truncated:
                truncated += 1
            else:
                crawled += 1
                public_volume += root_public
                for asn, count in root_volume.items():
                    volume[asn] = volume.get(asn, 0.0) + count
        rec.count(f"measure.{ROOTLOG_CAMPAIGN}.roots_crawled", crawled)
        rec.count(f"measure.{ROOTLOG_CAMPAIGN}.roots_truncated", truncated)
        rec.count(f"measure.{ROOTLOG_CAMPAIGN}.resolver_ases_seen",
                  len(volume))
        return RootLogCrawlResult(
            volume_by_as=volume,
            roots_crawled=crawled,
            roots_total=len(self._archive.roots),
            public_resolver_volume=public_volume,
            min_query_threshold=self._threshold,
            roots_truncated=truncated,
        )
