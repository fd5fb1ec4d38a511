"""Approach 1 of §3.1.2: probing public DNS caches with ECS.

"We issued non-recursive queries for popular domains to Google Public DNS
... we used the EDNS0 Client Subnet (ECS) option, which enables specifying
a client prefix, causing Google Public DNS to only return a result if a
client from that prefix recently queried for the domain. By iterating over
all routable prefixes, our methods identified client activity in prefixes
representing 95% of Microsoft CDN traffic."

The campaign iterates over routable /24s and the domains of the popularity
top list, issuing ``rounds_per_day`` probe rounds. Each probe is a
Bernoulli draw from the cache-occupancy oracle — statistically identical to
issuing the individual non-recursive ECS queries, just vectorised.

Outputs:

* per-(domain, prefix) hit counts — the raw campaign data;
* the detected-prefix set (any hit) — the users component's coverage;
* per-AS hit totals/rates — the relative-activity signal of §3.1.3 and
  Figure 2;
* per-GDNS-PoP detected-prefix counts — Figure 1a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import CampaignFaultScope, FaultContext, FaultKind
from ..net.prefixes import PrefixTable
from ..obs.recorder import Recorder, resolve_recorder
from ..par import CampaignExecutor, ShardPlan, ShardStreams
from ..services.catalog import Service
from ..services.dnsinfra import (CacheOracle, GoogleDnsModel,
                                 TemporalCacheOracle)

CACHE_PROBING_CAMPAIGN = "cache-probing"

# Prefixes per shard on the sharded execution path. Part of the
# determinism contract: randomness binds to shards, so changing this
# constant changes campaign output (see docs/parallelism.md).
CACHE_PROBE_SHARD_SIZE = 8_192


@dataclass
class CacheProbingResult:
    """Everything a cache-probing campaign produces."""

    prefix_ids: np.ndarray            # probed prefixes (public routing table)
    service_sids: "tuple[int, ...]"   # probed domains (by service id)
    hits: np.ndarray                  # (domains, prefixes) hit counts
    rounds: int
    pop_of_prefix: np.ndarray         # which GDNS PoP answered each prefix

    @property
    def probes_per_prefix(self) -> int:
        return self.rounds * len(self.service_sids)

    def hits_per_prefix(self) -> np.ndarray:
        """Total hits per probed prefix across all domains."""
        return self.hits.sum(axis=0)

    def detected_mask(self) -> np.ndarray:
        """True where at least one probe hit — "prefix hosts clients"."""
        return self.hits_per_prefix() > 0

    def detected_prefixes(self) -> np.ndarray:
        """Prefix ids identified as hosting client activity."""
        return self.prefix_ids[self.detected_mask()]

    def detected_asns(self, prefix_table: PrefixTable) -> "set[int]":
        asns = prefix_table.asn_array[self.detected_prefixes()]
        return set(int(a) for a in np.unique(asns))

    def detected_per_pop(self) -> Dict[int, int]:
        """Figure 1a: number of client prefixes detected per GDNS PoP."""
        mask = self.detected_mask()
        counts: Dict[int, int] = {}
        for pop in np.unique(self.pop_of_prefix):
            counts[int(pop)] = int(
                (mask & (self.pop_of_prefix == pop)).sum())
        return counts

    def hit_counts_by_as(self, prefix_table: PrefixTable) -> Dict[int, float]:
        """Total cache hits per AS — the relative-activity signal.

        In the linear (unsaturated) regime a prefix's expected hits are
        proportional to its query rate, so per-AS hit totals are
        proportional to per-AS client activity (§3.1.3, Figure 2).
        """
        per_prefix = np.zeros(len(prefix_table))
        per_prefix[self.prefix_ids] = self.hits_per_prefix()
        return prefix_table.group_by_as(per_prefix)

    def hit_rate_by_as(self, prefix_table: PrefixTable) -> Dict[int, float]:
        """Hits per probe per AS (the paper's "cache hit rate")."""
        counts = self.hit_counts_by_as(prefix_table)
        probed = np.zeros(len(prefix_table))
        probed[self.prefix_ids] = self.probes_per_prefix
        probes = prefix_table.group_by_as(probed)
        return {asn: counts.get(asn, 0.0) / probes[asn]
                for asn in probes if probes[asn] > 0}

    def per_service_detected(self, sid: int) -> np.ndarray:
        """Prefixes with hits for one domain — per-service client sets."""
        if sid not in self.service_sids:
            raise MeasurementError(f"service {sid} was not probed")
        row = self.service_sids.index(sid)
        return self.prefix_ids[self.hits[row] > 0]


@dataclass
class TimedProbingResult:
    """Hourly probing output: hit counts per (hour, prefix)."""

    prefix_ids: np.ndarray
    probe_hours_utc: "tuple[float, ...]"
    hits_by_hour: np.ndarray        # (hours, prefixes)
    probes_per_slot: int            # domains x rounds per hour slot

    def hourly_profile_for(self, pids: np.ndarray) -> np.ndarray:
        """Summed hit counts per probe hour over a set of prefix ids."""
        columns = np.isin(self.prefix_ids, np.asarray(pids, dtype=int))
        return self.hits_by_hour[:, columns].sum(axis=1)


class TimedCacheProbing:
    """Time-sliced probing: one round per hour slot, around the clock.

    Approaches Table 1's desired *hourly* precision: because cache
    occupancy tracks the instantaneous query rate, the per-slot hit
    counts of a region trace its diurnal activity curve, revealing *when*
    a prefix population is active, not just that it is.
    """

    def __init__(self, oracle: TemporalCacheOracle, gdns: GoogleDnsModel,
                 services: Sequence[Service], prefix_ids: np.ndarray,
                 probe_hours_utc: Sequence[float],
                 rounds_per_slot: int, rng: np.random.Generator) -> None:
        if not probe_hours_utc:
            raise MeasurementError("need at least one probe hour")
        if rounds_per_slot < 1:
            raise MeasurementError("rounds_per_slot must be >= 1")
        if not services:
            raise MeasurementError("no domains to probe")
        self._oracle = oracle
        self._gdns = gdns
        self._services = list(services)
        self._prefix_ids = np.asarray(prefix_ids, dtype=int)
        self._hours = tuple(float(h) for h in probe_hours_utc)
        self._rounds = rounds_per_slot
        self._rng = rng

    def run(self) -> TimedProbingResult:
        sids = [s.sid for s in self._services]
        hits = np.zeros((len(self._hours), len(self._prefix_ids)),
                        dtype=np.int32)
        for row, hour in enumerate(self._hours):
            probabilities = self._oracle.hit_probability_matrix_at(
                sids, self._prefix_ids, hour * 3600.0)
            hits[row] = self._rng.binomial(
                self._rounds, probabilities).sum(axis=0)
        return TimedProbingResult(
            prefix_ids=self._prefix_ids,
            probe_hours_utc=self._hours,
            hits_by_hour=hits,
            probes_per_slot=self._rounds * len(sids))


def _probe_shard(campaign: "CacheProbingCampaign", shard: int,
                 scope: CampaignFaultScope
                 ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One prefix block of the probing sweep (runs in-process or in a
    pool worker). Pure function of (campaign inputs, shard index)."""
    lo, hi = campaign._shard_plan.bounds(shard)
    pids = campaign._prefix_ids[lo:hi]
    rng = campaign._streams.stream(shard)
    if scope.active(FaultKind.RESOLVER_TIMEOUT):
        answered = scope.survive_mask(FaultKind.RESOLVER_TIMEOUT, len(pids))
        pids = pids[answered]
    probabilities = campaign._oracle.hit_probability_matrix(
        campaign._sids, pids)
    probes_sent = campaign._rounds * int(np.prod(probabilities.shape))
    if scope.active(FaultKind.PROBE_LOSS):
        delivered = scope.thin_rounds(FaultKind.PROBE_LOSS,
                                      campaign._rounds,
                                      probabilities.shape)
        delivered_total = int(delivered.sum())
        hits = rng.binomial(delivered, probabilities)
    else:
        delivered_total = probes_sent
        hits = rng.binomial(campaign._rounds, probabilities)
    return pids, hits, probes_sent, delivered_total


class CacheProbingCampaign:
    """One day of ECS probing against the GDNS cache oracle.

    With an active :class:`FaultContext` the campaign degrades the way a
    real public-resolver sweep does: prefixes whose non-recursive queries
    keep timing out are dropped from the result entirely
    (``resolver_timeout``), and individual probe rounds are lost in
    flight (``probe_loss``), thinning the per-cell trial counts. Both
    apply the plan's retry policy before giving a unit up.

    The sweep is decomposed into fixed-size prefix shards, each drawing
    from its own substream of ``streams``; results are bit-identical for
    any worker count of the optional ``executor``. Without one the shards
    run inline, exactly as the builder runs them at ``workers=1``.
    """

    def __init__(self, oracle: CacheOracle, gdns: GoogleDnsModel,
                 services: Sequence[Service], prefix_ids: np.ndarray,
                 rounds_per_day: int, streams: ShardStreams,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None,
                 executor: Optional[CampaignExecutor] = None) -> None:
        if rounds_per_day < 1:
            raise MeasurementError("need at least one probe round")
        if len(prefix_ids) == 0:
            raise MeasurementError("no prefixes to probe")
        if not services:
            raise MeasurementError("no domains to probe")
        self._oracle = oracle
        self._gdns = gdns
        self._sids = [s.sid for s in services]
        self._prefix_ids = np.asarray(prefix_ids, dtype=int)
        self._rounds = rounds_per_day
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)
        self._streams = streams
        self._executor = executor
        self._shard_plan = ShardPlan(len(self._prefix_ids),
                                     CACHE_PROBE_SHARD_SIZE)

    def run(self) -> CacheProbingResult:
        """Issue all probes (vectorised Bernoulli sampling)."""
        with self._recorder.span(f"measure.{CACHE_PROBING_CAMPAIGN}"):
            return self._run()

    def _run(self) -> CacheProbingResult:
        rec = self._recorder
        executor = self._executor or CampaignExecutor(recorder=rec)
        shards = executor.run_campaign(
            _probe_shard, self, self._shard_plan.n_shards,
            CACHE_PROBING_CAMPAIGN, self._faults)
        probes_sent = 0
        delivered_total = 0
        pid_parts: List[np.ndarray] = []
        hit_parts: List[np.ndarray] = []
        for pids, hits, sent, delivered in shards:
            pid_parts.append(pids)
            hit_parts.append(hits)
            probes_sent += sent
            delivered_total += delivered
        pids = np.concatenate(pid_parts)
        if pids.size == 0:
            raise MeasurementError(
                "every probed prefix timed out at the resolver")
        hits = np.concatenate(hit_parts, axis=1)
        rec.count(f"measure.{CACHE_PROBING_CAMPAIGN}.prefixes_probed",
                  len(pids))
        rec.count(f"measure.{CACHE_PROBING_CAMPAIGN}.probes_sent",
                  probes_sent)
        rec.count(f"measure.{CACHE_PROBING_CAMPAIGN}.probes_delivered",
                  delivered_total)
        rec.count(f"measure.{CACHE_PROBING_CAMPAIGN}.probes_dropped",
                  probes_sent - delivered_total)
        rec.count(f"measure.{CACHE_PROBING_CAMPAIGN}.cache_hits",
                  int(hits.sum()))
        return CacheProbingResult(
            prefix_ids=pids,
            service_sids=tuple(self._sids),
            hits=hits,
            rounds=self._rounds,
            pop_of_prefix=self._gdns.pop_of_prefix[pids],
        )
