"""Anycast catchment measurement, Verfploeter-style (§3.2.3).

"Another possibility may come from increased popularity of edge computing
platforms, such as Cloudflare's Workers [2], where CDN customers can
execute custom code on CDN PoPs. This may enable use of techniques that
infer per-PoP anycast catchments by probing out to the Internet [21]."

The campaign sends probes *from the anycast address* to targets across
the Internet; each reply routes back to whichever site the target's
network's BGP selects — the catchment. Coverage is limited to targets
that answer probes (ICMP-responsive), which the model samples per prefix.

This runs with the anycast operator's cooperation (or from rented edge
workers) — it needs no proprietary logs, only the ability to emit packets
from the anycast prefix, exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import CampaignFaultScope, FaultContext, FaultKind
from ..net.prefixes import PrefixTable
from ..obs.recorder import Recorder, resolve_recorder
from ..par import CampaignExecutor, ShardPlan, ShardStreams
from ..services.anycast import AnycastModel

CATCHMENT_CAMPAIGN = "catchment-probing"
DEFAULT_RESPONSE_RATE = 0.62   # share of probed /24s that answer ICMP

# Target prefixes per shard on the sharded path (determinism contract:
# response/loss draws bind to shards — see docs/parallelism.md).
CATCHMENT_SHARD_SIZE = 8_192


@dataclass
class CatchmentMeasurement:
    """Measured catchment: site id per responsive target prefix."""

    prefix_ids: np.ndarray          # targets probed
    site_of_prefix: np.ndarray      # measured site id, -1 = no response
    site_count: int

    def responsive_fraction(self) -> float:
        return float((self.site_of_prefix >= 0).mean())

    def catchment_sizes(self) -> Dict[int, int]:
        """Responsive prefixes per site — the per-PoP catchment weights."""
        sizes: Dict[int, int] = {}
        for site in self.site_of_prefix[self.site_of_prefix >= 0]:
            sizes[int(site)] = sizes.get(int(site), 0) + 1
        return sizes

    def measured_site(self, pid: int) -> Optional[int]:
        idx = np.searchsorted(self.prefix_ids, pid)
        if idx >= len(self.prefix_ids) or self.prefix_ids[idx] != pid:
            raise MeasurementError(f"prefix {pid} was not probed")
        site = int(self.site_of_prefix[idx])
        return site if site >= 0 else None


def _site_lookup(model: AnycastModel, asns: np.ndarray) -> np.ndarray:
    """Measured site per target, -1 where the AS has no catchment.

    Catchments are per-AS (BGP decides per network), so each distinct AS
    is resolved once and the answers broadcast back over the targets.
    """
    uniq, inverse = np.unique(asns, return_inverse=True)
    site_of_uniq = np.full(len(uniq), -1, dtype=np.int32)
    for j, asn in enumerate(uniq):
        result = model.catchment(int(asn))
        if result is not None:
            site_of_uniq[j] = result.site.site_id
    return site_of_uniq[inverse]


def _catchment_shard(payload: Tuple["VerfploeterCampaign", np.ndarray,
                                    ShardPlan],
                     shard: int, scope: CampaignFaultScope
                     ) -> Tuple[np.ndarray, int]:
    """Probe one block of sorted targets."""
    campaign, targets, plan = payload
    lo, hi = plan.bounds(shard)
    block = targets[lo:hi]
    rng = campaign._streams.stream(shard)
    responds = rng.random(len(block)) < campaign._response_rate
    if scope.active(FaultKind.PROBE_LOSS):
        responds &= scope.survive_mask(FaultKind.PROBE_LOSS, len(block))
    mapped = _site_lookup(campaign._model,
                          campaign._prefixes.asn_array[block])
    sites = np.where(responds, mapped, -1).astype(np.int32)
    return sites, int(responds.sum())


class VerfploeterCampaign:
    """Probe out from the anycast prefix; replies reveal catchments.

    With an active :class:`FaultContext`, outbound probes (or their
    replies) are lost in flight (``probe_loss``) on top of ordinary
    ICMP non-response, shrinking the measured catchments.

    The sorted target list is split into fixed-size shards, each drawing
    from its own substream of ``streams``; results are bit-identical for
    any worker count of the optional ``executor``. Without one the shards
    run inline, exactly as the builder runs them at ``workers=1``.
    """

    def __init__(self, model: AnycastModel, prefix_table: PrefixTable,
                 streams: ShardStreams,
                 response_rate: float = DEFAULT_RESPONSE_RATE,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None,
                 executor: Optional[CampaignExecutor] = None) -> None:
        if not 0.0 < response_rate <= 1.0:
            raise MeasurementError("response_rate must be in (0, 1]")
        self._model = model
        self._prefixes = prefix_table
        self._response_rate = response_rate
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)
        self._streams = streams
        self._executor = executor

    def run(self, target_pids: np.ndarray) -> CatchmentMeasurement:
        with self._recorder.span(f"measure.{CATCHMENT_CAMPAIGN}"):
            return self._run(target_pids)

    def _run(self, target_pids: np.ndarray) -> CatchmentMeasurement:
        targets = np.sort(np.asarray(target_pids, dtype=int))
        if len(targets) == 0:
            raise MeasurementError("no targets to probe")
        rec = self._recorder
        plan = ShardPlan(len(targets), CATCHMENT_SHARD_SIZE)
        executor = self._executor or CampaignExecutor(recorder=rec)
        shards = executor.run_campaign(
            _catchment_shard, (self, targets, plan), plan.n_shards,
            CATCHMENT_CAMPAIGN, self._faults)
        replies = sum(shard_replies for _, shard_replies in shards)
        sites = np.concatenate([part for part, _ in shards])
        rec.count(f"measure.{CATCHMENT_CAMPAIGN}.probes_sent",
                  len(targets))
        rec.count(f"measure.{CATCHMENT_CAMPAIGN}.replies_received",
                  replies)
        return CatchmentMeasurement(
            prefix_ids=targets, site_of_prefix=sites,
            site_count=len(self._model.sites))
