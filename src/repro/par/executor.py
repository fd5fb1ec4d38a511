"""Deterministic sharded campaign execution.

**Shards** are the units randomness binds to. Each campaign splits its
work into fixed-size shards (a per-campaign constant, e.g.
``CACHE_PROBE_SHARD_SIZE``), and every stochastic draw inside shard
``i`` comes from that shard's own substream (:meth:`ShardStreams.stream`)
and its own fault scope — never from a stream shared across shards.
Shard decomposition is a pure function of the input size, so a build is
reproducible shard by shard (docs/parallelism.md).

Shards run inline, in shard order, through two functions:
:func:`run_shards` is the loop itself, and :func:`run_campaign` adds the
per-shard fault hand-off every sharded campaign needs: each shard gets
its own fault scope, and the parent folds the shards' fault counters
back in shard order once the last shard has returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Tuple

import numpy as np

from ..obs.recorder import Recorder
from ..rand import substream

if TYPE_CHECKING:
    from ..faults import CampaignFaultScope, FaultContext

ShardFn = Callable[[object, int], object]
ScopedShardFn = Callable[[object, int, "CampaignFaultScope"], object]


def _run_scoped(job: Tuple[ScopedShardFn, object, "FaultContext", str],
                shard: int) -> Tuple[object, dict]:
    """Run one shard of a campaign under its own fault scope.

    The scope lives on a :meth:`FaultContext.shard_context` clone, so
    its draws bind to the shard label; its exported state travels back
    beside the shard's value.
    """
    fn, payload, faults, campaign = job
    scope = faults.shard_context(ShardStreams.label(shard)).campaign(
        campaign)
    return fn(payload, shard, scope), scope.export_state()


@dataclass(frozen=True)
class ShardPlan:
    """Fixed decomposition of ``n_items`` into ``shard_size`` blocks.

    The shard size is part of a campaign's determinism contract (like a
    format version): changing it changes which substream covers which
    item and therefore the campaign's output.
    """

    n_items: int
    shard_size: int

    def __post_init__(self) -> None:
        if self.n_items < 0:
            raise ValueError("n_items must be >= 0")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")

    @property
    def n_shards(self) -> int:
        return -(-self.n_items // self.shard_size) if self.n_items else 0

    def bounds(self, shard: int) -> Tuple[int, int]:
        """Half-open [lo, hi) item range covered by one shard."""
        if not 0 <= shard < self.n_shards:
            raise IndexError(f"shard {shard} out of range")
        lo = shard * self.shard_size
        return lo, min(lo + self.shard_size, self.n_items)


@dataclass(frozen=True)
class ShardStreams:
    """Per-shard substream factory for one campaign.

    Shard ``i`` of campaign ``names`` draws from
    ``substream(seed, *names, f"s{i}")`` — pairwise-independent streams
    (hash-derived child seeds) that depend only on the shard index.
    """

    seed: int
    names: Tuple[str, ...]

    def stream(self, shard: int) -> np.random.Generator:
        return substream(self.seed, *self.names, self.label(shard))

    @staticmethod
    def label(shard: int) -> str:
        return f"s{shard}"


def run_shards(fn: ShardFn, payload: object, n_shards: int, label: str,
               recorder: Recorder) -> List[object]:
    """Run ``fn(payload, shard)`` for every shard, in shard order.

    Counts ``par.<label>.shards`` and times the loop as the
    ``par.<label>`` span; ``fn`` must not mutate ``payload``.
    """
    recorder.count(f"par.{label}.shards", n_shards)
    if n_shards <= 0:
        return []
    with recorder.span(f"par.{label}"):
        return [fn(payload, shard) for shard in range(n_shards)]


def run_campaign(fn: ScopedShardFn, payload: object, n_shards: int,
                 campaign: str, faults: "FaultContext",
                 recorder: Recorder) -> List[object]:
    """Run ``fn(payload, shard, scope)`` for every shard of one
    fault-scoped campaign; ordered results.

    Each shard's ``scope`` is the ``campaign`` scope of its own
    shard-labelled clone of ``faults``. Once every shard has returned,
    their exported scope states merge into ``faults.campaign(campaign)``
    in shard order; a raising shard leaves that scope untouched. Runs
    under the ``campaign`` label of :func:`run_shards`.
    """
    shards = run_shards(_run_scoped, (fn, payload, faults, campaign),
                        n_shards, campaign, recorder)
    scope = faults.campaign(campaign)
    for _, state in shards:
        scope.merge_state(state)
    return [value for value, _ in shards]
