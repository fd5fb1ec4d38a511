"""Deterministic parallel campaign execution.

The execution model has two layers, and keeping them separate is what
makes parallel builds bit-identical to serial ones:

* **Shards** are the units randomness binds to. Each campaign splits its
  work into fixed-size shards (a per-campaign constant, e.g.
  ``CACHE_PROBE_SHARD_SIZE``), and every stochastic draw inside shard
  ``i`` comes from that shard's own substream
  (:meth:`ShardStreams.stream`) — never from a stream shared across
  shards. Shard decomposition is a pure function of the input size, so
  the set of (shard, stream) pairs is identical no matter how the work
  is later scheduled.

* **Chunks** are the units of dispatch. The executor groups shard
  indices into chunks and hands whole chunks to pool workers purely to
  amortise IPC. Chunking (and the worker count, and which worker runs
  what) can change wall-clock time only: results are collected with
  :meth:`concurrent.futures.Executor.map` semantics and re-flattened in
  shard order, so the merged output is invariant under re-chunking.

``CampaignExecutor.run`` is the single entry point; with ``workers <= 1``
it executes the shard function inline in shard order — the serial build
is literally the parallel build with a trivial schedule, which is why
``MapBuilder(..., workers=N)`` is regression-locked bit-identical to the
serial builder for any N. ``CampaignExecutor.run_campaign`` is ``run``
plus the per-shard fault hand-off every sharded campaign needs: each
shard gets its own fault scope, and the parent folds the shards' fault
counters back in shard order.

Worker payload transfer prefers the ``fork`` start method: the payload
(scenario slices, oracles, fault plan) is published in a module global
before the pool is created and inherited copy-on-write by the children.
On platforms without ``fork`` the payload is pickled once per worker via
the pool initializer.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.recorder import Recorder, resolve_recorder
from ..rand import substream

if TYPE_CHECKING:
    from ..faults import CampaignFaultScope, FaultContext

ShardFn = Callable[[object, int], object]
ScopedShardFn = Callable[[object, int, "CampaignFaultScope"], object]

# Published in the parent right before the pool forks; inherited by the
# children. Only used for the duration of one `run` call.
_JOB: Optional[Tuple[ShardFn, object]] = None


def _set_job(job: Tuple[ShardFn, object]) -> None:
    """Pool initializer for start methods that don't inherit globals."""
    global _JOB
    _JOB = job


def _run_chunk(chunk: Sequence[int]) -> List[object]:
    """Execute one chunk of shard indices in a worker process."""
    fn, payload = _JOB  # type: ignore[misc]
    return [fn(payload, int(idx)) for idx in chunk]


def _run_scoped(job: Tuple[ScopedShardFn, object, "FaultContext", str],
                shard: int) -> Tuple[object, dict]:
    """Run one shard of a campaign under its own fault scope.

    The scope lives on a :meth:`FaultContext.shard_context` clone, so
    its draws bind to the shard label, not to scheduling; its exported
    state travels back beside the shard's value.
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
    item and therefore the campaign's output. Worker counts and chunk
    sizes are free to vary; the shard size is not.
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
    (hash-derived child seeds) that depend only on the shard index,
    never on scheduling.
    """

    seed: int
    names: Tuple[str, ...]

    def stream(self, shard: int) -> np.random.Generator:
        return substream(self.seed, *self.names, self.label(shard))

    @staticmethod
    def label(shard: int) -> str:
        return f"s{shard}"


class CampaignExecutor:
    """Runs shard functions inline or across a process pool.

    The executor is stateless between :meth:`run` calls; each parallel
    section creates its own pool and tears it down in a ``finally`` so a
    raising shard (including an injected ``FaultKind.CRASH``) can never
    leak child processes into the checkpoint supervisor's restart loop.
    """

    def __init__(self, workers: int = 1,
                 recorder: Optional[Recorder] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = int(workers)
        self._recorder = resolve_recorder(recorder)

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def parallel(self) -> bool:
        return self._workers > 1

    def run(self, fn: ShardFn, payload: object, n_shards: int,
            label: str, chunk_size: Optional[int] = None) -> List[object]:
        """Run ``fn(payload, shard)`` for every shard; ordered results.

        ``fn`` must be a module-level (picklable) function and must not
        mutate ``payload`` — with ``fork`` the payload is shared
        copy-on-write, inline execution shares it outright.
        """
        rec = self._recorder
        rec.count(f"par.{label}.shards", n_shards)
        if n_shards <= 0:
            return []
        if self._workers == 1 or n_shards == 1:
            with rec.span(f"par.{label}"):
                return [fn(payload, shard) for shard in range(n_shards)]
        chunks = self._chunk_indices(n_shards, chunk_size)
        rec.count(f"par.{label}.chunks", len(chunks))
        rec.count(f"par.{label}.parallel_sections")
        with rec.span(f"par.{label}"):
            chunked = self._run_pool(fn, payload, chunks)
        return [result for chunk in chunked for result in chunk]

    def run_campaign(self, fn: ScopedShardFn, payload: object,
                     n_shards: int, campaign: str,
                     faults: "FaultContext") -> List[object]:
        """Run ``fn(payload, shard, scope)`` for every shard of one
        fault-scoped campaign; ordered results.

        Each shard's ``scope`` is the ``campaign`` scope of its own
        shard-labelled clone of ``faults``. The parent merges the
        shards' exported scope states into ``faults.campaign(campaign)``
        in shard order, so fault counters (and their recorder mirror)
        are identical for any worker count. Runs under the ``campaign``
        label, like :meth:`run`.
        """
        shards = self.run(_run_scoped, (fn, payload, faults, campaign),
                          n_shards, campaign)
        scope = faults.campaign(campaign)
        for _, state in shards:
            scope.merge_state(state)
        return [value for value, _ in shards]

    # -- internals --------------------------------------------------------

    def _chunk_indices(self, n_shards: int,
                       chunk_size: Optional[int]) -> List[List[int]]:
        if chunk_size is None:
            # ~4 chunks per worker balances stragglers against IPC.
            chunk_size = max(1, -(-n_shards // (self._workers * 4)))
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        indices = list(range(n_shards))
        return [indices[i:i + chunk_size]
                for i in range(0, n_shards, chunk_size)]

    def _run_pool(self, fn: ShardFn, payload: object,
                  chunks: List[List[int]]) -> List[List[object]]:
        global _JOB
        workers = min(self._workers, len(chunks))
        methods = mp.get_all_start_methods()
        use_fork = "fork" in methods
        ctx = mp.get_context("fork" if use_fork else "spawn")
        _JOB = (fn, payload)
        pool: Optional[ProcessPoolExecutor] = None
        try:
            if use_fork:
                pool = ProcessPoolExecutor(max_workers=workers,
                                           mp_context=ctx)
            else:  # pragma: no cover - non-fork platforms
                pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=ctx,
                    initializer=_set_job, initargs=((fn, payload),))
            return list(pool.map(_run_chunk, chunks))
        finally:
            # Exception-safe teardown: cancel queued chunks and reap the
            # children even when a shard raised (fault-injected crashes
            # included) so no worker outlives its campaign.
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            _JOB = None
