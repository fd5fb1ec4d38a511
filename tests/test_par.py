"""repro.par: the deterministic parallel-execution layer.

Covers the executor mechanics (shard decomposition, inline/parallel
equivalence, chunk-size invariance, counters, exception-safe pool
teardown) and pins the two guarantees the sharding contract rests on
with hypothesis:

* shard substreams are pairwise non-overlapping in their first draws —
  randomness binds to the shard index, never to scheduling;
* re-chunking (any chunk size, any worker count, same seed) reduces to
  identical campaign results.
"""

from __future__ import annotations

import multiprocessing
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultContext, FaultKind, FaultPlan
from repro.obs import Recorder
from repro.par import CampaignExecutor, ShardPlan, ShardStreams

MEASURE = Path(__file__).resolve().parent.parent / "src" / "repro" / \
    "measure"


def _square(payload: int, shard: int) -> int:
    """Trivial picklable shard fn: payload + shard**2."""
    return payload + shard * shard


def _draw(payload, shard: int) -> float:
    """Shard fn whose result is a stochastic draw from the shard's own
    substream — the shape every sharded campaign reduces to."""
    streams = payload
    return float(streams.stream(shard).random())


def _lossy(payload: int, shard: int, scope) -> int:
    """Scoped shard fn: how many of ``payload`` probes survive loss."""
    return int(scope.survive_mask(FaultKind.PROBE_LOSS, payload).sum())


def _boom(payload, shard: int):
    if shard == payload:
        raise ValueError(f"shard {shard} exploded")
    return shard


class TestShardPlan:
    def test_bounds_partition_items(self):
        plan = ShardPlan(n_items=10, shard_size=4)
        assert plan.n_shards == 3
        assert [plan.bounds(i) for i in range(3)] == [(0, 4), (4, 8),
                                                      (8, 10)]

    def test_empty_plan_has_no_shards(self):
        assert ShardPlan(n_items=0, shard_size=8).n_shards == 0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(n_items=-1, shard_size=4)
        with pytest.raises(ValueError):
            ShardPlan(n_items=4, shard_size=0)

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(IndexError):
            ShardPlan(n_items=10, shard_size=4).bounds(3)


class TestCampaignExecutor:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignExecutor(0)

    def test_inline_and_parallel_agree(self):
        serial = CampaignExecutor(1).run(_square, 100, 9, "t")
        parallel = CampaignExecutor(3).run(_square, 100, 9, "t")
        assert serial == parallel == [100 + i * i for i in range(9)]

    def test_empty_run_returns_nothing(self):
        assert CampaignExecutor(2).run(_square, 0, 0, "t") == []

    def test_counters_mirrored_onto_recorder(self):
        rec = Recorder()
        CampaignExecutor(2, recorder=rec).run(_square, 0, 8, "t",
                                              chunk_size=3)
        assert rec.counters["par.t.shards"] == 8
        assert rec.counters["par.t.chunks"] == 3
        assert rec.counters["par.t.parallel_sections"] == 1
        assert rec.stage("par.t") is not None

    def test_raising_shard_propagates_and_leaks_no_children(self):
        executor = CampaignExecutor(2)
        with pytest.raises(ValueError, match="exploded"):
            executor.run(_boom, 1, 6, "t", chunk_size=1)
        # Exception-safe teardown: the finally-shutdown reaps every
        # worker, so a faulted campaign can't wedge the checkpoint
        # supervisor's restart loop behind orphaned children.
        assert multiprocessing.active_children() == []

    def test_pool_reaped_after_clean_run(self):
        CampaignExecutor(2).run(_square, 0, 6, "t")
        assert multiprocessing.active_children() == []


class TestRunCampaign:
    def _run(self, workers: int):
        faults = FaultContext(FaultPlan(seed=7, probe_loss=0.3))
        rec = Recorder()
        faults.attach_recorder(rec)
        values = CampaignExecutor(workers).run_campaign(
            _lossy, 50, 6, "lossy", faults)
        return values, faults.campaign("lossy").export_state(), rec

    def test_inline_and_parallel_merge_identical_scopes(self):
        values, state, rec = self._run(1)
        assert (values, state) == self._run(3)[:2]
        assert state["counters"]["units"] == 6 * 50
        assert sum(values) == 6 * 50 - state["counters"]["giveups"]
        # Shard clones carry no recorder: the parent merge mirrors once.
        assert rec.counters["faults.lossy.units"] == 6 * 50

    def test_measure_modules_leave_the_hand_off_to_the_executor(self):
        """No campaign clones, exports or merges fault scopes itself,
        and none keeps a separate no-faults path."""
        banned = re.compile(
            r"\b(shard_context|export_state|merge_state)\(|"
            r"\b(faults|scope|_faults)\s+is\s+(not\s+)?None")
        sites = [f"{path.name}:{number}"
                 for path in sorted(MEASURE.glob("*.py"))
                 for number, line in enumerate(
                     path.read_text().splitlines(), 1)
                 if banned.search(line)]
        assert sites == []


class TestShardStreamDisjointness:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           i=st.integers(min_value=0, max_value=4096),
           j=st.integers(min_value=0, max_value=4096))
    @settings(max_examples=60, deadline=None)
    def test_substreams_pairwise_non_overlapping(self, seed, i, j):
        """Distinct shards never share draws (64-bit collision odds of
        honestly independent streams are negligible, so any overlap in
        the first draws means the derivation collapsed two shards)."""
        if i == j:
            return
        streams = ShardStreams(seed, ("probe-campaign",))
        a = streams.stream(i).integers(0, 2**63, size=8)
        b = streams.stream(j).integers(0, 2**63, size=8)
        assert not set(a.tolist()) & set(b.tolist())

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           shard=st.integers(min_value=0, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_stream_depends_only_on_shard_index(self, seed, shard):
        streams = ShardStreams(seed, ("probe-campaign",))
        first = streams.stream(shard).integers(0, 2**63, size=4)
        again = streams.stream(shard).integers(0, 2**63, size=4)
        assert first.tolist() == again.tolist()


class TestRechunkingInvariance:
    @given(n_shards=st.integers(min_value=2, max_value=24),
           chunk_size=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_rechunking_reduces_to_identical_results(self, n_shards,
                                                     chunk_size, seed):
        """Chunking is dispatch only: for a fixed seed, any chunk size
        (and worker count) merges to the serial shard-order results."""
        streams = ShardStreams(seed, ("t",))
        serial = CampaignExecutor(1).run(_draw, streams, n_shards, "t")
        chunked = CampaignExecutor(2).run(_draw, streams, n_shards, "t",
                                          chunk_size=chunk_size)
        assert serial == chunked

    def test_default_and_explicit_chunking_agree(self):
        streams = ShardStreams(20211110, ("probe-campaign",))
        results = {
            tuple(CampaignExecutor(workers).run(_draw, streams, 16, "t",
                                                chunk_size=chunk))
            for workers in (1, 2, 4) for chunk in (None, 1, 5, 16)
        }
        assert len(results) == 1
