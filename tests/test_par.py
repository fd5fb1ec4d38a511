"""repro.par: deterministic sharded campaign execution.

Covers the shard mechanics (decomposition, counters, the per-shard fault
hand-off of :func:`run_campaign`) and pins the guarantee the sharding
contract rests on with hypothesis: shard substreams are pairwise
non-overlapping in their first draws — randomness binds to the shard
index, never to execution order.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultContext, FaultKind, FaultPlan
from repro.obs import NULL_RECORDER, Recorder
from repro.par import ShardPlan, ShardStreams, run_campaign, run_shards

MEASURE = Path(__file__).resolve().parent.parent / "src" / "repro" / \
    "measure"


def _square(payload: int, shard: int) -> int:
    """Trivial shard fn: payload + shard**2."""
    return payload + shard * shard


def _lossy(payload: int, shard: int, scope) -> int:
    """Scoped shard fn: how many of ``payload`` probes survive loss."""
    return int(scope.survive_mask(FaultKind.PROBE_LOSS, payload).sum())


def _survivors(payload: int, shard: int, scope) -> list:
    """Scoped shard fn: the survive mask of ``payload`` probes."""
    return scope.survive_mask(FaultKind.PROBE_LOSS, payload).tolist()


def _lossy_then_boom(payload: int, shard: int, scope) -> int:
    """Draws like :func:`_lossy`, then shard 2 raises."""
    value = _lossy(payload, shard, scope)
    if shard == 2:
        raise ValueError(f"shard {shard} exploded")
    return value


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
    """:func:`run_shards`, the inline shard loop."""

    def test_shards_run_in_order(self):
        assert run_shards(_square, 100, 9, "t", NULL_RECORDER) == \
            [100 + i * i for i in range(9)]

    def test_empty_run_returns_nothing(self):
        assert run_shards(_square, 0, 0, "t", NULL_RECORDER) == []

    def test_counters_mirrored_onto_recorder(self):
        rec = Recorder()
        run_shards(_square, 0, 8, "t", rec)
        assert rec.counters["par.t.shards"] == 8
        assert rec.stage("par.t") is not None


class TestRunCampaign:
    PLAN = FaultPlan(seed=7, probe_loss=0.3)

    def test_merge_counts_units_giveups_and_mirrors_once(self):
        faults = FaultContext(self.PLAN)
        rec = Recorder()
        faults.attach_recorder(rec)
        values = run_campaign(_lossy, 50, 6, "lossy", faults, rec)
        state = faults.campaign("lossy").export_state()
        assert state["counters"]["units"] == 6 * 50
        assert sum(values) == 6 * 50 - state["counters"]["giveups"]
        # Shard clones carry no recorder: the parent merge mirrors once.
        assert rec.counters["faults.lossy.units"] == 6 * 50
        assert rec.counters["par.lossy.shards"] == 6

    def test_shard_draws_match_a_standalone_shard_context(self):
        faults = FaultContext(self.PLAN)
        values = run_campaign(_survivors, 40, 5, "lossy", faults,
                              NULL_RECORDER)
        standalone = [
            _survivors(40, shard, FaultContext(self.PLAN).shard_context(
                ShardStreams.label(shard)).campaign("lossy"))
            for shard in range(5)]
        assert values == standalone
        # Shards draw from distinct streams, not one shared one.
        assert len({tuple(v) for v in values}) == 5

    def test_raising_shard_leaves_the_parent_scope_unmerged(self):
        faults = FaultContext(self.PLAN)
        # Give the parent scope state of its own, so "unchanged" is not
        # just "still empty".
        faults.campaign("lossy").survive_mask(FaultKind.PROBE_LOSS, 10)
        before = faults.campaign("lossy").export_state()
        with pytest.raises(ValueError, match="exploded"):
            run_campaign(_lossy_then_boom, 50, 6, "lossy", faults,
                         NULL_RECORDER)
        assert faults.campaign("lossy").export_state() == before

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
