"""Deterministic sharded campaign execution (see :mod:`.executor`)."""

from .executor import ShardPlan, ShardStreams, run_campaign, run_shards

__all__ = ["ShardPlan", "ShardStreams", "run_campaign", "run_shards"]
