"""Property tests for the fault-injection plan and context.

Two guarantees matter enough to pin with hypothesis:

* determinism — the same plan (same seed) yields bit-identical drop
  schedules, independent of unrelated campaigns drawing in between;
* the null plan is free — a zero-rate plan consumes no randomness and
  builds a map bit-identical to a build with no fault plan at all
  (regression-locking the guarded fast paths in every campaign).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import MapBuilder
from repro.core.serialize import map_to_json
from repro.errors import ConfigError
from repro.faults import (RATE_KINDS, SERVE_KINDS, FaultContext, FaultKind,
                          FaultPlan, RetryPolicy)

KINDS = sorted(RATE_KINDS, key=lambda k: k.value)

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestPlan:
    def test_null_plan(self):
        plan = FaultPlan.none()
        assert plan.is_null
        assert plan.active_kinds() == ()
        assert plan.describe() == "no faults"

    def test_uniform_plan_activates_every_rate_kind(self):
        plan = FaultPlan.uniform(0.5, seed=3)
        # CRASH is targeted (crash_at), not rate-based: uniform skips it.
        assert set(plan.active_kinds()) == set(RATE_KINDS)
        assert FaultKind.CRASH not in plan.active_kinds()
        assert all(rate == 0.5 for rate in plan.rates().values())

    def test_crash_at_arms_the_crash_kind(self):
        plan = FaultPlan.none().with_crash_at("services")
        assert plan.rate_of(FaultKind.CRASH) == 1.0
        assert FaultKind.CRASH in plan.active_kinds()
        assert "crash_at=services" in plan.describe()
        parsed = FaultPlan.parse("probe_loss=0.1,crash_at=users")
        assert parsed.crash_at == "users"
        with pytest.raises(ConfigError):
            FaultPlan.parse("crash=0.5")
        with pytest.raises(ConfigError):
            FaultPlan(crash_at="").validate()

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("probe_loss=0.2,rootlog_truncation=0.5")
        assert plan.probe_loss == 0.2
        assert plan.rootlog_truncation == 0.5
        assert plan.stale_collector == 0.0

    def test_parse_all_pseudo_kind_with_override(self):
        plan = FaultPlan.parse("all=0.1,probe_loss=0.9")
        assert plan.probe_loss == 0.9
        assert plan.sni_rate_limit == 0.1

    @pytest.mark.parametrize("spec", [
        "probe_loss", "probe_loss=x", "bogus=0.5", "probe_loss=1.5",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)

    def test_parse_limited_to_given_kinds(self):
        plan = FaultPlan.parse("all=0.1", kinds=SERVE_KINDS)
        assert plan.active_kinds() == SERVE_KINDS
        assert FaultPlan.parse("all=0.1").active_kinds() == RATE_KINDS
        for spec in ("probe_loss=0.1", "crash_at=users", "crash=0.5"):
            with pytest.raises(ConfigError, match="unknown fault kind"):
                FaultPlan.parse(spec, kinds=SERVE_KINDS)

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5).validate()

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0)
        assert policy.backoff_before_attempt(1) == 0.0
        assert policy.backoff_before_attempt(2) == 1.0
        assert policy.backoff_before_attempt(3) == 2.0

    @given(rate=st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_validate_accepts_exactly_unit_interval(self, rate):
        plan = FaultPlan(probe_loss=rate)
        if 0.0 <= rate <= 1.0:
            plan.validate()
        else:
            with pytest.raises(ConfigError):
                plan.validate()


class TestDeterminism:
    @given(seed=seeds, rate=st.floats(min_value=0.01, max_value=0.99),
           n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_drop_schedule(self, seed, rate, n):
        plan = FaultPlan(seed=seed, probe_loss=rate)
        masks = []
        for __ in range(2):
            scope = FaultContext(plan).campaign("campaign-a")
            masks.append(scope.survive_mask(FaultKind.PROBE_LOSS, n))
        np.testing.assert_array_equal(masks[0], masks[1])

    @given(seed=seeds, rate=st.floats(min_value=0.01, max_value=0.99),
           rounds=st.integers(min_value=1, max_value=8),
           cells=st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_thinning(self, seed, rate, rounds, cells):
        plan = FaultPlan(seed=seed, probe_loss=rate)
        grids = []
        for __ in range(2):
            scope = FaultContext(plan).campaign("campaign-a")
            grids.append(scope.thin_rounds(FaultKind.PROBE_LOSS, rounds,
                                           (cells,)))
        np.testing.assert_array_equal(grids[0], grids[1])

    def test_streams_independent_across_campaigns_and_kinds(self):
        plan = FaultPlan(seed=5, probe_loss=0.5, ecs_rate_limit=0.5)
        ctx = FaultContext(plan)
        a = ctx.campaign("a").survive_mask(FaultKind.PROBE_LOSS, 256)
        # Drawing on another campaign/kind must not perturb a re-draw of
        # the same (campaign, kind) stream from a fresh context.
        ctx2 = FaultContext(plan)
        ctx2.campaign("b").survive_mask(FaultKind.PROBE_LOSS, 999)
        ctx2.campaign("a").survive_mask(FaultKind.ECS_RATE_LIMIT, 999)
        a2 = ctx2.campaign("a").survive_mask(FaultKind.PROBE_LOSS, 256)
        np.testing.assert_array_equal(a, a2)

    @given(seed=seeds, rate=rates, n=st.integers(min_value=0, max_value=64),
           attempts=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_counter_invariants(self, seed, rate, n, attempts):
        plan = FaultPlan(seed=seed, probe_loss=rate,
                         retry=RetryPolicy(max_attempts=attempts))
        scope = FaultContext(plan).campaign("campaign-a")
        mask = scope.survive_mask(FaultKind.PROBE_LOSS, n)
        c = scope.counters
        assert c.units == n
        assert c.delivered == int(mask.sum())
        assert c.giveups == n - int(mask.sum())
        assert c.attempts >= c.units
        assert c.attempts <= c.units * attempts
        assert c.drops >= c.giveups
        assert 0.0 <= c.coverage <= 1.0

    def test_zero_rate_consumes_no_randomness(self):
        scope = FaultContext(FaultPlan.none(seed=9)).campaign("a")
        mask = scope.survive_mask(FaultKind.PROBE_LOSS, 32)
        assert mask.all()
        grid = scope.thin_rounds(FaultKind.PROBE_LOSS, 4, (8,))
        assert (grid == 4).all()
        # The context never materialised an RNG stream.
        assert not scope._context._streams


class TestNullPlanBitIdentity:
    def test_zero_rate_plan_builds_bit_identical_map(self, small_scenario):
        baseline = map_to_json(MapBuilder(small_scenario).build())
        zero = map_to_json(MapBuilder(
            small_scenario,
            faults=FaultPlan.none(seed=20_000)).build())
        assert zero == baseline

    def test_explicit_null_context_is_bit_identical(self, small_scenario):
        baseline = map_to_json(MapBuilder(small_scenario).build())
        with_ctx = map_to_json(MapBuilder(
            small_scenario, faults=FaultContext.null()).build())
        assert with_ctx == baseline
