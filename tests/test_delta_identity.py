"""Snapshot reuse is one identity, locked by one matrix.

Whatever the checkpoint dir holds, a build with reuse on equals a fresh
build of the current world: map, campaign records (minus the
execution provenance ``wall_s``/``ran``) and coverage (docs/delta.md).
Every cell runs :func:`reuse_case` over two axes — what the dir holds
first (``prior``) and a ``crash`` stage or none. A cell
with a mutation plan builds its own world; plan-free cells share one
per seed, since builds never change a world's substrate.
"""

from __future__ import annotations

import functools
import hashlib
import tempfile

import pytest

from repro import ScenarioConfig, build_scenario
from repro.ckpt import run_supervised
from repro.core.builder import PRIMARY_STAGES, BuilderOptions, MapBuilder
from repro.core.serialize import map_to_json
from repro.delta import (ActivitySwing, LinkChurn, MutationPlan,
                         SiteTurnover, apply_mutation_plan)
from repro.faults import FaultPlan
from repro.obs import Recorder, validate_manifest

SEEDS = (20211110, 7, 99)
KINDS = ("link-churn", "activity-swing", "site-turnover")
FAULTS = {"clean": None, "faulty": FaultPlan.uniform(0.2, seed=11)}
NO_PLAN = MutationPlan(mutations=())

# Swings enough demand to move the users component and its routes.
SWING_40 = MutationPlan(mutations=(
    ActivitySwing(prefix_ids=tuple(range(40)), factor=8.0),))


def world(seed):
    return build_scenario(ScenarioConfig.small(seed=seed))


probe = functools.lru_cache(maxsize=None)(world)  # never mutated


def plan_for(kind: str, scenario) -> MutationPlan:
    """A canonical single-mutation plan of the given kind, valid for
    the scenario it was derived from *and* for any same-config world."""
    if kind == "link-churn":
        a, b, rel = sorted(scenario.graph.edges())[0]
        step = LinkChurn(op="remove", a=a, b=b, relationship=rel.value)
    elif kind == "activity-swing":
        step = ActivitySwing(prefix_ids=(0, 1, 2, 3, 4), factor=4.0)
    else:
        hg = next(k for k, sites in
                  sorted(scenario.deployment.sites_by_hypergiant.items())
                  if len(sites) >= 2)
        step = SiteTurnover(hypergiant_key=hg, site_id=1, op="retire")
    return MutationPlan(mutations=(step,))


def composite_plan(scenario) -> MutationPlan:
    """One plan dirtying every aspect a mutation can reach."""
    return MutationPlan(mutations=sum(
        (plan_for(kind, scenario).mutations for kind in KINDS), ()))


def identity(builder, itm):
    """(map digest, campaign records sans execution provenance,
    coverage): what a reuse build must share with a fresh one."""
    payload = builder.manifest().to_dict()
    campaigns = {name: {k: v for k, v in record.items()
                        if k not in ("wall_s", "ran")}
                 for name, record in payload["campaigns"].items()}
    digest = hashlib.sha256(map_to_json(itm).encode()).hexdigest()
    return digest, campaigns, payload["coverage"]


@functools.lru_cache(maxsize=None)
def fresh_identity(seed, plan, faults, options):
    """The :func:`identity` of a fresh build of the mutated world."""
    reference = world(seed)
    apply_mutation_plan(reference, plan)
    builder = MapBuilder(reference, options=options, faults=faults,
                         recorder=Recorder())
    return identity(builder, builder.build())


def reuse_case(seed, plan, faults=None, options=None, *,
               prior="pre-mutation", crash=None):
    """Run one matrix cell; returns the completing builder.

    The dir first holds ``prior`` ("none", the "same" world, or the
    "pre-mutation" one); then a delta build of the mutated world runs,
    or :func:`run_supervised` with a ``crash`` stage armed.
    """
    options = options or BuilderOptions()
    fresh = fresh_identity(seed, plan, faults, options)
    scenario = world(seed) if len(plan) else probe(seed)
    with tempfile.TemporaryDirectory(prefix="reuse-ident-") as root:
        def build(**reuse):
            builder = MapBuilder(scenario, options=options, faults=faults,
                                 recorder=Recorder(), checkpoint_dir=root,
                                 **reuse)
            return builder, builder.build()

        if prior == "pre-mutation":
            build()
        apply_mutation_plan(scenario, plan)
        if prior == "same":
            build()
        if crash is None:
            builder, itm = build(delta=True, delta_plan=plan)
        else:
            armed = (faults or FaultPlan.none()).with_crash_at(crash)
            report = run_supervised(scenario, root, options=options,
                                    faults=armed, recorder_factory=Recorder)
            builder, itm = report.builder, report.itm
        assert identity(builder, itm) == fresh
    lineage = builder.ckpt_lineage
    assert not lineage.quarantined
    assert sorted(lineage.stages_reused + lineage.stages_recomputed) \
        == sorted(builder.stages())
    if crash is not None:
        # A crash fires only after a compute, never after a load; once
        # fired, the restart reuses every stage up to it.
        fired = prior == "none" or report.crashes > 0
        assert [r.crashed_at for r in report.runs] == [crash] * fired + [None]
        stages = builder.stages()
        upto = stages[:stages.index(crash) + 1] if fired else [crash]
        assert set(upto) <= set(lineage.stages_reused)
    if prior == "same":
        assert not lineage.stages_recomputed
    elif prior == "pre-mutation" and len(plan):
        assert lineage.stages_reused, "no stage reused: vacuous identity"
    return builder


class TestChurnMatrix:
    @pytest.mark.parametrize("fault_key", sorted(FAULTS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_kind_identity(self, kind, seed, fault_key):
        plan = plan_for(kind, probe(seed))
        reuse_case(seed, plan, FAULTS[fault_key])

    def test_composite_plan_identity_with_aux(self):
        # Every aspect dirty at once, with the auxiliary campaigns on so
        # the aux stage boundaries are part of the identity too.
        seed = SEEDS[0]
        plan = composite_plan(probe(seed))
        options = BuilderOptions(run_auxiliary_campaigns=True)
        builder = reuse_case(seed, plan, FAULTS["faulty"], options)
        # Population is the one aspect no mutation dirties, and
        # root-logs is the one stage that reads nothing else.
        assert builder.ckpt_lineage.stages_reused == ["root-logs"]
        manifest = builder.manifest(command="summary", scale="small")
        validate_manifest(manifest.to_dict())
        delta = manifest.to_dict()["delta"]
        assert delta["kinds"] == list(KINDS)
        assert delta["aspects"] == ["routing", "activity", "serving"]
        assert delta["mutation_count"] == 3
        assert delta["mutation_digest"] == plan.digest()

    def test_empty_plan_identity(self):
        # Degenerate cell: no mutation at all, so everything is reused.
        builder = reuse_case(SEEDS[0], NO_PLAN)
        assert not builder.ckpt_lineage.stages_recomputed

    # Cells the old crash and churn suites never ran. A crash fires only
    # after a compute, so one at a stage whose snapshot is current never
    # fires; no mutation dirties root-logs, so its cell has an empty dir.
    @pytest.mark.parametrize("plan_key, prior, crash", [
        ("swing-40", "pre-mutation", "cache-probing"),
        ("composite", "none", "root-logs"),
        ("swing-40", "pre-mutation", "users"),
        ("composite", "pre-mutation", "services"),
        ("swing-40", "pre-mutation", "routes"),
        ("composite", "pre-mutation", None),
        ("none", "same", "services"),
    ])
    def test_reuse_cell(self, plan_key, prior, crash):
        plan = (composite_plan(probe(SEEDS[0])) if plan_key == "composite"
                else {"none": NO_PLAN, "swing-40": SWING_40}[plan_key])
        reuse_case(SEEDS[0], plan, FAULTS["faulty"], prior=prior,
                   crash=crash)


class TestChurnSequences:
    def test_hypothesis_multi_step_identity(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        sample = probe(SEEDS[0])
        churns = [LinkChurn(op="remove", a=a, b=b, relationship=rel.value)
                  for a, b, rel in sorted(sample.graph.edges())[:6]]
        hg, sites = next(
            item for item in sorted(sample.deployment.sites_by_hypergiant
                                    .items()) if len(item[1]) >= 3)
        swing = st.builds(ActivitySwing, prefix_ids=st.lists(
            st.integers(0, 63), min_size=1, max_size=4, unique=True).map(
                tuple), factor=st.sampled_from((0.5, 2.0)))
        retire = st.builds(SiteTurnover, hypergiant_key=st.just(hg),
                           site_id=st.integers(0, len(sites) - 1),
                           op=st.just("retire"))
        # 1-2 link removals, up to one swing and one retirement, any order.
        plans = st.tuples(
            st.lists(st.sampled_from(churns), min_size=1, max_size=2,
                     unique=True),
            st.lists(swing, max_size=1), st.lists(retire, max_size=1),
        ).flatmap(lambda parts: st.permutations(sum(parts, [])))

        @given(steps=plans,
               crash=st.sampled_from((None,) + PRIMARY_STAGES))
        @settings(max_examples=5, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def holds(steps, crash):
            reuse_case(SEEDS[0], MutationPlan(mutations=tuple(steps)),
                       crash=crash)

        holds()
