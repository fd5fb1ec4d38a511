"""The repro.delta substrate-mutation layer: plans, digests, reuse sets.

Four contracts (docs/delta.md):

* **Round trip** — applying a mutation plan and then its inverse
  restores every substrate aspect digest, every per-stage input digest
  and the built map bit-for-bit (property-tested with hypothesis over
  multi-step plans, plus one deterministic deep check).
* **Negative controls** — an empty plan reuses *every* stage of a delta
  build; an activity-only mutation must not recompute routing-only
  stages. The exact reused/recomputed sets per mutation kind are
  regression-locked.
* **Stage table** — every row of ``STAGES`` names known aspects and
  earlier upstreams and reads something, and every stage touches only
  the fault scopes and note list its row declares.
* **Manifest validation** — an inconsistent checkpoint lineage is
  rejected with the offending stage *lists* named (not just counts),
  and the format-3 delta section is schema-checked.

Scenarios are mutated in place here, so every test builds its own world
(the shared session fixtures must stay pristine).
"""

from __future__ import annotations

import pytest

from repro import ScenarioConfig, build_scenario
from repro.core import builder as builder_module
from repro.core.builder import (AUX_STAGES, PRIMARY_STAGES, STAGES,
                                BuilderOptions, MapBuilder)
from repro.core.serialize import map_to_json
from repro.delta import (ASPECTS, MUTATION_KINDS,
                         ActivitySwing, LinkChurn, MutationPlan,
                         SiteTurnover, SubstrateDigests,
                         apply_mutation_plan, mutation_from_dict,
                         stage_input_digest)
from repro.errors import ValidationError
from repro.faults import FaultContext, FaultPlan, SimulatedCrash
from repro.obs import validate_manifest

SEED = 20211110


def small_world():
    return build_scenario(ScenarioConfig.small(seed=SEED))


def removable_edge(scenario, index=0):
    a, b, rel = sorted(scenario.graph.edges())[index]
    return LinkChurn(op="remove", a=a, b=b, relationship=rel.value)


def retirable_site(scenario):
    hg = next(k for k, sites in
              sorted(scenario.deployment.sites_by_hypergiant.items())
              if len(sites) >= 2)
    return SiteTurnover(hypergiant_key=hg, site_id=0, op="retire")


SWING = ActivitySwing(prefix_ids=(0, 1, 2, 3), factor=2.0)


# ---------------------------------------------------------------------------
# Stage tables
# ---------------------------------------------------------------------------

class TestStageTables:
    def test_inputs_cover_exactly_the_builder_stages(self):
        # One row and one compute per stage, and each component's rows
        # contiguous (a component runs under one span).
        names = tuple(stage.name for stage in STAGES)
        assert len(set(names)) == len(names)
        assert set(builder_module._STAGE_COMPUTE) == set(names)
        assert PRIMARY_STAGES + AUX_STAGES == names
        components = [stage.component for stage in STAGES]
        runs = [c for i, c in enumerate(components)
                if i == 0 or components[i - 1] != c]
        assert len(runs) == len(set(runs)), runs

    def test_upstreams_are_earlier_stages(self):
        order = [stage.name for stage in STAGES]
        for stage in STAGES:
            for aspect in stage.aspects:
                assert aspect in ASPECTS, (stage.name, aspect)
            for name in stage.upstream:
                assert order.index(name) < order.index(stage.name), \
                    (stage.name, name)

    def test_every_stage_has_an_input(self):
        # A stage with neither aspects nor upstreams would reuse its
        # snapshot under *any* mutation — that can only be wrong.
        for stage in STAGES:
            assert stage.aspects or stage.upstream, stage.name

    def test_stages_touch_only_what_their_rows_declare(
            self, small_scenario, tmp_path, monkeypatch):
        # A snapshot carries only its row's fault scopes and note list:
        # a stage touching anything else would lose that state on resume.
        touched = {}
        running = []

        def watch(method, record):
            def wrapper(self, name, *args):
                if running:
                    touched[running[-1]][record].add(name)
                return method(self, name, *args)
            return wrapper

        monkeypatch.setattr(FaultContext, "campaign",
                            watch(FaultContext.campaign, 0))
        monkeypatch.setattr(MapBuilder, "_note",
                            watch(MapBuilder._note, 1))
        for name, compute in list(builder_module._STAGE_COMPUTE.items()):
            def traced(builder, *inputs, name=name, compute=compute):
                touched[name] = (set(), set())
                running.append(name)
                try:
                    return compute(builder, *inputs)
                finally:
                    running.pop()
            monkeypatch.setitem(builder_module._STAGE_COMPUTE, name, traced)

        MapBuilder(small_scenario,
                   BuilderOptions(run_auxiliary_campaigns=True),
                   faults=FaultPlan.parse("all=0.05", seed=7),
                   checkpoint_dir=tmp_path).build()

        assert list(touched) == [stage.name for stage in STAGES]
        for stage in STAGES:
            campaigns, notes = touched[stage.name]
            assert campaigns <= set(stage.campaigns), stage.name
            assert notes <= {stage.component}, stage.name
        # The watch saw the stages at work.
        assert all(touched[s.name][0] for s in STAGES if s.campaigns)
        assert any(notes for __, notes in touched.values())

    def test_digest_requires_upstreams_in_order(self, small_scenario):
        substrate = SubstrateDigests(small_scenario)
        with pytest.raises(ValidationError, match="builder order"):
            stage_input_digest("users", substrate, {})
        with pytest.raises(ValidationError, match="no input-digest"):
            stage_input_digest("nope", substrate, {})

    def test_unknown_aspect_rejected(self, small_scenario):
        with pytest.raises(ValidationError, match="unknown substrate"):
            SubstrateDigests(small_scenario).aspect("weather")


# ---------------------------------------------------------------------------
# Mutation plumbing
# ---------------------------------------------------------------------------

class TestMutationValidation:
    @pytest.mark.parametrize("bad", [
        LinkChurn(op="toggle", a=1, b=2, relationship="c2p"),
        LinkChurn(op="add", a=1, b=1, relationship="p2p"),
        LinkChurn(op="add", a=1, b=2, relationship="sibling"),
        ActivitySwing(prefix_ids=(0,), factor=3.0),
        ActivitySwing(prefix_ids=(0,), factor=-2.0),
        ActivitySwing(prefix_ids=(), factor=2.0),
        ActivitySwing(prefix_ids=(1, 1), factor=2.0),
        SiteTurnover(hypergiant_key="googol", site_id=0, op="melt"),
        SiteTurnover(hypergiant_key="", site_id=0, op="retire"),
        SiteTurnover(hypergiant_key="googol", site_id=-1, op="retire"),
    ])
    def test_malformed_mutations_rejected(self, bad):
        with pytest.raises(ValidationError):
            bad.validate()

    def test_fractional_powers_of_two_are_valid(self):
        for factor in (0.25, 0.5, 2.0, 1024.0):
            ActivitySwing(prefix_ids=(0,), factor=factor).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown mutation"):
            mutation_from_dict({"kind": "earthquake"})

    def test_plan_schema_errors(self, tmp_path):
        with pytest.raises(ValidationError, match="format_version"):
            MutationPlan.from_dict({"format_version": 9, "mutations": []})
        with pytest.raises(ValidationError, match="mutations list"):
            MutationPlan.from_dict({"format_version": 1})
        with pytest.raises(ValidationError, match="not valid JSON"):
            MutationPlan.from_json("{")
        with pytest.raises(ValidationError, match="cannot read"):
            MutationPlan.load(tmp_path / "absent.json")

    def test_plan_json_round_trip_preserves_digest(self, tmp_path):
        plan = MutationPlan(mutations=(
            SWING,
            LinkChurn(op="add", a=3, b=9, relationship="p2p"),
            SiteTurnover(hypergiant_key="googol", site_id=1,
                         op="retire")))
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = MutationPlan.load(path)
        assert loaded == plan
        assert loaded.digest() == plan.digest()
        assert loaded.kinds() == MUTATION_KINDS
        assert loaded.aspects() == ("routing", "activity", "serving")

    def test_inverse_reverses_and_flips(self):
        plan = MutationPlan(mutations=(
            SWING, LinkChurn(op="add", a=3, b=9, relationship="p2p")))
        inverse = plan.inverse()
        assert [m.kind for m in inverse] == ["link-churn",
                                             "activity-swing"]
        assert inverse.mutations[0].op == "remove"
        assert inverse.mutations[1].factor == 0.5
        assert inverse.inverse() == plan

    def test_remove_needs_exact_relationship(self):
        scenario = small_world()
        a, b, rel = sorted(scenario.graph.edges())[0]
        other = "p2p" if rel.value == "c2p" else "c2p"
        with pytest.raises(ValidationError, match=f"expected {other}"):
            apply_mutation_plan(scenario, MutationPlan(mutations=(
                LinkChurn(op="remove", a=a, b=b, relationship=other),)))

    def test_apply_time_errors(self):
        scenario = small_world()
        cases = [
            (LinkChurn(op="add", a=10**9, b=1, relationship="p2p"),
             "unknown ASN"),
            (ActivitySwing(prefix_ids=(10**9,), factor=2.0),
             "outside the table"),
            (SiteTurnover(hypergiant_key="atlantis", site_id=0,
                          op="retire"), "unknown hypergiant"),
            (SiteTurnover(hypergiant_key="googol", site_id=10**6,
                          op="retire"), "has no site"),
            (SiteTurnover(hypergiant_key="googol", site_id=0,
                          op="revive"), "not retired"),
        ]
        for mutation, message in cases:
            with pytest.raises(ValidationError, match=message):
                apply_mutation_plan(scenario,
                                    MutationPlan(mutations=(mutation,)))

    def test_cannot_retire_last_active_site(self):
        scenario = small_world()
        hg, sites = min(
            (item for item in
             scenario.deployment.sites_by_hypergiant.items()
             if item[1]), key=lambda item: len(item[1]))
        steps = tuple(SiteTurnover(hypergiant_key=hg, site_id=s.site_id,
                                   op="retire") for s in sites)
        with pytest.raises(ValidationError, match="last active site"):
            apply_mutation_plan(scenario, MutationPlan(mutations=steps))


# ---------------------------------------------------------------------------
# Round trip: plan + inverse restores the world (satellite: hypothesis)
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_plan_plus_inverse_restores_digests_and_map(self, tmp_path):
        scenario = small_world()
        baseline_digests = SubstrateDigests(scenario).all()
        baseline_builder = MapBuilder(scenario,
                                      checkpoint_dir=tmp_path / "before")
        baseline_json = map_to_json(baseline_builder.build())
        baseline_inputs = dict(baseline_builder._stage_input_digests)

        plan = MutationPlan(mutations=(
            removable_edge(scenario), SWING, retirable_site(scenario)))
        apply_mutation_plan(scenario, plan)
        assert SubstrateDigests(scenario).all() != baseline_digests
        apply_mutation_plan(scenario, plan.inverse())

        assert SubstrateDigests(scenario).all() == baseline_digests
        builder = MapBuilder(scenario, checkpoint_dir=tmp_path / "after")
        assert map_to_json(builder.build()) == baseline_json
        assert builder._stage_input_digests == baseline_inputs
        assert scenario.retired_sites == set()
        # Reviving everything hands back the pristine object itself.
        assert scenario.deployment is scenario.pristine_deployment

    def test_hypothesis_multi_step_round_trip(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        scenario = small_world()
        baseline = SubstrateDigests(scenario).all()
        edges = sorted(scenario.graph.edges())
        hg_sites = sorted(
            (key, len(sites)) for key, sites in
            scenario.deployment.sites_by_hypergiant.items()
            if len(sites) >= 2)
        n_prefixes = len(scenario.prefixes)

        @st.composite
        def plans(draw):
            steps = []
            for __ in range(draw(st.integers(0, 2))):
                ids = draw(st.lists(
                    st.integers(0, n_prefixes - 1),
                    min_size=1, max_size=6, unique=True))
                factor = draw(st.sampled_from((0.25, 0.5, 2.0, 4.0)))
                steps.append(ActivitySwing(prefix_ids=tuple(ids),
                                           factor=factor))
            for index in draw(st.lists(
                    st.integers(0, len(edges) - 1),
                    max_size=2, unique=True)):
                a, b, rel = edges[index]
                steps.append(LinkChurn(op="remove", a=a, b=b,
                                       relationship=rel.value))
            for hg, count in hg_sites:
                if draw(st.booleans()):
                    steps.append(SiteTurnover(
                        hypergiant_key=hg,
                        site_id=draw(st.integers(0, count - 1)),
                        op="retire"))
            return MutationPlan(mutations=tuple(draw(
                st.permutations(steps))))

        @given(plan=plans())
        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def round_trips(plan):
            apply_mutation_plan(scenario, plan)
            apply_mutation_plan(scenario, plan.inverse())
            assert SubstrateDigests(scenario).all() == baseline

        round_trips()


# ---------------------------------------------------------------------------
# Negative controls: exact reuse sets per mutation kind (satellite)
# ---------------------------------------------------------------------------

@pytest.fixture()
def seeded_ckpt(tmp_path):
    """A checkpoint dir seeded by one plain (aux-less) build.

    Function-scoped on purpose: a delta build *overwrites* the stale
    snapshots it recomputes, so sharing one dir across tests would make
    the reuse sets order-dependent.
    """
    ckpt = tmp_path / "delta-ckpt"
    MapBuilder(small_world(), checkpoint_dir=ckpt).build()
    return ckpt


def delta_lineage(seeded_ckpt, plan):
    scenario = small_world()
    if plan is not None:
        apply_mutation_plan(scenario, plan)
    builder = MapBuilder(scenario, checkpoint_dir=seeded_ckpt,
                         delta=True, delta_plan=plan)
    builder.build()
    return builder.ckpt_lineage


class TestNegativeControls:
    def test_empty_plan_reuses_every_stage(self, seeded_ckpt):
        lineage = delta_lineage(seeded_ckpt, None)
        assert lineage.stages_reused == list(PRIMARY_STAGES)
        assert lineage.stages_recomputed == []
        assert lineage.quarantined == []

    def test_activity_swing_spares_routing_stages(self, seeded_ckpt):
        lineage = delta_lineage(seeded_ckpt,
                                MutationPlan(mutations=(SWING,)))
        # Routing-only stages must NOT recompute for a demand swing;
        # the services stage (TLS/ECS/catchments) reads no activity.
        assert lineage.stages_reused == ["root-logs", "services"]
        assert lineage.stages_recomputed == ["cache-probing", "users",
                                             "routes"]

    def test_link_churn_spares_user_stages(self, seeded_ckpt):
        plan = MutationPlan(mutations=(removable_edge(small_world()),))
        lineage = delta_lineage(seeded_ckpt, plan)
        assert lineage.stages_reused == ["cache-probing", "root-logs",
                                         "users"]
        assert lineage.stages_recomputed == ["services", "routes"]

    def test_site_turnover_spares_user_stages(self, seeded_ckpt):
        plan = MutationPlan(mutations=(retirable_site(small_world()),))
        lineage = delta_lineage(seeded_ckpt, plan)
        assert lineage.stages_reused == ["cache-probing", "root-logs",
                                         "users"]
        assert lineage.stages_recomputed == ["services", "routes"]

    def test_resume_compares_input_digests(self, seeded_ckpt):
        # resume=True over a plain build's dir follows the one reuse
        # rule: the swing's dirty stages recompute, so the map is the
        # mutated world's, never the stale one.
        plan = MutationPlan(mutations=(SWING,))
        scenario, reference = small_world(), small_world()
        for mutated in (scenario, reference):
            apply_mutation_plan(mutated, plan)
        builder = MapBuilder(scenario, checkpoint_dir=seeded_ckpt,
                             resume=True)
        same_map = map_to_json(builder.build()) \
            == map_to_json(MapBuilder(reference).build())
        assert same_map, "resume reused stale snapshots"
        assert builder.ckpt_lineage.stages_reused == ["root-logs",
                                                      "services"]

    def test_crashed_delta_build_resumes_to_fresh_map(self, seeded_ckpt):
        # The delta build dies at users, after saving current snapshots
        # up to it; routes is still the plain build's, and the demand
        # swing moves routes, so resume must recompute it.
        plan = MutationPlan(mutations=(
            ActivitySwing(prefix_ids=tuple(range(40)), factor=8.0),))
        scenario, reference = small_world(), small_world()
        for mutated in (scenario, reference):
            apply_mutation_plan(mutated, plan)
        with pytest.raises(SimulatedCrash, match="users"):
            MapBuilder(scenario, checkpoint_dir=seeded_ckpt, delta=True,
                       delta_plan=plan,
                       faults=FaultPlan.none().with_crash_at("users")).build()
        resumed = MapBuilder(scenario, checkpoint_dir=seeded_ckpt,
                             resume=True).build()
        assert map_to_json(resumed) == map_to_json(
            MapBuilder(reference).build()), "resume reused stale routes"

    def test_stale_snapshots_are_not_quarantined(self, seeded_ckpt):
        # Dirty != corrupt: the swing invalidates three snapshots, but
        # they are overwritten in place, never moved to quarantine/.
        lineage = delta_lineage(seeded_ckpt,
                                MutationPlan(mutations=(SWING,)))
        assert lineage.quarantined == []
        assert not (seeded_ckpt / "quarantine").exists()


class TestBuilderFlagValidation:
    def test_delta_requires_checkpoint_dir(self):
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            MapBuilder(small_world(), delta=True)


# ---------------------------------------------------------------------------
# Manifest validation (satellite: per-stage detail + delta section)
# ---------------------------------------------------------------------------

@pytest.fixture()
def delta_manifest(seeded_ckpt):
    scenario = small_world()
    plan = MutationPlan(mutations=(SWING,))
    apply_mutation_plan(scenario, plan)
    builder = MapBuilder(scenario, checkpoint_dir=seeded_ckpt,
                         delta=True, delta_plan=plan)
    builder.build()
    return builder.manifest(command="summary", scale="small").to_dict()


class TestManifestValidation:
    def test_delta_manifest_validates(self, delta_manifest):
        validate_manifest(delta_manifest)
        delta = delta_manifest["delta"]
        assert delta["kinds"] == ["activity-swing"]
        assert delta["aspects"] == ["activity"]
        assert set(delta["input_digests"]) == set(PRIMARY_STAGES)

    def test_lineage_mismatch_names_the_stage_lists(self,
                                                    delta_manifest):
        import copy
        payload = copy.deepcopy(delta_manifest)
        payload["checkpoint"]["stages_reused"].remove("services")
        with pytest.raises(ValidationError) as err:
            validate_manifest(payload)
        message = str(err.value)
        # The error must name the lists, not just their lengths, so the
        # dropped stage is visible in the message itself.
        assert "stages_reused=['root-logs']" in message
        assert ("stages_recomputed=['cache-probing', 'users', "
                "'routes']") in message

    def test_lineage_overlap_names_the_stage(self, delta_manifest):
        import copy
        payload = copy.deepcopy(delta_manifest)
        payload["checkpoint"]["stages_reused"].append("routes")
        payload["checkpoint"]["stages_total"] += 1
        with pytest.raises(ValidationError,
                           match=r"both reused and recomputed: "
                                 r"\['routes'\]"):
            validate_manifest(payload)

    def test_older_format_rejected(self, delta_manifest):
        import copy
        payload = copy.deepcopy(delta_manifest)
        payload["format_version"] = 3
        with pytest.raises(ValidationError,
                           match="format_version must be 5, got 3"):
            validate_manifest(payload)

    def test_delta_section_requires_checkpoint(self, delta_manifest):
        import copy
        payload = copy.deepcopy(delta_manifest)
        payload["checkpoint"] = None
        with pytest.raises(ValidationError,
                           match="requires a checkpoint section"):
            validate_manifest(payload)

    def test_delta_section_schema_errors(self, delta_manifest):
        import copy
        payload = copy.deepcopy(delta_manifest)
        payload["delta"]["mutation_count"] = -1
        payload["delta"]["input_digests"] = {"users": 7}
        payload["delta"]["stages_reused"].append("routes")
        with pytest.raises(ValidationError) as err:
            validate_manifest(payload)
        message = str(err.value)
        assert "delta.mutation_count" in message
        assert "delta.input_digests" in message
        assert "both reused and recomputed" in message
