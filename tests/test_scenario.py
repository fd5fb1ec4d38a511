"""Tests for scenario assembly: determinism, wiring, and the public/
privileged separation."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro import ScenarioConfig, build_scenario
from repro.core.builder import MapBuilder
from repro.core.serialize import map_to_json
from repro.errors import ConfigError
from repro.scenario import ASPECTS, Scenario, derive_surfaces

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Every constructor of a derived surface.
SURFACE_CONSTRUCTORS = (
    "AnycastModel(", "GroundTruthMapping(", "AuthoritativeDns(",
    "issue_certificates(", "build_flow_incidence(", "assign_flows(",
    "build_routers(",
    "CacheOracle.calibrated(", "TemporalCacheOracle.from_oracle(",
    "build_public_view(")


class TestDeterminism:
    def test_same_seed_identical_world(self):
        config = ScenarioConfig.small(seed=123)
        a = build_scenario(config)
        b = build_scenario(config)
        assert a.graph.link_set() == b.graph.link_set()
        assert np.array_equal(a.population.users_per_prefix,
                              b.population.users_per_prefix)
        assert np.array_equal(a.traffic.bytes_per_day,
                              b.traffic.bytes_per_day)
        assert np.array_equal(a.gdns.gdns_share, b.gdns.gdns_share)
        assert a.apnic.estimates == b.apnic.estimates
        assert a.public_view.graph.link_set() == \
            b.public_view.graph.link_set()

    def test_different_seed_different_world(self):
        a = build_scenario(ScenarioConfig.small(seed=1))
        b = build_scenario(ScenarioConfig.small(seed=2))
        assert a.graph.link_set() != b.graph.link_set()
        assert not np.array_equal(a.population.users_per_prefix,
                                  b.population.users_per_prefix)


class TestWiring:
    def test_prefix_table_frozen(self, small_scenario):
        assert small_scenario.prefixes.frozen

    def test_prefix_count_near_target(self, small_scenario):
        target = small_scenario.config.population.target_prefixes
        assert 0.8 * target <= len(small_scenario.prefixes) <= 1.5 * target

    def test_hypergiant_asns_resolvable(self, small_scenario):
        for key in small_scenario.catalog.hypergiants:
            asn = small_scenario.hypergiant_asn(key)
            assert asn in small_scenario.registry

    def test_unknown_hypergiant_raises(self, small_scenario):
        with pytest.raises(ConfigError):
            small_scenario.hypergiant_asn("nope")

    def test_gdns_operator_is_googol(self, small_scenario):
        assert small_scenario.gdns_operator_asn == \
            small_scenario.hypergiant_asn("googol")

    def test_anycast_models_for_anycast_hypergiants(self, small_scenario):
        expected = {key for key, spec in
                    small_scenario.catalog.hypergiants.items()
                    if spec.uses_anycast}
        assert set(small_scenario.anycast_models) == expected

    def test_routable_ids_cover_table(self, small_scenario):
        ids = small_scenario.routable_prefix_ids()
        assert len(ids) == len(small_scenario.prefixes)

    def test_user_prefix_ids_subset(self, small_scenario):
        users = small_scenario.user_prefix_ids()
        assert len(users) < len(small_scenario.prefixes)
        assert (small_scenario.population.users_per_prefix[users] > 0).all()

    def test_country_restriction_respected(self, small_scenario):
        codes = set(small_scenario.atlas.country_codes)
        for asys in small_scenario.registry:
            assert asys.country_code in codes

    def test_oracle_calibrated(self, small_scenario):
        assert small_scenario.cache_oracle.observability_scale > 0

    def test_default_config_used_when_none(self):
        # Just validate config defaulting logic, not a full build.
        config = ScenarioConfig.default()
        config.validate()
        assert config.country_codes is None


class TestDeriveSurfaces:
    def test_rederiving_every_aspect_keeps_the_map(self, small_config,
                                                   small_itm):
        scenario = build_scenario(small_config)
        before = scenario.mapping
        derive_surfaces(scenario, ASPECTS)
        assert scenario.mapping is not before
        assert map_to_json(MapBuilder(scenario).build()) == \
            map_to_json(small_itm)

    def test_derives_exactly_the_init_false_fields(self, small_config):
        generated = build_scenario(small_config)
        raw = {f.name: getattr(generated, f.name)
               for f in fields(Scenario) if f.init}
        derived = {f.name for f in fields(Scenario) if not f.init}
        assert derived
        bare = Scenario(**raw)
        assert not derived & set(vars(bare))
        derive_surfaces(bare, ASPECTS)
        assert set(vars(bare)) == set(raw) | derived

    def test_constructors_called_only_in_derive_surfaces(self):
        body = (SRC / "scenario.py").read_text().split(
            "def derive_surfaces(", 1)[1]
        for name in SURFACE_CONSTRUCTORS:
            call = re.compile(rf"(?<![\w.]){re.escape(name)}")
            sites = [path.relative_to(SRC).as_posix()
                     for path in sorted(SRC.rglob("*.py"))
                     for line in path.read_text().splitlines()
                     if call.search(line)
                     and not line.lstrip().startswith("def ")]
            assert sites == ["scenario.py"], (name, sites)
            assert len(call.findall(body)) == 1, name

    def test_no_aspect_rebuilds_nothing(self, small_scenario):
        mapping = small_scenario.mapping
        derive_surfaces(small_scenario, ())
        assert small_scenario.mapping is mapping
