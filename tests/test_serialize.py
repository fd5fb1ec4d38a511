"""Tests for map JSON serialisation."""

import json

import numpy as np
import pytest

from repro.core.builder import BuilderOptions, MapBuilder
from repro.core.serialize import (map_from_dict, map_from_json,
                                  map_to_dict, map_to_json)
from repro.errors import ValidationError
from repro.faults import FaultPlan


class TestRoundTrip:
    def test_users_component_roundtrip(self, small_itm, small_scenario):
        text = map_to_json(small_itm)
        restored = map_from_json(
            text, atlas=small_scenario.atlas,
            prefix_asn=small_scenario.prefixes.asn_array)
        assert np.array_equal(restored.users.detected_prefixes,
                              small_itm.users.detected_prefixes)
        assert restored.users.activity_by_as == \
            small_itm.users.activity_by_as
        assert restored.users.techniques == small_itm.users.techniques

    def test_services_component_roundtrip(self, small_itm,
                                          small_scenario):
        restored = map_from_json(map_to_json(small_itm),
                                 atlas=small_scenario.atlas)
        assert set(restored.services.sites_by_org) == \
            set(small_itm.services.sites_by_org)
        org = next(iter(small_itm.services.sites_by_org))
        original = small_itm.services.sites_by_org[org]
        loaded = restored.services.sites_by_org[org]
        assert [(s.prefix_id, s.asn, s.is_offnet) for s in original] == \
            [(s.prefix_id, s.asn, s.is_offnet) for s in loaded]
        loaded_u2h = restored.services.user_to_host
        assert loaded_u2h.keys() == small_itm.services.user_to_host.keys()
        for key, columns in small_itm.services.user_to_host.items():
            for got, want in zip(loaded_u2h[key], columns):
                assert got.dtype == np.int64
                assert np.array_equal(got, want)

    def test_site_cities_restored(self, small_itm, small_scenario):
        restored = map_from_json(map_to_json(small_itm),
                                 atlas=small_scenario.atlas)
        for org, sites in small_itm.services.sites_by_org.items():
            for original, loaded in zip(
                    sites, restored.services.sites_by_org[org]):
                if original.estimated_city is None:
                    assert loaded.estimated_city is None
                else:
                    assert loaded.estimated_city.name == \
                        original.estimated_city.name

    def test_routes_component_roundtrip(self, small_itm):
        restored = map_from_json(map_to_json(small_itm))
        assert restored.routes.paths == small_itm.routes.paths
        assert restored.routes.predictability == \
            small_itm.routes.predictability

    def test_queries_work_after_restore(self, small_itm, small_scenario):
        restored = map_from_json(
            map_to_json(small_itm),
            prefix_asn=small_scenario.prefixes.asn_array)
        top = restored.users.top_ases(1)[0][0]
        assert restored.traffic_weight_for_as(top) > 0
        assert restored.services_serving_as(top)

    def test_json_is_valid_and_sorted(self, small_itm):
        text = map_to_json(small_itm)
        payload = json.loads(text)
        assert payload["format_version"] == 2
        assert text == json.dumps(payload, sort_keys=True,
                                  separators=(",", ":"))

    def test_unsupported_version_rejected(self, small_itm):
        payload = map_to_dict(small_itm)
        payload["format_version"] = 99
        with pytest.raises(ValidationError):
            map_from_dict(payload)


class TestMalformedPayloads:
    """Decoding errors name the offending key, not a bare KeyError."""

    def test_missing_component_named(self, small_itm):
        payload = map_to_dict(small_itm)
        del payload["users"]
        with pytest.raises(ValidationError,
                           match="missing required key 'users'"):
            map_from_dict(payload)

    def test_missing_nested_key_named(self, small_itm):
        payload = map_to_dict(small_itm)
        del payload["users"]["activity_by_prefix"]
        with pytest.raises(
                ValidationError,
                match="users.*missing required key 'activity_by_prefix'"):
            map_from_dict(payload)

    def test_wrong_type_names_key_and_expectation(self, small_itm):
        payload = map_to_dict(small_itm)
        payload["users"]["activity_by_prefix"] = 7
        with pytest.raises(ValidationError,
                           match="activity_by_prefix must be an object, "
                                 "got int"):
            map_from_dict(payload)

    def test_bool_rejected_where_number_expected(self, small_itm):
        payload = map_to_dict(small_itm)
        org = next(iter(payload["services"]["sites_by_org"]))
        payload["services"]["sites_by_org"][org][0]["prefix_id"] = True
        with pytest.raises(ValidationError,
                           match="prefix_id must be an integer, got bool"):
            map_from_dict(payload)

    def test_bad_city_pair_rejected(self, small_itm):
        payload = map_to_dict(small_itm)
        org = next(iter(payload["services"]["sites_by_org"]))
        payload["services"]["sites_by_org"][org][0]["city"] = ["lonely"]
        with pytest.raises(ValidationError, match="country_code"):
            map_from_dict(payload)

    def test_invalid_json_text_wrapped(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            map_from_json("{broken")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValidationError, match="must be an object"):
            map_from_dict([1, 2, 3])


class TestDegradedMapRoundTrip:
    """Degraded builds (missing techniques, total fault weather) still
    serialize and restore losslessly — the serializer must not assume a
    fully populated map."""

    def _assert_roundtrip(self, scenario, itm):
        text = map_to_json(itm)
        restored = map_from_json(text, atlas=scenario.atlas)
        assert map_to_json(restored) == text

    def test_probing_only_map(self, small_scenario):
        itm = MapBuilder(small_scenario, options=BuilderOptions(
            use_root_logs=False)).build()
        self._assert_roundtrip(small_scenario, itm)

    def test_logs_only_map(self, small_scenario):
        itm = MapBuilder(small_scenario, options=BuilderOptions(
            use_cache_probing=False)).build()
        self._assert_roundtrip(small_scenario, itm)

    def test_total_fault_weather_map(self, small_scenario):
        itm = MapBuilder(small_scenario,
                         faults=FaultPlan.uniform(1.0, seed=3)).build()
        assert itm.users.detected_prefixes.size == 0
        self._assert_roundtrip(small_scenario, itm)
