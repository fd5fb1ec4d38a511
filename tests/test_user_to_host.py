"""The columnar user->host contract.

Every ``ServicesComponent.user_to_host`` value is one ``(clients,
hosts)`` pair of 1-D int64 arrays, from the builder through the stage
snapshot to :class:`MapStore`, and each client appears once per service.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import MapBuilder
from repro.core.mapstore import MapStore
from repro.core.serialize import stage_payload_from_dict
from repro.faults import FaultPlan
from repro.services.hypergiants import RedirectionScheme

from .test_ckpt import store_for


def _is_int64_column(column) -> bool:
    return (type(column) is np.ndarray and column.dtype == np.int64
            and column.ndim == 1)


def _field(node, name):
    """Member ``name`` of an encoded ``{"dict": [keys, values]}``."""
    keys, values = node["dict"]
    return values[keys.index(name)]


def test_snapshot_carries_int64_column_pairs(small_scenario, small_itm,
                                             tmp_path):
    ckpt = tmp_path / "ckpt"
    MapBuilder(small_scenario, checkpoint_dir=ckpt).build()
    [path] = (ckpt / "snapshots").glob("services.*.json")
    store, inputs = store_for(path, ckpt)
    payload = store.load("services", None, inputs).payload

    encoded = _field(payload, "component")["ServicesComponent"]
    keys, values = encoded["user_to_host"]["dict"]
    expected = small_itm.services.user_to_host
    assert keys == list(expected)
    for key, value in zip(keys, values):
        # One tuple of two raw arrays; no per-entry {"dict": ...} object.
        assert list(value) == ["tuple"]
        clients, hosts = value["tuple"]
        assert _is_int64_column(clients) and _is_int64_column(hosts)
        assert np.array_equal(clients, expected[key][0])
        assert np.array_equal(hosts, expected[key][1])

    decoded = stage_payload_from_dict("services", payload,
                                      atlas=small_scenario.atlas)
    restored = decoded["component"].user_to_host
    assert list(restored) == list(expected)
    for key, (clients, hosts) in restored.items():
        assert _is_int64_column(clients) and _is_int64_column(hosts)
        assert np.array_equal(clients, expected[key][0])
        assert np.array_equal(hosts, expected[key][1])


def _one_ecs_and_one_anycast(scenario, itm):
    anycast = {s.key for s in scenario.catalog.services
               if s.redirection is RedirectionScheme.ANYCAST}
    mapped = itm.services.mapped_services()
    return (next(k for k in mapped if k not in anycast),
            next(k for k in mapped if k in anycast))


def test_host_for_user_matches_mapstore(small_scenario, small_itm):
    services = small_itm.services
    store = MapStore.from_map(small_itm)
    for key in _one_ecs_and_one_anycast(small_scenario, small_itm):
        clients, hosts = services.user_to_host[key]
        assert clients.size
        for client, host in zip(clients.tolist(), hosts.tolist()):
            assert services.host_for_user(key, client) == \
                store.host_for_user(key, client) == host
        unmapped = int(clients.max()) + 1
        assert services.host_for_user(key, unmapped) is None
        assert store.host_for_user(key, unmapped) is None


@pytest.mark.parametrize("faults", [None, "all=0.05"])
def test_client_columns_unique_per_service(small_scenario, small_itm,
                                           faults):
    itm = small_itm if faults is None else MapBuilder(
        small_scenario, faults=FaultPlan.parse(faults, seed=7)).build()
    assert itm.services.user_to_host
    for key, (clients, hosts) in itm.services.user_to_host.items():
        assert clients.size == hosts.size
        assert np.unique(clients).size == clients.size, key


def test_fully_mapped_ecs_columns_are_the_ecs_arrays(small_builder):
    """A service ECS maps completely keeps the campaign's own arrays as
    its user->host pair, read-only because they are shared."""
    ecs = small_builder.artifacts.ecs_result
    user_to_host = small_builder.itm.services.user_to_host
    assert ecs.per_service
    for key, mapping in ecs.per_service.items():
        assert (mapping.answer_pids >= 0).all(), key
        clients, hosts = user_to_host[key]
        assert clients is mapping.client_pids
        assert hosts is mapping.answer_pids
        assert not clients.flags.writeable and not hosts.flags.writeable


def test_partially_mapped_ecs_columns_are_copies(small_scenario):
    builder = MapBuilder(small_scenario,
                         faults=FaultPlan.parse("all=0.05", seed=7))
    user_to_host = builder.build().services.user_to_host
    partial = {key: mapping for key, mapping in
               builder.artifacts.ecs_result.per_service.items()
               if (mapping.answer_pids < 0).any()}
    assert partial
    for key, mapping in partial.items():
        clients, hosts = user_to_host[key]
        mapped = mapping.answer_pids >= 0
        assert not np.shares_memory(clients, mapping.client_pids)
        assert not np.shares_memory(hosts, mapping.answer_pids)
        assert (hosts >= 0).all()
        assert np.array_equal(clients, mapping.client_pids[mapped])
        assert np.array_equal(hosts, mapping.answer_pids[mapped])
