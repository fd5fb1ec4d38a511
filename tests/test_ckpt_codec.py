"""The snapshot codec round-trips every value it supports.

``stage_payload_from_dict(stage_payload_to_dict(x))``, through a real
:class:`CheckpointStore` (JSON body plus raw array blob), gives back
``x`` with the same types, dict order, array dtypes, shapes and bytes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ckpt import CheckpointStore
from repro.core.serialize import (stage_payload_from_dict,
                                  stage_payload_to_dict)
from repro.errors import ValidationError
from repro.measure.reverse_traceroute import PathPair
from repro.net.geography import City, WorldAtlas
from repro.services.tls import Certificate

ATLAS = WorldAtlas.default()
CITIES = ATLAS.cities
INPUTS = "i" * 64

hashable_scalars = (st.none() | st.booleans() | st.integers()
                    | st.floats(allow_nan=False) | st.text(max_size=8))
scalars = hashable_scalars | st.floats()
# Long enough to be packed into an int64 / float64 array.
packable = (st.lists(st.integers(-2**63, 2**63 - 1), min_size=64,
                     max_size=80)
            | st.lists(st.floats(), min_size=64, max_size=80))
arrays = hnp.arrays(
    st.sampled_from([np.bool_, np.int8, np.uint16, np.int32, np.int64,
                     np.float32, np.float64]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
cities = st.integers(0, len(CITIES) - 1).map(lambda i: CITIES[i])
hashables = st.recursive(
    hashable_scalars | cities,
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6)


def _containers(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(hashables, inner, max_size=4)
            | st.sets(hashables, max_size=4)
            | st.frozensets(hashables, max_size=4)
            | st.builds(Certificate, organization=st.text(max_size=8),
                        common_name=inner, sans=inner)
            | st.builds(PathPair, vp_asn=st.integers(),
                        remote_asn=inner, forward=inner, reverse=inner))


values = st.recursive(scalars | packable | arrays | cities, _containers,
                      max_leaves=12)


def assert_same(got, want):
    """Equal, of the same type, recursively — dict order, float sign,
    array dtype, shape and bytes included."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable
    elif isinstance(want, float):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
            assert math.copysign(1, got) == math.copysign(1, want)
    elif isinstance(want, dict):
        assert len(got) == len(want)
        for (gk, gv), (wk, wv) in zip(got.items(), want.items()):
            assert_same(gk, wk)
            assert_same(gv, wv)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif dataclasses.is_dataclass(want) and not isinstance(want, City):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return CheckpointStore(tmp_path_factory.mktemp("ckpt"),
                           config_digest="c" * 16,
                           fault_plan_digest="f" * 16,
                           options_digest="o" * 16)


def round_trip(store, value):
    store.save("users", stage_payload_to_dict("users", value), {}, {},
               INPUTS)
    payload = store.load("users", None, INPUTS).payload
    return stage_payload_from_dict("users", payload, atlas=ATLAS)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=values)
def test_round_trip_through_store(store, value):
    assert_same(round_trip(store, value), value)


def test_long_int_and_float_sequences_are_packed():
    ints, floats = list(range(100)), [0.5] * 100
    encoded = stage_payload_to_dict("users", {"ints": ints, "fs": floats})
    keys, values = encoded["dict"]
    assert [v["list"].dtype for v in values] == [np.int64, np.float64]
    # Short sequences and ints past int64 stay inline JSON.
    assert stage_payload_to_dict("users", (1, 2)) == {"tuple": [1, 2]}
    big = [2**70] * 100
    assert stage_payload_to_dict("users", big) == {"list": big}


def test_numpy_scalars_decode_as_python_scalars(store):
    got = round_trip(store, [np.int64(3), np.float64(0.25), np.bool_(True)])
    assert_same(got, [3, 0.25, True])


def test_unsupported_type_is_refused():
    with pytest.raises(ValidationError, match="cannot snapshot a object"):
        stage_payload_to_dict("users", {"x": object()})


@pytest.mark.parametrize("payload, match", [
    ({"Evil": {}}, "unknown class"),
    ({"Certificate": {"organization": "o"}}, "missing required key"),
    ({"set": [{"list": [1]}]}, "unhashable"),
    ({"dict": [[1, 2], []]}, "2 keys but 0 values"),
    ({"City": ["XX", "Nowhere"]}, "unknown city"),
    ([1, 2], "not a snapshot value"),
])
def test_malformed_payload_raises_validation_error(payload, match):
    with pytest.raises(ValidationError, match=match):
        stage_payload_from_dict("users", payload, atlas=ATLAS)
