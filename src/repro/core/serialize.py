"""Map and stage-payload serialisation: durable JSON artefacts.

The paper imagines the community *publishing* the traffic map for others
to weight their analyses with (§4). This module round-trips the
measurement-derived parts of an :class:`InternetTrafficMap` through plain
JSON: activity weights, service sites (with estimated cities as
country/name pairs), user-to-host mappings, and predicted routes.

It also hosts the **stage payload codec** the ``repro.ckpt``
checkpointing subsystem snapshots builder stages with:
:func:`stage_payload_to_dict` / :func:`stage_payload_from_dict` are one
typed walker over every stage's measurement output (campaign results,
fused components, auxiliary artefacts), so a crashed build can resume
bit-identically. The walker knows containers, scalars, numeric ndarrays,
atlas cities and a whitelist of result dataclasses; it leaves ndarrays
in place for the store to write as raw bytes, and packs long all-int or
all-float sequences into arrays the same way. Codec rule: **dict
insertion order is preserved**, never sorted — some consumers accumulate
floats by iterating these dicts, and float sums are only bit-stable in
the original order.

Ground-truth-derived metadata (the scenario's prefix table) is *not*
embedded; the loader re-attaches it from a scenario when cross-component
queries need it.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..errors import ReproError, ValidationError
from ..measure.atlas import TracerouteResult, VantagePoint
from ..measure.cache_probing import CacheProbingResult
from ..measure.catchment_probe import CatchmentMeasurement
from ..measure.cloud_vantage import CloudVantageResult
from ..measure.ecs_mapping import EcsMappingResult, ServiceMappingResult
from ..measure.ipid import IpIdAnalysis
from ..measure.resolver_assoc import ResolverAssociation
from ..measure.reverse_traceroute import PathPair
from ..measure.rootlogs import RootLogCrawlResult
from ..measure.tlsscan import OrgFootprint, ScanObservation, TlsScanResult
from ..net.geography import City, WorldAtlas
from ..services.tls import Certificate
from .activity import ActivityEstimate
from .traffic_map import (ComponentCoverage, InternetTrafficMap,
                          MappedSite, RoutesComponent, ServicesComponent,
                          UsersComponent)

FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Malformed-payload helpers
# ---------------------------------------------------------------------------

_TYPE_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
}


def _describe_type(expected) -> str:
    if isinstance(expected, tuple):
        return " or ".join(_TYPE_NAMES.get(t, t.__name__)
                           for t in expected)
    return _TYPE_NAMES.get(expected, expected.__name__)


def _get(mapping: Any, key: str, expected, where: str) -> Any:
    """``mapping[key]`` with errors that name the key and expected type.

    Raises :class:`ValidationError` — never a bare ``KeyError`` or
    ``TypeError`` — so a truncated or hand-edited artefact explains
    itself: *which* key is missing or ill-typed, and *where*.
    """
    if not isinstance(mapping, dict):
        raise ValidationError(
            f"{where} must be an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ValidationError(f"{where} is missing required key {key!r}")
    value = mapping[key]
    # bool is an int subclass; reject it where a number is expected.
    if expected is not None and (
            not isinstance(value, expected)
            or (isinstance(value, bool)
                and bool not in (expected if isinstance(expected, tuple)
                                 else (expected,)))):
        raise ValidationError(
            f"{where}.{key} must be {_describe_type(expected)}, "
            f"got {type(value).__name__}")
    return value


def _city_to_list(city) -> Optional[List[str]]:
    if city is None:
        return None
    return [city.country_code, city.name]


def _city_from_list(entry: Any, atlas: WorldAtlas, where: str):
    if entry is None:
        return None
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValidationError(
            f"{where} must be null or a [country_code, name] pair, "
            f"got {entry!r}")
    code, name = entry
    return atlas.city(code, name)


# ---------------------------------------------------------------------------
# Component codecs (shared by the map artefact and stage snapshots)
# ---------------------------------------------------------------------------

def _users_to_dict(users: UsersComponent) -> Dict[str, Any]:
    return {
        "detected_prefixes": [int(p) for p in users.detected_prefixes],
        "activity_by_prefix": {str(k): v for k, v in
                               users.activity_by_prefix.items()},
        "activity_by_as": {str(k): v for k, v in
                           users.activity_by_as.items()},
        "techniques": list(users.techniques),
    }


def _users_from_dict(raw: Any, where: str) -> UsersComponent:
    return UsersComponent(
        detected_prefixes=np.asarray(
            _get(raw, "detected_prefixes", list, where), dtype=int),
        activity_by_prefix={
            int(k): float(v) for k, v in
            _get(raw, "activity_by_prefix", dict, where).items()},
        activity_by_as={
            int(k): float(v) for k, v in
            _get(raw, "activity_by_as", dict, where).items()},
        techniques=tuple(_get(raw, "techniques", list, where)))


def _services_to_dict(services: ServicesComponent) -> Dict[str, Any]:
    sites = {
        org: [{
            "prefix_id": site.prefix_id,
            "asn": site.asn,
            "city": _city_to_list(site.estimated_city),
            "offnet": site.is_offnet,
        } for site in site_list]
        for org, site_list in services.sites_by_org.items()}
    return {
        "sites_by_org": sites,
        "serving_asns_by_domain": {
            d: sorted(asns) for d, asns in
            services.serving_asns_by_domain.items()},
        # Columnar on purpose: the per-service user->host map is the
        # bulk of the services payload (every client prefix appears in
        # every mapped service), and parallel int arrays encode, parse
        # and decode several times faster than a str-keyed object.
        "user_to_host": {
            key: {"clients": list(mapping.keys()),
                  "hosts": list(mapping.values())}
            for key, mapping in services.user_to_host.items()},
        "unmapped_services": list(services.unmapped_services),
    }


def _user_to_host_from(mapping: Any, where: str) -> Dict[int, int]:
    """Decode one service's columnar ``{"clients": [...], "hosts":
    [...]}`` user->host map, as :func:`_services_to_dict` writes it."""
    clients = _get(mapping, "clients", list, where)
    hosts = _get(mapping, "hosts", list, where)
    if len(clients) != len(hosts):
        raise ValidationError(
            f"{where} clients/hosts length mismatch: "
            f"{len(clients)} != {len(hosts)}")
    # JSON-parsed arrays are already int; coerce only when a
    # hand-edited artefact says otherwise (these arrays carry
    # hundreds of thousands of entries at scale, so the per-element
    # cast is worth skipping).
    if any(type(v) is not int for v in clients[:1] + hosts[:1]):
        return dict(zip(map(int, clients), map(int, hosts)))
    return dict(zip(clients, hosts))


def _services_from_dict(raw: Any, where: str,
                        atlas: WorldAtlas) -> ServicesComponent:
    sites_by_org = {}
    for org, site_list in _get(raw, "sites_by_org", dict, where).items():
        sites = []
        for i, entry in enumerate(site_list):
            site_where = f"{where}.sites_by_org[{org!r}][{i}]"
            city = _city_from_list(
                _get(entry, "city", None, site_where),
                atlas, f"{site_where}.city")
            sites.append(MappedSite(
                prefix_id=int(_get(entry, "prefix_id", int, site_where)),
                asn=int(_get(entry, "asn", int, site_where)),
                organization=org,
                estimated_city=city,
                is_offnet=bool(_get(entry, "offnet", bool, site_where))))
        sites_by_org[org] = sites
    return ServicesComponent(
        sites_by_org=sites_by_org,
        serving_asns_by_domain={
            d: set(asns) for d, asns in
            _get(raw, "serving_asns_by_domain", dict, where).items()},
        user_to_host={
            key: _user_to_host_from(mapping,
                                    f"{where}.user_to_host[{key!r}]")
            for key, mapping in
            _get(raw, "user_to_host", dict, where).items()},
        unmapped_services=tuple(
            _get(raw, "unmapped_services", list, where)))


def _routes_to_dict(routes: RoutesComponent) -> Dict[str, Any]:
    return {
        "paths": [{
            "src": src, "dst": dst,
            "path": list(path) if path is not None else None,
        } for (src, dst), path in routes.paths.items()],
        "predictability": routes.predictability,
    }


def _routes_from_dict(raw: Any, where: str) -> RoutesComponent:
    paths = {}
    for i, entry in enumerate(_get(raw, "paths", list, where)):
        entry_where = f"{where}.paths[{i}]"
        path_raw = _get(entry, "path", None, entry_where)
        path = tuple(map(int, path_raw)) if path_raw is not None else None
        paths[(int(_get(entry, "src", int, entry_where)),
               int(_get(entry, "dst", int, entry_where)))] = path
    return RoutesComponent(
        paths=paths,
        predictability=float(
            _get(raw, "predictability", (int, float), where)))


def _coverage_from_dict(raw: Any,
                        where: str) -> Dict[str, ComponentCoverage]:
    coverage = {}
    for name, entry in raw.items():
        entry_where = f"{where}[{name!r}]"
        coverage[name] = ComponentCoverage(
            component=name,
            coverage=float(_get(entry, "coverage", (int, float),
                                entry_where)),
            techniques_intended=tuple(
                _get(entry, "techniques_intended", list, entry_where)),
            techniques_delivered=tuple(
                _get(entry, "techniques_delivered", list, entry_where)),
            notes=tuple(_get(entry, "notes", list, entry_where)))
    return coverage


# ---------------------------------------------------------------------------
# Whole-map artefact
# ---------------------------------------------------------------------------

def map_to_dict(itm: InternetTrafficMap) -> Dict[str, Any]:
    """Serialisable dict of the map's measurement-derived content."""
    return {
        "format_version": FORMAT_VERSION,
        "seed": itm.metadata.get("seed"),
        "users": _users_to_dict(itm.users),
        "services": _services_to_dict(itm.services),
        "routes": _routes_to_dict(itm.routes),
        "coverage": {
            name: {
                "coverage": record.coverage,
                "techniques_intended": list(record.techniques_intended),
                "techniques_delivered": list(record.techniques_delivered),
                "notes": list(record.notes),
            } for name, record in itm.coverage.items()},
    }


def map_to_json(itm: InternetTrafficMap) -> str:
    """The map artefact: :func:`map_to_dict` as canonical JSON.

    Keys sorted, compact separators, no newline anywhere (``json``
    escapes the ones inside strings). This is the one encoding of a map:
    every writer writes exactly these bytes, and the served digest is
    their SHA-256 (see :class:`~repro.core.mapstore.MapStore`).
    """
    return json.dumps(map_to_dict(itm), sort_keys=True,
                      separators=(",", ":"))


def map_from_dict(payload: Dict[str, Any],
                  atlas: Optional[WorldAtlas] = None,
                  prefix_asn: Optional[np.ndarray] = None
                  ) -> InternetTrafficMap:
    """Rebuild a map from its serialised form.

    ``atlas`` resolves site cities back to :class:`City` objects;
    ``prefix_asn`` re-enables the cross-component queries that need the
    prefix-to-AS table. Malformed payloads raise
    :class:`ValidationError` naming the offending key and the expected
    type, never a bare ``KeyError``; a value the decoders cannot convert
    (a non-numeric key or weight, an unknown city) raises one naming
    its section.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"map payload must be an object, got "
            f"{type(payload).__name__}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported map format {payload.get('format_version')!r}")
    atlas = atlas or WorldAtlas.default()
    decoders = (
        ("users", _users_from_dict),
        ("services", partial(_services_from_dict, atlas=atlas)),
        ("routes", _routes_from_dict),
        ("coverage", _coverage_from_dict),
    )
    sections = {}
    for name, decode in decoders:
        raw = _get(payload, name, dict, "map payload")
        try:
            sections[name] = decode(raw, name)
        except ValidationError:
            raise
        except (ReproError, TypeError, ValueError) as exc:
            raise ValidationError(f"map payload {name}: {exc}") from None

    metadata: Dict[str, Any] = {"seed": payload.get("seed")}
    if prefix_asn is not None:
        metadata["prefix_asn"] = prefix_asn
    return InternetTrafficMap(metadata=metadata, **sections)


def map_from_json(text: Union[str, bytes],
                  atlas: Optional[WorldAtlas] = None,
                  prefix_asn: Optional[np.ndarray] = None
                  ) -> InternetTrafficMap:
    """Parse JSON text (or its bytes) and rebuild the map (see
    :func:`map_from_dict`)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes not UTF-8
        raise ValidationError(f"map artefact is not valid JSON: {exc}") \
            from None
    return map_from_dict(payload, atlas=atlas, prefix_asn=prefix_asn)


# ---------------------------------------------------------------------------
# Stage payload codec (repro.ckpt snapshots)
# ---------------------------------------------------------------------------

#: The stage-output classes a snapshot may name, by class name. A
#: checkpoint dir is input from outside the program, so decoding builds
#: these, the containers below and atlas cities, and nothing else.
_CLASSES = {cls.__name__: cls for cls in (
    ActivityEstimate, CacheProbingResult, CatchmentMeasurement,
    Certificate, CloudVantageResult, EcsMappingResult, IpIdAnalysis,
    MappedSite, OrgFootprint, PathPair, ResolverAssociation,
    RootLogCrawlResult, RoutesComponent, ScanObservation,
    ServiceMappingResult, ServicesComponent, TlsScanResult,
    TracerouteResult, UsersComponent, VantagePoint)}

#: Each whitelisted class's field names, in declaration order.
_FIELDS = {name: tuple(f.name for f in dataclasses.fields(cls))
           for name, cls in _CLASSES.items()}

_SEQUENCES = {"list": list, "tuple": tuple, "set": set,
              "frozenset": frozenset}

_SCALARS = (str, int, float, bool)

#: Shortest all-int or all-float sequence packed into an array. Shorter
#: ones (route paths, link pairs) stay inline JSON, where a blob
#: reference would cost more than it saves.
_PACK_MIN = 64


def _pack(items) -> Any:
    """A sequence's snapshot form: an int64 or float64 array when every
    item is a plain int, or every one a float; else its encoded items.
    ``items`` is a list, tuple or dict view (sized, re-iterable)."""
    if len(items) >= _PACK_MIN:
        kinds = set(map(type, items))
        if kinds == {float}:
            return np.fromiter(items, np.float64, len(items))
        if kinds == {int}:
            try:
                return np.fromiter(items, np.int64, len(items))
            except OverflowError:
                pass
    return [_encode(item) for item in items]


def _encode(value: Any) -> Any:
    """One value's snapshot form (see :func:`stage_payload_to_dict`)."""
    kind = type(value)
    if value is None or kind in _SCALARS or kind is np.ndarray:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if kind is dict:
        return {"dict": [_pack(value), _pack(value.values())]}
    if kind in (set, frozenset):
        try:    # sorted, so the snapshot bytes never depend on hashing
            value = sorted(value)
        except TypeError:
            pass
        return {kind.__name__: _pack(value)}
    if kind in (list, tuple):
        return {kind.__name__: _pack(value)}
    if kind is City:
        return {"City": [value.country_code, value.name]}
    if _CLASSES.get(kind.__name__) is kind:
        return {kind.__name__: {name: _encode(getattr(value, name))
                                for name in _FIELDS[kind.__name__]}}
    raise ValidationError(f"cannot snapshot a {kind.__name__}")


def _unpack(items: Any, atlas: WorldAtlas) -> list:
    if isinstance(items, np.ndarray):
        return items.tolist()
    if type(items) is not list:
        raise ValidationError(f"not a snapshot sequence: {items!r:.80}")
    return [_decode(item, atlas) for item in items]


def _decode(node: Any, atlas: WorldAtlas) -> Any:
    """Inverse of :func:`_encode`; builds only whitelisted types."""
    if node is None or type(node) in _SCALARS \
            or isinstance(node, np.ndarray):
        return node
    if type(node) is not dict or len(node) != 1:
        raise ValidationError(f"not a snapshot value: {node!r:.80}")
    (tag, inner), = node.items()
    if tag in _SEQUENCES:
        return _SEQUENCES[tag](_unpack(inner, atlas))
    if tag in ("dict", "City") and (type(inner) is not list
                                    or len(inner) != 2):
        raise ValidationError(f"{tag} must be a pair, got {inner!r:.80}")
    if tag == "dict":
        keys, values = (_unpack(part, atlas) for part in inner)
        if len(keys) != len(values):
            raise ValidationError(f"dict has {len(keys)} keys but "
                                  f"{len(values)} values")
        return dict(zip(keys, values))
    if tag == "City":
        return atlas.city(*inner)
    if tag not in _CLASSES:
        raise ValidationError(f"unknown class {tag!r}")
    if type(inner) is not dict:
        raise ValidationError(f"{tag} fields must be an object")
    names = _FIELDS[tag]
    for name in names:
        if name not in inner:
            raise ValidationError(f"{tag} is missing required key {name!r}")
    if len(inner) != len(names):
        raise ValidationError(f"{tag} has unknown keys "
                              f"{sorted(set(inner) - set(names))}")
    return _CLASSES[tag](**{name: _decode(inner[name], atlas)
                            for name in names})


def stage_payload_to_dict(stage: str, value: Any) -> Any:
    """Encode one builder stage's output for a ``repro.ckpt`` snapshot.

    ``value`` is the stage's native output: a campaign result, a fused
    component bundle or an auxiliary artefact, possibly None when the
    campaign failed. The result is plain JSON except for numeric
    ndarrays, which :class:`~repro.ckpt.CheckpointStore` stores as raw
    bytes. Scalars stay themselves (numpy scalars become the equal
    Python scalar). Every other value is a one-key object naming its
    type: ``{"list"|"tuple"|"set"|"frozenset": items}``, ``{"dict":
    [keys, values]}``, ``{"City": [country_code, name]}`` or ``{class:
    {field: value}}`` for the whitelisted result classes. ``items``,
    ``keys`` and ``values`` are lists of encoded values, or one int64 or
    float64 array when the sequence is long and all plain ints or all
    floats. Dict insertion order is preserved (see module docstring);
    sets are written sorted.
    """
    try:
        return _encode(value)
    except ValidationError as exc:
        raise ValidationError(f"stage[{stage!r}]: {exc}") from None


def stage_payload_from_dict(stage: str, payload: Any,
                            atlas: Optional[WorldAtlas] = None) -> Any:
    """Decode a snapshot payload back into the stage's native output.

    The inverse of :func:`stage_payload_to_dict`: values come back with
    their types, dict order, and array dtypes and shapes. A malformed
    payload raises :class:`ValidationError`. ``atlas`` resolves
    serialized cities (services sites, atlas vantage points).
    """
    try:
        return _decode(payload, atlas or WorldAtlas.default())
    except (ReproError, TypeError, ValueError) as exc:
        # TypeError: an unhashable set member or dict key.
        raise ValidationError(f"stage[{stage!r}]: {exc}") from None
