"""Map and stage-payload serialisation: durable JSON artefacts.

The paper imagines the community *publishing* the traffic map for others
to weight their analyses with (§4). This module round-trips the
measurement-derived parts of an :class:`InternetTrafficMap` through plain
JSON: activity weights, service sites (with estimated cities as
country/name pairs), user-to-host mappings, and predicted routes.

It also hosts the **per-stage payload codecs** the ``repro.ckpt``
checkpointing subsystem snapshots builder stages with:
:func:`stage_payload_to_dict` / :func:`stage_payload_from_dict` encode
each stage's measurement output (campaign results, fused components,
auxiliary artefacts) so a crashed build can resume bit-identically.
Codec rule: **dict insertion order is preserved**, never sorted — some
consumers accumulate floats by iterating these dicts, and float sums are
only bit-stable in the original order.

Ground-truth-derived metadata (the scenario's prefix table) is *not*
embedded; the loader re-attaches it from a scenario when cross-component
queries need it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..errors import ValidationError
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
from ..net.geography import WorldAtlas
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


def _users_from_dict(raw: Any, where: str = "users") -> UsersComponent:
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


def _services_from_dict(raw: Any, atlas: WorldAtlas,
                        where: str = "services") -> ServicesComponent:
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


def _routes_from_dict(raw: Any, where: str = "routes") -> RoutesComponent:
    paths = {}
    for i, entry in enumerate(_get(raw, "paths", list, where)):
        entry_where = f"{where}.paths[{i}]"
        path_raw = _get(entry, "path", None, entry_where)
        path = tuple(path_raw) if path_raw is not None else None
        paths[(int(_get(entry, "src", int, entry_where)),
               int(_get(entry, "dst", int, entry_where)))] = path
    return RoutesComponent(
        paths=paths,
        predictability=float(
            _get(raw, "predictability", (int, float), where)))


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
    type, never a bare ``KeyError``.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"map payload must be an object, got "
            f"{type(payload).__name__}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported map format {payload.get('format_version')!r}")
    atlas = atlas or WorldAtlas.default()

    users = _users_from_dict(
        _get(payload, "users", dict, "map payload"), "users")
    services = _services_from_dict(
        _get(payload, "services", dict, "map payload"), atlas, "services")
    routes = _routes_from_dict(
        _get(payload, "routes", dict, "map payload"), "routes")

    coverage = {}
    for name, entry in _get(payload, "coverage", dict,
                            "map payload").items():
        where = f"coverage[{name!r}]"
        coverage[name] = ComponentCoverage(
            component=name,
            coverage=float(_get(entry, "coverage", (int, float), where)),
            techniques_intended=tuple(
                _get(entry, "techniques_intended", list, where)),
            techniques_delivered=tuple(
                _get(entry, "techniques_delivered", list, where)),
            notes=tuple(_get(entry, "notes", list, where)))

    metadata: Dict[str, Any] = {"seed": payload.get("seed")}
    if prefix_asn is not None:
        metadata["prefix_asn"] = prefix_asn
    return InternetTrafficMap(users=users, services=services,
                              routes=routes, metadata=metadata,
                              coverage=coverage)


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
# Stage payload codecs (repro.ckpt snapshots)
# ---------------------------------------------------------------------------

def _int_list(array) -> List[int]:
    return [int(v) for v in np.asarray(array).ravel()]


def _cache_result_to_dict(result: Optional[CacheProbingResult]):
    if result is None:
        return None
    return {
        "prefix_ids": _int_list(result.prefix_ids),
        "service_sids": [int(s) for s in result.service_sids],
        "hits": [[int(h) for h in row] for row in result.hits],
        "rounds": int(result.rounds),
        "pop_of_prefix": _int_list(result.pop_of_prefix),
    }


def _cache_result_from_dict(raw, atlas, where):
    if raw is None:
        return None
    n = len(_get(raw, "prefix_ids", list, where))
    hits = np.asarray(_get(raw, "hits", list, where),
                      dtype=np.int64).reshape(
        len(_get(raw, "service_sids", list, where)), n)
    return CacheProbingResult(
        prefix_ids=np.asarray(raw["prefix_ids"], dtype=np.int64),
        service_sids=tuple(int(s) for s in raw["service_sids"]),
        hits=hits,
        rounds=int(_get(raw, "rounds", int, where)),
        pop_of_prefix=np.asarray(
            _get(raw, "pop_of_prefix", list, where), dtype=np.int64))


def _rootlog_result_to_dict(result: Optional[RootLogCrawlResult]):
    if result is None:
        return None
    return {
        "volume_by_as": {str(k): v for k, v in
                         result.volume_by_as.items()},
        "roots_crawled": result.roots_crawled,
        "roots_total": result.roots_total,
        "public_resolver_volume": result.public_resolver_volume,
        "min_query_threshold": result.min_query_threshold,
        "roots_truncated": result.roots_truncated,
    }


def _rootlog_result_from_dict(raw, atlas, where):
    if raw is None:
        return None
    return RootLogCrawlResult(
        volume_by_as={int(k): float(v) for k, v in
                      _get(raw, "volume_by_as", dict, where).items()},
        roots_crawled=int(_get(raw, "roots_crawled", int, where)),
        roots_total=int(_get(raw, "roots_total", int, where)),
        public_resolver_volume=float(
            _get(raw, "public_resolver_volume", (int, float), where)),
        min_query_threshold=float(
            _get(raw, "min_query_threshold", (int, float), where)),
        roots_truncated=int(_get(raw, "roots_truncated", int, where)))


def _activity_to_dict(activity: Optional[ActivityEstimate]):
    if activity is None:
        return None
    return {
        "by_prefix": {str(k): v for k, v in activity.by_prefix.items()},
        "by_as": {str(k): v for k, v in activity.by_as.items()},
        "techniques": list(activity.techniques),
        "scale_factor": activity.scale_factor,
    }


def _activity_from_dict(raw, where):
    if raw is None:
        return None
    scale = _get(raw, "scale_factor", None, where)
    return ActivityEstimate(
        by_prefix={int(k): float(v) for k, v in
                   _get(raw, "by_prefix", dict, where).items()},
        by_as={int(k): float(v) for k, v in
               _get(raw, "by_as", dict, where).items()},
        techniques=tuple(_get(raw, "techniques", list, where)),
        scale_factor=None if scale is None else float(scale))


def _users_stage_to_dict(value):
    return {
        "component": _users_to_dict(value["component"]),
        "activity": _activity_to_dict(value["activity"]),
    }


def _users_stage_from_dict(raw, atlas, where):
    return {
        "component": _users_from_dict(
            _get(raw, "component", dict, where), f"{where}.component"),
        "activity": _activity_from_dict(
            _get(raw, "activity", None, where), f"{where}.activity"),
    }


def _tls_result_to_dict(result: Optional[TlsScanResult]):
    if result is None:
        return None
    return {
        "observations": [{
            "prefix_id": obs.prefix_id,
            "origin_asn": obs.origin_asn,
            "cert": [obs.certificate.organization,
                     obs.certificate.common_name,
                     list(obs.certificate.sans)],
        } for obs in result.observations],
        "footprints": {
            org: {
                "home_asn": fp.home_asn,
                "onnet_prefixes": list(fp.onnet_prefixes),
                "offnet_prefixes": list(fp.offnet_prefixes),
                "offnet_asns": sorted(fp.offnet_asns),
            } for org, fp in result.footprints.items()},
    }


def _tls_result_from_dict(raw, atlas, where):
    if raw is None:
        return None
    observations = []
    for i, entry in enumerate(_get(raw, "observations", list, where)):
        obs_where = f"{where}.observations[{i}]"
        cert = _get(entry, "cert", list, obs_where)
        if len(cert) != 3:
            raise ValidationError(
                f"{obs_where}.cert must be [org, common_name, sans]")
        observations.append(ScanObservation(
            prefix_id=int(_get(entry, "prefix_id", int, obs_where)),
            origin_asn=int(_get(entry, "origin_asn", int, obs_where)),
            certificate=Certificate(
                organization=cert[0], common_name=cert[1],
                sans=tuple(cert[2]))))
    footprints = {}
    for org, fp in _get(raw, "footprints", dict, where).items():
        fp_where = f"{where}.footprints[{org!r}]"
        footprints[org] = OrgFootprint(
            organization=org,
            home_asn=int(_get(fp, "home_asn", int, fp_where)),
            onnet_prefixes=[int(p) for p in
                            _get(fp, "onnet_prefixes", list, fp_where)],
            offnet_prefixes=[int(p) for p in
                             _get(fp, "offnet_prefixes", list, fp_where)],
            offnet_asns={int(a) for a in
                         _get(fp, "offnet_asns", list, fp_where)})
    return TlsScanResult(observations=observations, footprints=footprints)


def _ecs_result_to_dict(result: Optional[EcsMappingResult]):
    if result is None:
        return None
    return {
        "per_service": {
            key: {
                "client_pids": _int_list(m.client_pids),
                "answer_pids": _int_list(m.answer_pids),
            } for key, m in result.per_service.items()},
        "uncovered_services": list(result.uncovered_services),
    }


def _ecs_result_from_dict(raw, atlas, where):
    if raw is None:
        return None
    per_service = {}
    for key, entry in _get(raw, "per_service", dict, where).items():
        svc_where = f"{where}.per_service[{key!r}]"
        per_service[key] = ServiceMappingResult(
            service_key=key,
            client_pids=np.asarray(
                _get(entry, "client_pids", list, svc_where),
                dtype=np.int64),
            answer_pids=np.asarray(
                _get(entry, "answer_pids", list, svc_where),
                dtype=np.int64))
    return EcsMappingResult(
        per_service=per_service,
        uncovered_services=list(
            _get(raw, "uncovered_services", list, where)))


def _catchments_to_dict(catchments: Dict[str, CatchmentMeasurement]):
    return {
        hg: {
            "prefix_ids": _int_list(m.prefix_ids),
            "site_of_prefix": _int_list(m.site_of_prefix),
            "site_count": m.site_count,
        } for hg, m in catchments.items()}


def _catchments_from_dict(raw, atlas, where):
    catchments = {}
    for hg, entry in raw.items():
        hg_where = f"{where}[{hg!r}]"
        catchments[hg] = CatchmentMeasurement(
            prefix_ids=np.asarray(
                _get(entry, "prefix_ids", list, hg_where),
                dtype=np.int64),
            site_of_prefix=np.asarray(
                _get(entry, "site_of_prefix", list, hg_where),
                dtype=np.int64),
            site_count=int(_get(entry, "site_count", int, hg_where)))
    return catchments


def _services_stage_to_dict(value):
    return {
        "component": _services_to_dict(value["component"]),
        "tls": _tls_result_to_dict(value["tls"]),
        "ecs": _ecs_result_to_dict(value["ecs"]),
        "catchments": _catchments_to_dict(value["catchments"]),
    }


def _services_stage_from_dict(raw, atlas, where):
    return {
        "component": _services_from_dict(
            _get(raw, "component", dict, where), atlas,
            f"{where}.component"),
        "tls": _tls_result_from_dict(
            _get(raw, "tls", None, where), atlas, f"{where}.tls"),
        "ecs": _ecs_result_from_dict(
            _get(raw, "ecs", None, where), atlas, f"{where}.ecs"),
        "catchments": _catchments_from_dict(
            _get(raw, "catchments", dict, where), atlas,
            f"{where}.catchments"),
    }


def _vp_to_dict(vp: VantagePoint) -> Dict[str, Any]:
    return {"vp_id": vp.vp_id, "asn": vp.asn,
            "city": _city_to_list(vp.city)}


def _vp_from_dict(raw, atlas, where) -> VantagePoint:
    return VantagePoint(
        vp_id=int(_get(raw, "vp_id", int, where)),
        asn=int(_get(raw, "asn", int, where)),
        city=_city_from_list(_get(raw, "city", list, where), atlas,
                             f"{where}.city"))


def _atlas_stage_to_dict(value):
    if value is None:
        return None
    # traceroutes is None when the platform came up but the measurement
    # campaign itself failed (the vantage points are still usable).
    traceroutes = value["traceroutes"]
    return {
        "vantage_points": [_vp_to_dict(vp)
                           for vp in value["vantage_points"]],
        "traceroutes": None if traceroutes is None else [{
            "vp": _vp_to_dict(tr.vp),
            "dst_asn": tr.dst_asn,
            "as_path": (list(tr.as_path)
                        if tr.as_path is not None else None),
        } for tr in traceroutes],
    }


def _atlas_stage_from_dict(raw, atlas, where):
    if raw is None:
        return None
    traceroutes_raw = _get(raw, "traceroutes", None, where)
    traceroutes = None
    if traceroutes_raw is not None:
        traceroutes = []
        for i, entry in enumerate(traceroutes_raw):
            tr_where = f"{where}.traceroutes[{i}]"
            as_path = _get(entry, "as_path", None, tr_where)
            traceroutes.append(TracerouteResult(
                vp=_vp_from_dict(_get(entry, "vp", dict, tr_where), atlas,
                                 f"{tr_where}.vp"),
                dst_asn=int(_get(entry, "dst_asn", int, tr_where)),
                as_path=(tuple(int(a) for a in as_path)
                         if as_path is not None else None)))
    return {
        "vantage_points": [
            _vp_from_dict(entry, atlas, f"{where}.vantage_points[{i}]")
            for i, entry in enumerate(
                _get(raw, "vantage_points", list, where))],
        "traceroutes": traceroutes,
    }


def _path_pairs_to_dict(pairs: Optional[List[PathPair]]):
    if pairs is None:
        return None
    return [{
        "vp_asn": p.vp_asn,
        "remote_asn": p.remote_asn,
        "forward": list(p.forward) if p.forward is not None else None,
        "reverse": list(p.reverse) if p.reverse is not None else None,
    } for p in pairs]


def _path_pairs_from_dict(raw, atlas, where):
    if raw is None:
        return None
    pairs = []
    for i, entry in enumerate(raw):
        pair_where = f"{where}[{i}]"
        forward = _get(entry, "forward", None, pair_where)
        reverse = _get(entry, "reverse", None, pair_where)
        pairs.append(PathPair(
            vp_asn=int(_get(entry, "vp_asn", int, pair_where)),
            remote_asn=int(_get(entry, "remote_asn", int, pair_where)),
            forward=(tuple(int(a) for a in forward)
                     if forward is not None else None),
            reverse=(tuple(int(a) for a in reverse)
                     if reverse is not None else None)))
    return pairs


def _cloud_result_to_dict(result: Optional[CloudVantageResult]):
    if result is None:
        return None
    return {
        "cloud_asn": result.cloud_asn,
        "discovered_links": [list(link) for link in
                             sorted(result.discovered_links)],
        "targets_probed": result.targets_probed,
        "targets_reached": result.targets_reached,
    }


def _cloud_result_from_dict(raw, atlas, where):
    if raw is None:
        return None
    return CloudVantageResult(
        cloud_asn=int(_get(raw, "cloud_asn", int, where)),
        discovered_links=frozenset(
            (int(a), int(b)) for a, b in
            _get(raw, "discovered_links", list, where)),
        targets_probed=int(_get(raw, "targets_probed", int, where)),
        targets_reached=int(_get(raw, "targets_reached", int, where)))


def _ipid_analyses_to_dict(analyses: Optional[List[IpIdAnalysis]]):
    if analyses is None:
        return None
    return [{
        "address": a.address,
        "mean_velocity": a.mean_velocity,
        "diurnal_amplitude": a.diurnal_amplitude,
        "fit_residual": a.fit_residual,
        "usable": a.usable,
    } for a in analyses]


def _ipid_analyses_from_dict(raw, atlas, where):
    if raw is None:
        return None
    return [IpIdAnalysis(
        address=_get(entry, "address", str, f"{where}[{i}]"),
        mean_velocity=float(_get(entry, "mean_velocity", (int, float),
                                 f"{where}[{i}]")),
        diurnal_amplitude=float(
            _get(entry, "diurnal_amplitude", (int, float),
                 f"{where}[{i}]")),
        fit_residual=float(_get(entry, "fit_residual", (int, float),
                                f"{where}[{i}]")),
        usable=bool(_get(entry, "usable", bool, f"{where}[{i}]")))
        for i, entry in enumerate(raw)]


def _resolver_assoc_to_dict(assoc: Optional[ResolverAssociation]):
    if assoc is None:
        return None
    return {
        "weights": {
            str(resolver): {str(asn): w for asn, w in clients.items()}
            for resolver, clients in assoc.weights.items()},
        "sample_size": assoc.sample_size,
    }


def _resolver_assoc_from_dict(raw, atlas, where):
    if raw is None:
        return None
    return ResolverAssociation(
        weights={
            int(resolver): {int(asn): float(w)
                            for asn, w in clients.items()}
            for resolver, clients in
            _get(raw, "weights", dict, where).items()},
        sample_size=int(_get(raw, "sample_size", int, where)))


def _routes_stage_to_dict(value):
    return _routes_to_dict(value)


def _routes_stage_from_dict(raw, atlas, where):
    return _routes_from_dict(raw, where)


# stage name -> (encode, decode). Decoders take (raw, atlas, where).
_STAGE_CODECS = {
    "cache-probing": (_cache_result_to_dict, _cache_result_from_dict),
    "root-logs": (_rootlog_result_to_dict, _rootlog_result_from_dict),
    "users": (_users_stage_to_dict, _users_stage_from_dict),
    "services": (_services_stage_to_dict, _services_stage_from_dict),
    "routes": (_routes_stage_to_dict, _routes_stage_from_dict),
    "aux-atlas": (_atlas_stage_to_dict, _atlas_stage_from_dict),
    "aux-reverse-traceroute": (_path_pairs_to_dict,
                               _path_pairs_from_dict),
    "aux-cloud-vantage": (_cloud_result_to_dict, _cloud_result_from_dict),
    "aux-ipid": (_ipid_analyses_to_dict, _ipid_analyses_from_dict),
    "aux-resolver-assoc": (_resolver_assoc_to_dict,
                           _resolver_assoc_from_dict),
}

#: Stage names with a registered payload codec, in builder order.
CODEC_STAGES = tuple(_STAGE_CODECS)


def stage_payload_to_dict(stage: str, value: Any) -> Any:
    """Encode one builder stage's output for a ``repro.ckpt`` snapshot.

    ``value`` is the stage's native output (a campaign result, a fused
    component bundle, an auxiliary artefact — possibly None when the
    campaign failed); the return value is plain-JSON serialisable. Dict
    insertion order is deliberately preserved (see module docstring).
    """
    try:
        encode, __ = _STAGE_CODECS[stage]
    except KeyError:
        raise ValidationError(
            f"no payload codec for stage {stage!r} "
            f"(known: {', '.join(_STAGE_CODECS)})") from None
    return encode(value)


def stage_payload_from_dict(stage: str, payload: Any,
                            atlas: Optional[WorldAtlas] = None) -> Any:
    """Decode a snapshot payload back into the stage's native output.

    The inverse of :func:`stage_payload_to_dict`; malformed payloads
    raise :class:`ValidationError` naming the offending key. ``atlas``
    resolves serialized cities (services sites, atlas vantage points).
    """
    try:
        __, decode = _STAGE_CODECS[stage]
    except KeyError:
        raise ValidationError(
            f"no payload codec for stage {stage!r} "
            f"(known: {', '.join(_STAGE_CODECS)})") from None
    return decode(payload, atlas or WorldAtlas.default(),
                  f"stage[{stage!r}]")
