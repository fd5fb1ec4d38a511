"""Read-optimized columnar store over a built traffic map.

The dict-forest :class:`~repro.core.traffic_map.InternetTrafficMap` is
the right shape for *building* the map; it is the wrong shape for
*serving* it. :class:`MapStore` applies the dense-integer treatment PR 1
gave routing to the map itself: every component is flattened once into
sorted integer/float arrays (activity tables, per-service user→host
columns, site rows grouped by organisation, a CSR route matrix with a
per-destination group index), so the :mod:`repro.serve` endpoints answer
with array slices and binary searches instead of dict walks.

Contracts:

* **Bit-identity** — every query answers exactly what the dict-based
  reference in :mod:`repro.core.usecases` answers on the same map
  (``map_path_length_contrast``, ``OutageImpactAnalyzer``,
  ``anycast_site_candidates``). Array insertion order mirrors the dicts'
  insertion order, so even float accumulation order is preserved.
  Regression-locked by ``tests/test_mapstore.py``. The service list
  itself is sorted, so a store answers byte-identically whether built
  from a fresh map or from its artefact.
* **Immutability** — a store never mutates after :meth:`from_map`;
  concurrent readers need no locks, which is what makes the
  :class:`repro.serve.service.MapService` hot swap a single reference
  assignment.
* **Content digest** — :attr:`digest` is the SHA-256 of the map's
  artefact bytes (:func:`~repro.core.serialize.map_to_json`, the one
  encoding), so two stores built from bit-identical maps (fresh vs
  resumed vs delta, in-process vs loaded from the artefact) share a
  digest and an answer cached under one is valid for the other.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..net.geography import City
from ..net.relationships import ASGraph
from .traffic_map import (ComponentCoverage, InternetTrafficMap,
                          MappedSite)
from .usecases import (AnycastAnswer, OutageReport, RegionOutageReport,
                       rank_site_candidates)
from .weighting import WeightingContrast, weighting_contrast


def _sorted_lookup(keys_sorted: np.ndarray, values: np.ndarray,
                   key: int, default: float = 0.0) -> float:
    """O(log n) point lookup in a sorted key column."""
    idx = int(np.searchsorted(keys_sorted, key))
    if idx < keys_sorted.size and int(keys_sorted[idx]) == key:
        return values[idx]
    return default


def _vectorized_lookup(keys_sorted: np.ndarray, values: np.ndarray,
                       queries: np.ndarray) -> np.ndarray:
    """Vectorized point lookups; absent keys yield 0.0."""
    out = np.zeros(queries.shape, dtype=np.float64)
    if keys_sorted.size == 0 or queries.size == 0:
        return out
    idx = np.searchsorted(keys_sorted, queries)
    idx = np.minimum(idx, keys_sorted.size - 1)
    found = keys_sorted[idx] == queries
    out[found] = values[idx[found]]
    return out


class MapStore:
    """Columnar, immutable, query-ready snapshot of one traffic map.

    Build with :meth:`from_map`; all attributes are read-only by
    convention (arrays are never mutated after construction).
    """

    def __init__(self) -> None:
        raise TypeError("use MapStore.from_map(itm, ...)")

    @classmethod
    def from_map(cls, itm: InternetTrafficMap,
                 graph: Optional[ASGraph] = None,
                 artefact: Optional[bytes] = None) -> "MapStore":
        """Flatten a built map (plus optional AS-graph context) into
        columnar arrays.

        ``graph`` enables the outage endpoint's alternate-transit
        answer, mirroring what :class:`~repro.core.usecases.\
OutageImpactAnalyzer` needs; without it outage queries raise. The map's
        ``prefix_asn`` metadata (attached by the builder, or re-attached
        by the artefact loader) powers the prefix→AS column; pids out of
        its bounds mean the artefact and the scenario context disagree
        and raise :class:`ValidationError` up front rather than at query
        time.

        ``artefact`` is the map's artefact as read (its bytes are
        hashed as they are); an in-process build passes none and the
        map is encoded once to name it.
        """
        self = object.__new__(cls)

        # Imported lazily: serialize imports measure modules, which is
        # more than a point lookup needs at import time.
        from .serialize import FORMAT_VERSION, map_to_json
        if artefact is None:
            artefact = map_to_json(itm).encode()
        self.digest = hashlib.sha256(artefact).hexdigest()
        self.format_version = FORMAT_VERSION
        self.seed = itm.metadata.get("seed")
        self.coverage: Dict[str, ComponentCoverage] = dict(itm.coverage)

        # -- users column ------------------------------------------------
        users = itm.users
        self.techniques = tuple(users.techniques)
        self.detected_pids = np.asarray(users.detected_prefixes,
                                        dtype=np.int64)
        pids = np.fromiter(users.activity_by_prefix.keys(), dtype=np.int64,
                           count=len(users.activity_by_prefix))
        pid_w = np.fromiter(users.activity_by_prefix.values(),
                            dtype=np.float64,
                            count=len(users.activity_by_prefix))
        order = np.argsort(pids, kind="stable")
        self.act_pids = pids[order]
        self.act_pid_w = pid_w[order]
        asns = np.fromiter(users.activity_by_as.keys(), dtype=np.int64,
                           count=len(users.activity_by_as))
        as_w = np.fromiter(users.activity_by_as.values(), dtype=np.float64,
                           count=len(users.activity_by_as))
        order = np.argsort(asns, kind="stable")
        self.act_asns = asns[order]
        self.act_as_w = as_w[order]

        # -- prefix -> AS ------------------------------------------------
        prefix_asn = itm.metadata.get("prefix_asn")
        self.prefix_asn = (None if prefix_asn is None
                           else np.asarray(prefix_asn, dtype=np.int64))

        # -- services: per-service user->host columns --------------------
        services = itm.services
        self.unmapped_services = tuple(services.unmapped_services)
        # Sorted, not insertion order: a fresh build and its (sort_keys)
        # artefact share a digest, so they must list services alike.
        self.service_keys = tuple(sorted(services.user_to_host))
        self._svc_index = {key: i for i, key in
                           enumerate(self.service_keys)}
        self.svc_clients: List[np.ndarray] = []
        self.svc_answers: List[np.ndarray] = []
        self._svc_clients_sorted: List[np.ndarray] = []
        self._svc_clients_order: List[np.ndarray] = []
        self.svc_client_asns: List[Optional[np.ndarray]] = []
        self.svc_answer_asns: List[Optional[np.ndarray]] = []
        for key in self.service_keys:
            clients, answers = services.user_to_host[key]
            self.svc_clients.append(clients)
            self.svc_answers.append(answers)
            order = np.argsort(clients, kind="stable")
            clients_sorted = clients[order]
            if (clients_sorted[1:] == clients_sorted[:-1]).any():
                raise ValidationError(
                    f"service {key!r} lists a client prefix twice")
            self._svc_clients_sorted.append(clients_sorted)
            self._svc_clients_order.append(order)
            if self.prefix_asn is not None:
                _check_pid_bounds(clients, self.prefix_asn.size,
                                  f"service {key!r} clients")
                _check_pid_bounds(answers, self.prefix_asn.size,
                                  f"service {key!r} answers")
                self.svc_client_asns.append(self.prefix_asn[clients])
                self.svc_answer_asns.append(self.prefix_asn[answers])
            else:
                self.svc_client_asns.append(None)
                self.svc_answer_asns.append(None)
        if self.prefix_asn is not None:
            _check_pid_bounds(self.detected_pids, self.prefix_asn.size,
                              "users detected_prefixes")

        # -- sites: rows grouped by sorted organisation ------------------
        self.organizations = tuple(sorted(services.sites_by_org))
        self._org_index = {org: i for i, org in
                           enumerate(self.organizations)}
        org_off = [0]
        site_pid: List[int] = []
        site_asn: List[int] = []
        site_offnet: List[bool] = []
        self.site_city: List[Optional[City]] = []
        for org in self.organizations:
            for site in services.sites_by_org[org]:
                site_pid.append(site.prefix_id)
                site_asn.append(site.asn)
                site_offnet.append(site.is_offnet)
                self.site_city.append(site.estimated_city)
            org_off.append(len(site_pid))
        self.site_org_off = np.asarray(org_off, dtype=np.int64)
        self.site_pid = np.asarray(site_pid, dtype=np.int64)
        self.site_asn = np.asarray(site_asn, dtype=np.int64)
        self.site_offnet = np.asarray(site_offnet, dtype=bool)
        # pid -> first row (rows are in sorted-org order, so "first"
        # matches the reference's sorted-org scan).
        if self.site_pid.size:
            order = np.argsort(self.site_pid, kind="stable")
            sorted_pids = self.site_pid[order]
            first = np.ones(sorted_pids.size, dtype=bool)
            first[1:] = sorted_pids[1:] != sorted_pids[:-1]
            self._site_pid_sorted = sorted_pids[first]
            self._site_pid_row = order[first]
        else:
            self._site_pid_sorted = np.empty(0, dtype=np.int64)
            self._site_pid_row = np.empty(0, dtype=np.int64)

        # -- routes: CSR paths + per-destination group index -------------
        routes = itm.routes
        self.predictability = float(routes.predictability)
        n = len(routes.paths)
        self.route_src = np.empty(n, dtype=np.int64)
        self.route_dst = np.empty(n, dtype=np.int64)
        self.route_hops = np.empty(n, dtype=np.int64)
        off = np.zeros(n + 1, dtype=np.int64)
        flat: List[int] = []
        for i, ((src, dst), path) in enumerate(routes.paths.items()):
            self.route_src[i] = src
            self.route_dst[i] = dst
            if path is None:
                self.route_hops[i] = -1
            else:
                self.route_hops[i] = len(path) - 1
                flat.extend(path)
            off[i + 1] = len(flat)
        self.route_path_off = off
        self.route_path_flat = np.asarray(flat, dtype=np.int64)
        dst_order = np.argsort(self.route_dst, kind="stable")
        self._route_dst_order = dst_order
        if n:
            sorted_dst = self.route_dst[dst_order]
            firsts = np.flatnonzero(
                np.concatenate(([True], sorted_dst[1:] != sorted_dst[:-1])))
            self._route_dst_unique = sorted_dst[firsts]
            self._route_dst_group_off = np.concatenate(
                (firsts, [n])).astype(np.int64)
        else:
            self._route_dst_unique = np.empty(0, dtype=np.int64)
            self._route_dst_group_off = np.zeros(1, dtype=np.int64)
        # (src, dst) point lookups via one packed 64-bit key column.
        key = (self.route_src.astype(np.uint64) << np.uint64(32)) \
            | self.route_dst.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        self._route_key_sorted = key[order]
        self._route_key_row = order

        # -- AS-graph context (outage alternate-transit) -----------------
        if graph is not None:
            g_asns = np.asarray(sorted(graph.asns), dtype=np.int64)
            nbr_off = [0]
            nbr_flat: List[int] = []
            cust_off = [0]
            cust_flat: List[int] = []
            for asn in g_asns:
                nbr_flat.extend(sorted(graph.neighbors_of(int(asn))))
                nbr_off.append(len(nbr_flat))
                cust_flat.extend(sorted(graph.customers_of(int(asn))))
                cust_off.append(len(cust_flat))
            self.graph_asns: Optional[np.ndarray] = g_asns
            self._nbr_off = np.asarray(nbr_off, dtype=np.int64)
            self._nbr_flat = np.asarray(nbr_flat, dtype=np.int64)
            self._cust_off = np.asarray(cust_off, dtype=np.int64)
            self._cust_flat = np.asarray(cust_flat, dtype=np.int64)
        else:
            self.graph_asns = None
        return self

    # -- identity ---------------------------------------------------------

    @property
    def short_digest(self) -> str:
        """First 12 hex chars of :attr:`digest` (display form)."""
        return self.digest[:12]

    # -- point lookups -----------------------------------------------------

    def prefix_weight(self, pid: int) -> float:
        """Activity share of one prefix (0.0 when undetected)."""
        return float(_sorted_lookup(self.act_pids, self.act_pid_w,
                                    int(pid)))

    def as_weight(self, asn: int) -> float:
        """Activity share of one AS (0.0 when undetected)."""
        return float(_sorted_lookup(self.act_asns, self.act_as_w,
                                    int(asn)))

    def asn_of_prefix(self, pid: int) -> int:
        """Originating AS of a prefix, from the attached context."""
        if self.prefix_asn is None:
            raise ValidationError("store built without prefix_asn context")
        pid = int(pid)
        if not 0 <= pid < self.prefix_asn.size:
            raise ValidationError(f"prefix {pid} out of range")
        return int(self.prefix_asn[pid])

    def host_for_user(self, service_key: str, pid: int) -> Optional[int]:
        """The serving prefix for one (service, client prefix) pair."""
        svc = self._svc_index.get(service_key)
        if svc is None:
            return None
        clients = self._svc_clients_sorted[svc]
        idx = int(np.searchsorted(clients, int(pid)))
        if idx < clients.size and int(clients[idx]) == int(pid):
            row = int(self._svc_clients_order[svc][idx])
            return int(self.svc_answers[svc][row])
        return None

    def path_between(self, src_asn: int, dst_asn: int
                     ) -> Optional[Tuple[int, ...]]:
        """The predicted route for one (src, dst) AS pair, if covered."""
        key = np.uint64((int(src_asn) << 32) | int(dst_asn))
        idx = int(np.searchsorted(self._route_key_sorted, key))
        if idx >= self._route_key_sorted.size or \
                self._route_key_sorted[idx] != key:
            return None
        row = int(self._route_key_row[idx])
        if self.route_hops[row] < 0:
            return None
        lo, hi = self.route_path_off[row], self.route_path_off[row + 1]
        return tuple(int(a) for a in self.route_path_flat[lo:hi])

    def route_targets(self) -> np.ndarray:
        """Destination ASes the routes component covers (sorted,
        unique) — the valid ``/v1/cdf`` targets."""
        return self._route_dst_unique.copy()

    # -- §2.1 endpoint queries --------------------------------------------

    def cdf_contrast(self, target_asn: int) -> WeightingContrast:
        """Bit-identical to :func:`repro.core.usecases.\
map_path_length_contrast` on the source map."""
        target = int(target_asn)
        idx = int(np.searchsorted(self._route_dst_unique, target))
        if idx >= self._route_dst_unique.size or \
                int(self._route_dst_unique[idx]) != target:
            raise ValidationError(
                f"map covers no predicted routes to AS{target}")
        lo = self._route_dst_group_off[idx]
        hi = self._route_dst_group_off[idx + 1]
        rows = self._route_dst_order[lo:hi]   # insertion order preserved
        rows = rows[self.route_hops[rows] >= 0]
        if rows.size == 0:
            raise ValidationError(
                f"map covers no predicted routes to AS{target}")
        lengths = self.route_hops[rows].astype(np.float64)
        weights = _vectorized_lookup(self.act_asns, self.act_as_w,
                                     self.route_src[rows])
        if not weights.any():
            raise ValidationError(
                f"no activity weight on any AS routed to AS{target}")
        return weighting_contrast("as_path_length", lengths, weights,
                                  weight_name="client activity")

    def outage_report(self, asn: int) -> OutageReport:
        """Bit-identical to :meth:`repro.core.usecases.\
OutageImpactAnalyzer.assess_as_outage` on the source map."""
        if self.prefix_asn is None:
            raise ValidationError("store built without prefix_asn context")
        if self.graph_asns is None:
            raise ValidationError("store built without AS-graph context")
        asn = int(asn)
        activity_share = self.as_weight(asn)
        affected = int((self.prefix_asn[self.detected_pids] == asn).sum())

        affected_services: List[str] = []
        rerouted: Dict[str, int] = {}
        for i, key in enumerate(self.service_keys):
            client_asns = self.svc_client_asns[i]
            answer_asns = self.svc_answer_asns[i]
            if client_asns is None or not (client_asns == asn).any():
                continue
            affected_services.append(key)
            away = answer_asns != asn
            if away.any():
                rerouted[key] = int(answer_asns[int(np.argmax(away))])

        offnet_orgs = tuple(
            org for org in self.organizations
            if bool(np.any(
                (self.site_asn[self._org_slice(org)] == asn)
                & self.site_offnet[self._org_slice(org)])))

        alternate = True
        for customer in self._customers_of(asn):
            others = self._neighbors_of(customer)
            if not np.any(others != asn):
                alternate = False
                break

        return OutageReport(
            asn=asn,
            activity_share=activity_share,
            affected_prefix_count=affected,
            affected_services=tuple(sorted(affected_services)),
            offnet_orgs_inside=offnet_orgs,
            alternate_transit=alternate,
            rerouted_service_asns=rerouted)

    def region_outage_report(self, asns: Sequence[int]
                             ) -> RegionOutageReport:
        """Bit-identical to :meth:`repro.core.usecases.\
OutageImpactAnalyzer.assess_region_outage` on the source map."""
        if not asns:
            raise ValidationError("empty AS set")
        reports = [self.outage_report(asn) for asn in asns]
        services: set = set()
        orgs: set = set()
        for report in reports:
            services.update(report.affected_services)
            orgs.update(report.offnet_orgs_inside)
        return RegionOutageReport(
            asns=tuple(sorted(int(a) for a in asns)),
            activity_share=sum(r.activity_share for r in reports),
            affected_prefix_count=sum(r.affected_prefix_count
                                      for r in reports),
            affected_services=tuple(sorted(services)),
            offnet_orgs_inside=tuple(sorted(orgs)))

    def hypergiant_asns(self, organization: str) -> Tuple[int, ...]:
        """The AS set an organisation's outage takes down: its on-net
        site ASes (all site ASes when the map saw none as on-net)."""
        if organization not in self._org_index:
            raise ValidationError(
                f"map knows no organisation {organization!r}")
        rows = self._org_slice(organization)
        asns = self.site_asn[rows]
        onnet = asns[~self.site_offnet[rows]]
        chosen = onnet if onnet.size else asns
        if chosen.size == 0:
            raise ValidationError(
                f"organisation {organization!r} has no mapped sites")
        return tuple(sorted({int(a) for a in chosen}))

    def anycast_answer(self, service_key: str, client_pid: int,
                       k: int = 3) -> AnycastAnswer:
        """Bit-identical to :func:`repro.core.usecases.\
anycast_site_candidates` on the source map."""
        svc = self._svc_index.get(service_key)
        if svc is None:
            raise ValidationError(
                f"service {service_key!r} has no user->host mapping")
        host_pid = self.host_for_user(service_key, client_pid)
        if host_pid is None:
            raise ValidationError(
                f"prefix {int(client_pid)} is not mapped by "
                f"{service_key!r}")
        idx = int(np.searchsorted(self._site_pid_sorted, host_pid))
        serving_row: Optional[int] = None
        if idx < self._site_pid_sorted.size and \
                int(self._site_pid_sorted[idx]) == host_pid:
            serving_row = int(self._site_pid_row[idx])
        candidates: Tuple = ()
        host_asn: Optional[int] = None
        org_of: Optional[str] = None
        if serving_row is not None:
            host_asn = int(self.site_asn[serving_row])
            org_idx = int(np.searchsorted(self.site_org_off, serving_row,
                                          side="right")) - 1
            org_of = self.organizations[org_idx]
            rows = range(int(self.site_org_off[org_idx]),
                         int(self.site_org_off[org_idx + 1]))
            serving = self._site_at(serving_row, org_of)
            pool = [self._site_at(row, org_of) for row in rows
                    if int(self.site_pid[row]) != host_pid]
            candidates = rank_site_candidates(serving, pool, k)
        return AnycastAnswer(
            service_key=service_key,
            client_pid=int(client_pid),
            host_pid=int(host_pid),
            host_asn=host_asn,
            organization=org_of,
            candidates=candidates)

    # -- summary / provenance ---------------------------------------------

    def degraded_components(self) -> List[str]:
        """Components whose build lost units or techniques."""
        return sorted(name for name, record in self.coverage.items()
                      if record.degraded)

    def counts(self) -> Dict[str, int]:
        """Sizes for the ``/v1/map`` description."""
        return {
            "prefixes": int(self.act_pids.size),
            "ases": int(self.act_asns.size),
            "organizations": len(self.organizations),
            "sites": int(self.site_pid.size),
            "mapped_services": len(self.service_keys),
            "unmapped_services": len(self.unmapped_services),
            "route_pairs": int(self.route_src.size),
        }

    # -- internals ---------------------------------------------------------

    def _org_slice(self, organization: str) -> slice:
        i = self._org_index[organization]
        return slice(int(self.site_org_off[i]),
                     int(self.site_org_off[i + 1]))

    def _site_at(self, row: int, organization: str) -> MappedSite:
        return MappedSite(
            prefix_id=int(self.site_pid[row]),
            asn=int(self.site_asn[row]),
            organization=organization,
            estimated_city=self.site_city[row],
            is_offnet=bool(self.site_offnet[row]))

    def _graph_row(self, asn: int) -> Optional[int]:
        idx = int(np.searchsorted(self.graph_asns, asn))
        if idx < self.graph_asns.size and \
                int(self.graph_asns[idx]) == asn:
            return idx
        return None

    def _customers_of(self, asn: int) -> np.ndarray:
        row = self._graph_row(asn)
        if row is None:
            return np.empty(0, dtype=np.int64)
        return self._cust_flat[self._cust_off[row]:self._cust_off[row + 1]]

    def _neighbors_of(self, asn: int) -> np.ndarray:
        row = self._graph_row(int(asn))
        if row is None:
            return np.empty(0, dtype=np.int64)
        return self._nbr_flat[self._nbr_off[row]:self._nbr_off[row + 1]]


def _check_pid_bounds(pids: np.ndarray, size: int, where: str) -> None:
    if pids.size and (int(pids.max()) >= size or int(pids.min()) < 0):
        raise ValidationError(
            f"{where} reference prefixes outside the attached prefix "
            f"table (size {size}) — the artefact and the scenario "
            f"context disagree")
