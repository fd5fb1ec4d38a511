"""The Internet Traffic Map data model (Table 1's three components).

1. **Users component** — which prefixes host users and their relative
   activity (§3.1);
2. **Services component** — where popular services are hosted and the
   user-to-host mapping (§3.2);
3. **Routes component** — routes commonly used between users and services
   (§3.3).

Everything in the map derives from public measurements; the map object
itself never touches ground truth. "Organizing the components together
into one entity (a map) enables us to answer rich questions and identify
connections among components" (§2.1) — the cross-component queries at the
bottom of :class:`InternetTrafficMap` are exactly those questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..net.geography import City


@dataclass
class UsersComponent:
    """Where users are, and at what relative activity level."""

    detected_prefixes: np.ndarray           # prefix ids with client activity
    activity_by_prefix: Dict[int, float]    # relative activity, sums to 1
    activity_by_as: Dict[int, float]        # relative activity, sums to 1
    techniques: Tuple[str, ...]             # provenance

    def prefix_weight(self, pid: int) -> float:
        return self.activity_by_prefix.get(pid, 0.0)

    def as_weight(self, asn: int) -> float:
        return self.activity_by_as.get(asn, 0.0)

    def detected_as_set(self) -> "set[int]":
        return set(self.activity_by_as)

    def top_ases(self, k: int = 10) -> List[Tuple[int, float]]:
        ranked = sorted(self.activity_by_as.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


@dataclass(frozen=True)
class MappedSite:
    """A serving location as the map knows it (from scans, not ground
    truth): address prefix, hosting AS, estimated city."""

    prefix_id: int
    asn: int
    organization: str
    estimated_city: Optional[City]
    is_offnet: bool


#: One service's user->host mapping: ``(clients, hosts)``, two 1-D int64
#: arrays of equal length. ``hosts[i]`` is the answer prefix serving
#: client prefix ``clients[i]``; each client appears once.
UserHostColumns = Tuple[np.ndarray, np.ndarray]


@dataclass
class ServicesComponent:
    """Where services are hosted + the user->host mapping."""

    sites_by_org: Dict[str, List[MappedSite]]
    serving_asns_by_domain: Dict[str, "set[int]"]
    # service key -> (clients, hosts) columns, from ECS or catchments.
    user_to_host: Dict[str, UserHostColumns]
    unmapped_services: Tuple[str, ...]      # no ECS / anycast / custom URL

    def sites_of(self, organization: str) -> List[MappedSite]:
        return list(self.sites_by_org.get(organization, []))

    def offnet_asns(self, organization: str) -> "set[int]":
        return {s.asn for s in self.sites_of(organization) if s.is_offnet}

    def host_for_user(self, service_key: str,
                      client_pid: int) -> Optional[int]:
        columns = self.user_to_host.get(service_key)
        if columns is None:
            return None
        clients, hosts = columns
        hit = np.flatnonzero(clients == client_pid)
        return int(hosts[hit[0]]) if hit.size else None

    def mapped_services(self) -> List[str]:
        return sorted(self.user_to_host)


@dataclass
class RoutesComponent:
    """Commonly-used routes between users and services.

    Predicted from the public topology; ``None`` paths mark pairs the
    predictor could not cover (the §3.3.1 missing-link problem, recorded
    rather than papered over).
    """

    paths: Dict[Tuple[int, int], Optional[Tuple[int, ...]]]
    predictability: float       # fraction of attempted pairs predicted

    def path_between(self, src_asn: int,
                     dst_asn: int) -> Optional[Tuple[int, ...]]:
        return self.paths.get((src_asn, dst_asn))

    def attempted_pairs(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class ComponentCoverage:
    """Provenance and delivered coverage of one map component.

    ``coverage`` is the fraction of the component's measurement units
    that ultimately succeeded (1.0 on a clean build). A component is
    *degraded* when some units were lost or an intended technique
    delivered nothing — the honest labelling §4.2 asks maps to carry.
    """

    component: str
    coverage: float
    techniques_intended: Tuple[str, ...]
    techniques_delivered: Tuple[str, ...]
    notes: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return (self.coverage < 1.0 or
                set(self.techniques_delivered)
                != set(self.techniques_intended))


@dataclass
class InternetTrafficMap:
    """The assembled map: the paper's proposed artefact."""

    users: UsersComponent
    services: ServicesComponent
    routes: RoutesComponent
    metadata: Dict[str, object] = field(default_factory=dict)
    # Per-component provenance/coverage ("users" / "services" / "routes").
    coverage: Dict[str, ComponentCoverage] = field(default_factory=dict)

    # -- cross-component queries (§2.1) -----------------------------------

    def traffic_weight_for_as(self, asn: int) -> float:
        """Relative activity weight for weighting analyses."""
        return self.users.as_weight(asn)

    def weights_for_ases(self, asns: Sequence[int]) -> np.ndarray:
        return np.array([self.users.as_weight(a) for a in asns])

    def services_serving_as(self, asn: int) -> List[str]:
        """Which mapped services serve users of this AS, per the ECS
        user-to-host component."""
        active = np.fromiter(
            (pid for pid, weight in self.users.activity_by_prefix.items()
             if weight > 0), dtype=np.int64)
        found: List[str] = []
        for service_key, (clients, __) in self.services.user_to_host.items():
            users = clients[np.isin(clients, active)]
            if users.size and self._prefix_in_as(users, asn).any():
                found.append(service_key)
        return sorted(found)

    def _prefix_in_as(self, pids, asn: int) -> np.ndarray:
        """Which of ``pids`` (an int or an array) originate in ``asn``."""
        prefix_asn = self.metadata.get("prefix_asn")
        if prefix_asn is None:
            raise ValidationError("map metadata lacks prefix_asn table")
        return np.asarray(prefix_asn)[pids] == asn

    def activity_share_of_ases(self, asns: "set[int]") -> float:
        """Fraction of global activity in an AS set (outage sizing)."""
        return sum(w for asn, w in self.users.activity_by_as.items()
                   if asn in asns)

    # -- coverage / provenance --------------------------------------------

    def coverage_of(self, component: str) -> ComponentCoverage:
        """The coverage record for one component ("users", ...)."""
        try:
            return self.coverage[component]
        except KeyError:
            raise ValidationError(
                f"map carries no coverage record for {component!r}"
            ) from None

    def degraded_components(self) -> List[str]:
        """Components whose build lost units or techniques."""
        return sorted(name for name, record in self.coverage.items()
                      if record.degraded)

    def summary(self) -> str:
        """Human-readable one-screen description of the map."""
        lines = [
            "Internet Traffic Map",
            f"  users: {len(self.users.detected_prefixes)} prefixes across "
            f"{len(self.users.activity_by_as)} ASes "
            f"(techniques: {', '.join(self.users.techniques)})",
            f"  services: {len(self.services.sites_by_org)} organisations, "
            f"{len(self.services.user_to_host)} services with user->host "
            f"mapping, {len(self.services.unmapped_services)} unmapped",
            f"  routes: {self.routes.attempted_pairs()} pairs attempted, "
            f"{self.routes.predictability:.0%} predictable",
        ]
        degraded = self.degraded_components()
        if degraded:
            for name in degraded:
                record = self.coverage[name]
                missing = sorted(set(record.techniques_intended)
                                 - set(record.techniques_delivered))
                extra = (f", lost: {', '.join(missing)}" if missing else "")
                lines.append(f"  coverage: {name} degraded to "
                             f"{record.coverage:.0%}{extra}")
        elif self.coverage:
            lines.append("  coverage: all components complete")
        return "\n".join(lines)
