"""Validation of the map against the scenario's ground truth.

This module is the only consumer of privileged data on the analysis side —
it plays the role the CDN logs play in the paper's own validation
("similar to how Google and Microsoft validated recent work uncovering
their peers and deployment footprints", §4).

Metrics mirror the paper's:

* **traffic coverage** — what fraction of a hypergiant's bytes originate
  in detected prefixes (paper: 95% cache probing) or detected ASes
  (paper: 60% root logs; 99% combined);
* **user coverage** — share of (APNIC-estimated) users in detected ASes
  (paper: 98%);
* **false positives** — detected prefixes that never contact the
  hypergiant (paper: <1%);
* **activity fidelity** — Spearman correlation between estimated and true
  per-AS activity;
* **mapping optimality / geolocation error** for the services component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from ..errors import ValidationError
from ..net.geography import haversine_km
from ..population.apnic import ApnicDataset
from ..net.ases import ASRegistry
from ..net.prefixes import PrefixTable
from ..scenario import Scenario
from ..traffic.matrix import TrafficMatrix
from .traffic_map import InternetTrafficMap, UsersComponent


@dataclass
class UsersValidation:
    """Scores for the users component against one hypergiant's truth."""

    hypergiant_key: str
    prefix_traffic_coverage: float      # paper C1: ~0.95
    as_traffic_coverage: float          # paper C3 numerator: ~0.99
    false_positive_rate: float          # paper: < 0.01
    apnic_user_coverage: float          # paper: ~0.98
    activity_spearman: float            # §3.1.3 fidelity


def validate_users_component(users: UsersComponent, scenario: Scenario,
                             hypergiant_key: str) -> UsersValidation:
    """Score a users component the way the paper scores its techniques."""
    matrix = scenario.traffic
    prefixes = scenario.prefixes

    detected_pids = np.asarray(users.detected_prefixes, dtype=int)
    if detected_pids.size == 0:
        raise ValidationError("users component detected nothing")
    prefix_cov = matrix.coverage_of_prefix_set(detected_pids,
                                               hypergiant_key)
    as_cov = matrix.coverage_of_as_set(users.detected_as_set(),
                                       hypergiant_key)

    hg_bytes = matrix.bytes_for_hypergiant(hypergiant_key)
    contacted = hg_bytes[detected_pids] > 0
    false_positive_rate = float(1.0 - contacted.mean())

    apnic_cov = apnic_user_share(users.detected_as_set(), scenario.apnic)

    truth_by_as = matrix.bytes_by_as()
    est = users.activity_by_as
    common = sorted(set(truth_by_as) & set(est))
    if len(common) >= 3:
        rho = stats.spearmanr([truth_by_as[a] for a in common],
                              [est[a] for a in common]).statistic
        activity_rho = float(rho)
    else:
        activity_rho = float("nan")

    return UsersValidation(
        hypergiant_key=hypergiant_key,
        prefix_traffic_coverage=prefix_cov,
        as_traffic_coverage=as_cov,
        false_positive_rate=false_positive_rate,
        apnic_user_coverage=apnic_cov,
        activity_spearman=activity_rho)


def apnic_user_share(detected_asns: "set[int]",
                     apnic: ApnicDataset) -> float:
    """Share of APNIC-estimated users inside the detected AS set."""
    total = apnic.total_users
    if total <= 0:
        raise ValidationError("APNIC dataset is empty")
    covered = sum(users for asn, users in apnic.estimates.items()
                  if asn in detected_asns)
    return covered / total


@dataclass
class ServicesValidation:
    """Scores for the services component."""

    org_recall: float                    # orgs with discovered footprints
    offnet_recall: Dict[str, float]      # per hg: off-net hosts found
    mapping_agreement: float             # ECS answers == ground truth site
    geolocation_median_error_km: Optional[float]


def validate_services_component(itm: InternetTrafficMap,
                                scenario: Scenario) -> ServicesValidation:
    """Score the services component against the true deployment."""
    catalog = scenario.catalog
    deployment = scenario.deployment

    # Organisation recall: every hypergiant should have a TLS footprint.
    orgs_found = set(itm.services.sites_by_org)
    hg_orgs = {spec.cert_org for spec in catalog.hypergiants.values()}
    org_recall = len(orgs_found & hg_orgs) / len(hg_orgs)

    # Off-net recall per hypergiant with an off-net programme.
    offnet_recall: Dict[str, float] = {}
    for key, spec in catalog.hypergiants.items():
        true_hosts = {site.host_asn for site in deployment.sites(key)
                      if site.is_offnet}
        if not true_hosts:
            continue
        found = itm.services.offnet_asns(spec.cert_org)
        offnet_recall[key] = len(found & true_hosts) / len(true_hosts)

    # ECS mapping agreement: answers should equal ground-truth sites.
    agreements = []
    for service_key, (clients, hosts) in itm.services.user_to_host.items():
        service = catalog.get(service_key)
        assignment = scenario.mapping.assignment_for_service(service)
        if assignment is None:
            continue
        sites = scenario.mapping.sites_of(service.host_key)
        answer_pid_of_site = {s.site_id: s.prefix_ids[0] for s in sites}
        true_sites = assignment.site_index[clients[:2000]]
        for answer_pid, true_site in zip(hosts[:2000].tolist(),
                                         true_sites.tolist()):
            if true_site >= 0:
                agreements.append(
                    answer_pid == answer_pid_of_site[true_site])
    mapping_agreement = float(np.mean(agreements)) if agreements else 0.0

    # Geolocation error for sites the builder located.
    errors = []
    for org, sites in itm.services.sites_by_org.items():
        for site in sites:
            if site.estimated_city is None:
                continue
            true_city = scenario.prefixes.city_of(site.prefix_id)
            errors.append(haversine_km(
                site.estimated_city.lat, site.estimated_city.lon,
                true_city.lat, true_city.lon))
    median_err = float(np.median(errors)) if errors else None

    return ServicesValidation(
        org_recall=org_recall,
        offnet_recall=offnet_recall,
        mapping_agreement=mapping_agreement,
        geolocation_median_error_km=median_err)


def validate_coverage_report(itm: InternetTrafficMap) -> None:
    """Internal consistency of a map's coverage/provenance records.

    Needs no ground truth — it cross-checks the coverage report against
    the components themselves, so it runs on degraded builds too. Raises
    :class:`ValidationError` on any inconsistency.
    """
    for name in ("users", "services", "routes"):
        if name not in itm.coverage:
            raise ValidationError(f"coverage report lacks {name!r}")
    for name, record in itm.coverage.items():
        if record.component != name:
            raise ValidationError(
                f"coverage record {name!r} labelled {record.component!r}")
        if not 0.0 <= record.coverage <= 1.0:
            raise ValidationError(
                f"{name} coverage {record.coverage!r} outside [0, 1]")
        undeclared = set(record.techniques_delivered) \
            - set(record.techniques_intended)
        if undeclared:
            raise ValidationError(
                f"{name} delivered techniques never intended: "
                f"{sorted(undeclared)}")
    users_record = itm.coverage["users"]
    if set(itm.users.techniques) != set(users_record.techniques_delivered):
        raise ValidationError(
            "users component techniques disagree with coverage report")
    if not users_record.techniques_delivered \
            and len(itm.users.detected_prefixes) > 0:
        raise ValidationError(
            "users component detected prefixes without any technique")


@dataclass
class RoutesValidation:
    """Scores for the routes component against true paths."""

    pairs_scored: int
    exact_path_fraction: float
    unpredictable_fraction: float


def validate_routes_component(itm: InternetTrafficMap,
                              scenario: Scenario) -> RoutesValidation:
    """Score predicted routes against true (simulated) paths."""
    exact = 0
    unpredictable = 0
    scored = 0
    by_dst: Dict[int, list] = {}
    for (src, dst), predicted in itm.routes.paths.items():
        by_dst.setdefault(dst, []).append((src, predicted))
    for dst, entries in by_dst.items():
        true_paths = scenario.bgp.routes_to([dst]).paths_for(
            src for src, __ in entries)
        for src, predicted in entries:
            true_path = true_paths[src]
            if true_path is None:
                continue
            scored += 1
            if predicted is None:
                unpredictable += 1
            elif predicted == true_path:
                exact += 1
    if scored == 0:
        raise ValidationError("no routable pairs to score")
    return RoutesValidation(
        pairs_scored=scored,
        exact_path_fraction=exact / scored,
        unpredictable_fraction=unpredictable / scored)
