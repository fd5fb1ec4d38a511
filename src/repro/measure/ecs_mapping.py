"""User-to-host mapping discovery via ECS queries (§3.2).

"Studies have emulated global vantage point coverage by issuing DNS
queries using the DNS EDNS0 Client Subnet (ECS), which allows a DNS query
to include the client's IP prefix, allowing researchers to issue queries
to a service that appear to come from arbitrary locations/prefixes
[13, 56]. However, not all services support ECS..."

For each ECS-supporting, DNS-redirected service, the mapper iterates over
all routable /24s, sends ECS queries and records the answer address. The
answer's origin AS comes from the public routing table. Services without
ECS support yield no per-prefix mapping — exactly the coverage gap the
paper highlights (§3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import CampaignFaultScope, FaultContext, FaultKind
from ..net.prefixes import PrefixTable
from ..obs.recorder import Recorder, resolve_recorder
from ..par import CampaignExecutor, ShardPlan
from ..services.catalog import Service, ServiceCatalog
from ..services.dnsinfra import AuthoritativeDns
from ..services.hypergiants import RedirectionScheme

ECS_MAPPING_CAMPAIGN = "ecs-mapping"

# Client prefixes per shard on the sharded path (determinism contract:
# fault draws bind to shards — see docs/parallelism.md).
ECS_SHARD_SIZE = 16_384


@dataclass
class ServiceMappingResult:
    """client prefix -> answer prefix for one ECS-supporting service."""

    service_key: str
    client_pids: np.ndarray
    answer_pids: np.ndarray     # -1 where no usable answer

    def mapped_fraction(self) -> float:
        return float((self.answer_pids >= 0).mean())

    def answer_asns(self, prefix_table: PrefixTable) -> np.ndarray:
        """Origin AS of each answer address (-1 where unmapped)."""
        out = np.full(len(self.answer_pids), -1, dtype=np.int64)
        mapped = self.answer_pids >= 0
        out[mapped] = prefix_table.asn_array[self.answer_pids[mapped]]
        return out

    def clients_of_answer_prefix(self, answer_pid: int) -> np.ndarray:
        """Client prefixes mapped to one serving prefix (for
        client-centric geolocation, §3.2.2 approach 3)."""
        return self.client_pids[self.answer_pids == answer_pid]


@dataclass
class EcsMappingResult:
    """Mappings for every service the technique could cover."""

    per_service: Dict[str, ServiceMappingResult]
    uncovered_services: List[str]     # no ECS / not DNS-redirected

    def coverage_by_service_count(self) -> float:
        total = len(self.per_service) + len(self.uncovered_services)
        if total == 0:
            raise MeasurementError("no services attempted")
        return len(self.per_service) / total


def _ecs_shard(payload: Tuple["EcsMapper", np.ndarray, List[Service],
                              ShardPlan],
               shard: int, scope: CampaignFaultScope
               ) -> Dict[str, np.ndarray]:
    """Map one client-prefix block against every covered service."""
    mapper, client_pids, services, plan = payload
    lo, hi = plan.bounds(shard)
    pids = client_pids[lo:hi]
    answers: Dict[str, np.ndarray] = {}
    for service in services:
        batch = mapper._auth.resolve_ecs_batch(service.key, pids)
        if scope.active(FaultKind.ECS_RATE_LIMIT):
            answered = scope.survive_mask(FaultKind.ECS_RATE_LIMIT,
                                          len(batch))
            batch = np.where(answered, batch, -1)
        answers[service.key] = batch
    return answers


class EcsMapper:
    """Runs the ECS mapping campaign over a service catalogue.

    With an active :class:`FaultContext`, per-prefix ECS queries are
    rate-limited away (``ecs_rate_limit``): after the retry budget is
    spent, the affected client prefixes simply have no answer (-1) —
    exactly the partial coverage the paper warns rate limits cause.

    The sweep runs over fixed-size client blocks, every shard visiting
    the services in catalogue order, so results are bit-identical for any
    worker count of the optional ``executor``. Without one the shards run
    inline, exactly as the builder runs them at ``workers=1``.
    """

    def __init__(self, authoritative: AuthoritativeDns,
                 catalog: ServiceCatalog,
                 prefix_table: PrefixTable,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None,
                 executor: Optional[CampaignExecutor] = None) -> None:
        self._auth = authoritative
        self._catalog = catalog
        self._prefixes = prefix_table
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)
        self._executor = executor

    def run(self, client_pids: np.ndarray,
            services: Optional[List[Service]] = None) -> EcsMappingResult:
        """Map every service the technique covers; services without ECS
        support or DNS redirection are listed as uncovered."""
        targets = services if services is not None else \
            self._catalog.services
        with self._recorder.span(f"measure.{ECS_MAPPING_CAMPAIGN}"):
            return self._run(client_pids, targets)

    def _run(self, client_pids: np.ndarray,
             targets: List[Service]) -> EcsMappingResult:
        pids = np.asarray(client_pids, dtype=int)
        covered = [s for s in targets
                   if s.ecs_supported and
                   s.redirection is RedirectionScheme.DNS]
        uncovered = [s.key for s in targets
                     if not (s.ecs_supported and
                             s.redirection is RedirectionScheme.DNS)]
        rec = self._recorder
        rec.count(f"measure.{ECS_MAPPING_CAMPAIGN}.queries_sent",
                  len(covered) * len(pids))
        per_service: Dict[str, ServiceMappingResult] = {}
        if covered:
            plan = ShardPlan(len(pids), ECS_SHARD_SIZE)
            executor = self._executor or CampaignExecutor(recorder=rec)
            shards = executor.run_campaign(
                _ecs_shard, (self, pids, covered, plan), plan.n_shards,
                ECS_MAPPING_CAMPAIGN, self._faults)
            for service in covered:
                answers = np.concatenate(
                    [part[service.key] for part in shards]) \
                    if shards else np.empty(0, dtype=np.int64)
                per_service[service.key] = ServiceMappingResult(
                    service_key=service.key,
                    client_pids=pids,
                    answer_pids=answers)
        rec.count(f"measure.{ECS_MAPPING_CAMPAIGN}.services_mapped",
                  len(per_service))
        rec.count(f"measure.{ECS_MAPPING_CAMPAIGN}.services_uncovered",
                  len(uncovered))
        return EcsMappingResult(per_service=per_service,
                                uncovered_services=uncovered)
