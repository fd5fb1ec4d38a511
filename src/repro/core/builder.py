"""Map builder: run the measurement campaigns and assemble the ITM.

This is the pipeline the paper calls for — each §3 technique feeding one
component, fused into a single queryable artefact:

* users component  <- cache probing (§3.1.2-1) + root-log crawl (§3.1.2-2)
                      fused per §3.1.3;
* services component <- TLS scans + SNI scans (§3.2.2) + ECS user-to-host
                        mapping (§3.2) + client-centric / RTT geolocation;
* routes component <- valley-free prediction over the collector topology
                      (§3.3), with unpredictable pairs recorded.

The builder touches only the scenario's public surfaces. Technique
selection is configurable so ablations (probing-only vs logs-only vs
fused) fall out naturally.

Fault tolerance: handed a :class:`repro.faults.FaultPlan` (or a shared
:class:`FaultContext`), the builder threads it through every campaign and
*degrades instead of crashing* when one fails. The exact fallback order:

1. users — cache probing and the root-log crawl each run independently;
   if one dies (or the crawl delivers nothing usable, e.g. under
   ``rootlog_truncation``), :func:`repro.core.activity.fuse_activity`
   fuses whatever survived (probing-only or logs-only). Only when *both*
   §3.1.2 techniques are lost does the map ship an honest empty users
   component.
2. services — TLS-scan loss removes sites *and* the SNI scan (which
   needs the TLS footprints); ECS loss narrows ``user_to_host`` to what
   catchment probing recovers; each anycast operator's Verfploeter
   campaign fails independently.
3. routes — under ``stale_collector`` the predictor runs over the
   thinned snapshot from :func:`repro.faults.degraded_public_view`
   (never the fresh one), lowering predictability instead of aborting.

What happened is recorded in per-component :class:`ComponentCoverage`
entries on the map, and — when a :class:`repro.obs.Recorder` is attached
— in per-campaign counters and span timings for the run manifest.

Snapshot reuse: constructed with a ``checkpoint_dir``, the builder
snapshots each stage's output (see :data:`PRIMARY_STAGES` /
:data:`AUX_STAGES`) through a :class:`repro.ckpt.CheckpointStore`,
together with the stage's *input digest* — the substrate aspects it
reads plus its upstream snapshots' digests (:mod:`repro.delta.digests`).
With reuse on (``resume=True`` or ``delta=True``; one rule for both) a
stage loads its snapshot if and only if the snapshot verifies and its
recorded input digest equals the stage's current one; otherwise it
recomputes. So a crashed build resumes, and a build of a world mutated
by a :class:`repro.delta.mutations.MutationPlan` recomputes only the
dirty stages (docs/delta.md). Every stage is a pure function of
(config, fault plan, options, inputs) — all randomness flows through
named substreams — so any mix of loaded and recomputed stages yields a
map bit-identical to a fresh build of the current world
(regression-locked by ``tests/test_delta_identity.py``). ``delta=True``
only adds the manifest's ``delta`` section. A fault plan with
``crash_at=<stage>`` raises :class:`repro.faults.SimulatedCrash` at that
stage boundary *after* the snapshot is durable, and never after a
snapshot load, so a supervised resume always makes progress
(``repro.ckpt.run_supervised``).
"""

from __future__ import annotations

import copy
import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import MeasurementError, ValidationError
from ..faults import (COLLECTOR_FEED_CAMPAIGN, FaultContext, FaultKind,
                      FaultPlan, RetryPolicy, SimulatedCrash,
                      degraded_public_view)
from ..measure.atlas import ATLAS_CAMPAIGN, AtlasPlatform, TracerouteResult
from ..measure.cache_probing import (CACHE_PROBING_CAMPAIGN,
                                     CacheProbingCampaign,
                                     CacheProbingResult)
from ..measure.catchment_probe import (CATCHMENT_CAMPAIGN,
                                       CatchmentMeasurement,
                                       VerfploeterCampaign)
from ..measure.cloud_vantage import (CLOUD_VANTAGE_CAMPAIGN,
                                     CloudVantageCampaign,
                                     CloudVantageResult)
from ..measure.ecs_mapping import (ECS_MAPPING_CAMPAIGN, EcsMapper,
                                   EcsMappingResult)
from ..measure.geolocation import client_centric_geolocate
from ..measure.ipid import IPID_CAMPAIGN, IpIdAnalysis, IpIdMonitor
from ..measure.resolver_assoc import (RESOLVER_ASSOC_CAMPAIGN,
                                      PageMeasurementCampaign,
                                      ResolverAssociation)
from ..measure.reverse_traceroute import (REVERSE_TRACEROUTE_CAMPAIGN,
                                          PathPair, ReverseTraceroute)
from ..measure.rootlogs import (ROOTLOG_CAMPAIGN, RootLogCrawler,
                                RootLogCrawlResult)
from ..measure.sniscan import SNI_SCAN_CAMPAIGN, SniScanner
from ..measure.tlsscan import TLS_SCAN_CAMPAIGN, TlsScanner, TlsScanResult
from ..obs.manifest import (RunManifest, collect_manifest, config_digest,
                            fault_plan_digest, options_digest)
from ..obs.recorder import NULL_RECORDER, Recorder, resolve_recorder
from ..par import CampaignExecutor, ShardStreams
from ..services.hypergiants import RedirectionScheme
from ..rand import substream
from ..scenario import Scenario
from .activity import ActivityEstimate, fuse_activity
from .pathpred import PathPredictor
from .serialize import stage_payload_from_dict, stage_payload_to_dict
from .traffic_map import (ComponentCoverage, InternetTrafficMap,
                          MappedSite, RoutesComponent, ServicesComponent,
                          UsersComponent)

# Which campaigns feed which map component (coverage aggregation).
USERS_CAMPAIGNS = (CACHE_PROBING_CAMPAIGN, ROOTLOG_CAMPAIGN)
SERVICES_CAMPAIGNS = (TLS_SCAN_CAMPAIGN, SNI_SCAN_CAMPAIGN,
                      ECS_MAPPING_CAMPAIGN, CATCHMENT_CAMPAIGN)
ROUTES_CAMPAIGNS = (COLLECTOR_FEED_CAMPAIGN,)

# Checkpoint stage boundaries, in execution order. Each name doubles as
# the ``crash_at`` target of a fault plan and the key of a
# repro.ckpt snapshot; repro.core.serialize registers a payload codec
# per stage under the same name.
PRIMARY_STAGES = ("cache-probing", "root-logs", "users", "services",
                  "routes")
AUX_STAGES = ("aux-atlas", "aux-reverse-traceroute", "aux-cloud-vantage",
              "aux-ipid", "aux-resolver-assoc")

# Freeze the scenario heap out of the cyclic GC only when it is big
# enough for the collector rescans to dominate (scale10 is ~150k
# prefixes); small test worlds (~2k) pay more for the pre-freeze
# collect than the freeze saves.
_GC_FREEZE_MIN_PREFIXES = 25_000


def checkpoint_stages(options: "BuilderOptions") -> Tuple[str, ...]:
    """The stage boundaries a build with these options passes through."""
    if options.run_auxiliary_campaigns:
        return PRIMARY_STAGES + AUX_STAGES
    return PRIMARY_STAGES


@dataclass(frozen=True)
class BuilderOptions:
    """Which techniques to run and with what budgets."""

    use_cache_probing: bool = True
    use_root_logs: bool = True
    use_tls_scan: bool = True
    use_sni_scan: bool = True
    use_ecs_mapping: bool = True
    # Verfploeter-style catchment probing for anycast services (§3.2.3,
    # [21]). Needs the anycast operators' cooperation (or edge workers),
    # which the paper argues is attainable; disable for a
    # strictly-third-party map.
    use_catchment_probing: bool = True
    geolocate_sites: bool = True
    max_geolocated_sites_per_org: int = 40
    route_pairs_top_ases: int = 150
    rootlog_min_queries: float = 50.0
    rng_label: str = "itm-builder"
    # Auxiliary §3.1.3/§3.3.2 campaigns (Atlas traceroutes, reverse
    # traceroute, cloud-vantage, IP ID monitoring, resolver association).
    # They validate and enrich the map but feed none of its three
    # components, so they are off by default; ``--metrics``/``--trace``
    # runs enable them so the manifest covers every campaign. Their
    # results land in :class:`BuildArtifacts`, never in the map itself —
    # the serialized map is bit-identical either way.
    run_auxiliary_campaigns: bool = False
    aux_ipid_routers: int = 40
    aux_assoc_sample: int = 20_000
    aux_reverse_pairs: int = 40
    aux_cloud_targets: int = 60
    # Per-stage tracemalloc profiling (``mem.<span>.peak_bytes`` /
    # ``current_bytes`` gauges in the manifest). Opt-in because tracing
    # allocations costs wall time; it observes without steering, so the
    # map stays bit-identical (regression-locked in tests/test_obs.py)
    # and repro.obs.manifest.options_digest excludes this knob — profiled
    # and plain builds share checkpoints and compare in the run history.
    profile_memory: bool = False
    # Worker processes for the sharded campaigns (and, with checkpointing
    # off, the whole auxiliary stages). Randomness binds to fixed shards,
    # never to workers, so any value here produces the same map
    # bit-for-bit (see docs/parallelism.md); options_digest excludes it,
    # letting serial and parallel builds share checkpoints.
    workers: int = 1

    def validate(self) -> None:
        if not (self.use_cache_probing or self.use_root_logs):
            raise ValidationError(
                "users component needs at least one §3.1.2 technique")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


@dataclass
class BuildArtifacts:
    """Intermediate measurement outputs, kept for validation/reporting."""

    cache_result: Optional[CacheProbingResult] = None
    rootlog_result: Optional[RootLogCrawlResult] = None
    tls_result: Optional[TlsScanResult] = None
    ecs_result: Optional[EcsMappingResult] = None
    activity: Optional[ActivityEstimate] = None
    catchments: Dict[str, CatchmentMeasurement] = field(
        default_factory=dict)
    # Auxiliary-campaign outputs (run_auxiliary_campaigns=True only).
    atlas_traceroutes: Optional[List[TracerouteResult]] = None
    reverse_pairs: Optional[List[PathPair]] = None
    cloud_links: Optional[CloudVantageResult] = None
    ipid_analyses: Optional[List[IpIdAnalysis]] = None
    resolver_association: Optional[ResolverAssociation] = None


class MapBuilder:
    """Builds an :class:`InternetTrafficMap` from a scenario's public
    surfaces."""

    def __init__(self, scenario: Scenario,
                 options: Optional[BuilderOptions] = None,
                 faults: Union[FaultPlan, FaultContext, None] = None,
                 recorder: Optional[Recorder] = None,
                 checkpoint_dir=None,
                 resume: bool = False,
                 delta: bool = False,
                 delta_plan=None
                 ) -> None:
        self._scenario = scenario
        self._options = options or BuilderOptions()
        self._options.validate()
        self._rng = substream(scenario.config.seed, self._options.rng_label)
        self.artifacts = BuildArtifacts()
        self._faults = self._resolve_faults(faults)
        self._notes: Dict[str, List[str]] = {}
        self._recorder = resolve_recorder(recorder)
        self._executor = CampaignExecutor(self._options.workers,
                                          recorder=self._recorder)
        self.itm: Optional[InternetTrafficMap] = None
        if self._recorder.enabled:
            # Mirror fault counters and ground-truth route-cache activity
            # into the recorder. Attach only when live, so a plain
            # builder never detaches another builder's recorder.
            self._faults.attach_recorder(self._recorder)
            self._scenario.bgp.attach_recorder(self._recorder)
        crash_at = self._faults.plan.crash_at
        if crash_at is not None and crash_at not in self.stages():
            raise ValidationError(
                f"crash_at={crash_at!r} is not a stage of this build "
                f"(stages: {', '.join(self.stages())})")
        self._reuse = bool(resume or delta)
        self._delta = bool(delta)
        self._delta_plan = delta_plan
        self._ckpt_store = None
        self.ckpt_lineage = None
        self._substrate = None
        # stage -> snapshot body digest (reused or saved) / input digest,
        # in builder order; input digests chain through output digests.
        self._stage_output_digests: Dict[str, str] = {}
        self._stage_input_digests: Dict[str, str] = {}
        if checkpoint_dir is not None:
            # Imported lazily: repro.ckpt.supervisor imports this module.
            from ..ckpt.store import CheckpointLineage, CheckpointStore
            from ..delta.digests import SubstrateDigests
            self._ckpt_store = CheckpointStore(
                checkpoint_dir,
                config_digest=config_digest(scenario.config),
                fault_plan_digest=fault_plan_digest(self._faults.plan),
                options_digest=options_digest(self._options),
                recorder=self._recorder)
            self.ckpt_lineage = CheckpointLineage(
                checkpoint_dir=str(checkpoint_dir), resumed=bool(resume))
            self._substrate = SubstrateDigests(scenario)
        elif self._reuse:
            raise ValidationError(
                "resume=True / delta=True need a checkpoint_dir holding "
                "the previous build's snapshots")

    def stages(self) -> Tuple[str, ...]:
        """This build's checkpoint stage boundaries, in order."""
        return checkpoint_stages(self._options)

    @property
    def recorder(self) -> Recorder:
        """The build's recorder (the shared null recorder by default)."""
        return self._recorder

    @property
    def options(self) -> BuilderOptions:
        """The build's resolved options (for digests and reporting)."""
        return self._options

    def _resolve_faults(self,
                        faults: Union[FaultPlan, FaultContext, None]
                        ) -> FaultContext:
        """Normalise the faults argument to a shared context.

        A bare plan with the stock retry policy picks up the scenario's
        ``fault_retry_attempts``/``fault_retry_backoff_s`` knobs; a plan
        carrying a custom policy, or a pre-built context, is used as-is.
        """
        if isinstance(faults, FaultContext):
            return faults
        if faults is None:
            return FaultContext.null()
        retry = faults.retry
        if retry == RetryPolicy():
            cfg = self._scenario.config.measurement
            retry = RetryPolicy(max_attempts=cfg.fault_retry_attempts,
                                backoff_base_s=cfg.fault_retry_backoff_s)
        return FaultContext(faults, retry=retry)

    @property
    def fault_context(self) -> FaultContext:
        """The build's shared fault state (a null context when clean)."""
        return self._faults

    def _note(self, component: str, message: str) -> None:
        self._notes.setdefault(component, []).append(message)

    # -- checkpointing --------------------------------------------------------

    def _checkpointed(self, stage: str, compute,
                      campaigns: Tuple[str, ...] = (),
                      note_components: Tuple[str, ...] = ()):
        """Run one stage through the checkpoint protocol.

        With a store and reuse on, a snapshot short-circuits
        ``compute()`` if and only if it verifies and its recorded input
        digest (substrate aspects + upstream snapshot digests,
        :func:`repro.delta.digests.stage_input_digest`) equals the
        stage's current one. A stage whose inputs changed — and, via
        digest chaining, everything downstream of a changed output —
        recomputes. On a load the payload is decoded and the stage's
        side effects — fault-scope counters of the ``campaigns`` it
        touched, note lists of the ``note_components`` it wrote — are
        restored *absolutely* (each snapshot carries the cumulative
        state at its boundary, so restores are idempotent in stage
        order, whatever mix of loads and recomputes precedes them). A
        snapshot that verifies but whose payload fails to decode is
        quarantined like a corrupt one, and the stage recomputes. The
        codec calls run in ``ckpt.encode`` / ``ckpt.decode`` spans.

        An armed crash fires only after a fresh compute (and after its
        snapshot is durable), never after a load — that asymmetry is
        what makes supervised resume terminate.
        """
        lineage = self.ckpt_lineage
        store = self._ckpt_store
        if store is not None:
            lineage.stages_total += 1
            # Imported lazily: repro.delta imports repro.scenario.
            from ..delta.digests import stage_input_digest
            input_digest = stage_input_digest(
                stage, self._substrate, self._stage_output_digests)
            self._stage_input_digests[stage] = input_digest
            snapshot = (store.load(stage, lineage, input_digest)
                        if self._reuse else None)
            if snapshot is not None:
                try:
                    with self._recorder.span("ckpt.decode"):
                        value = stage_payload_from_dict(
                            stage, snapshot.payload,
                            atlas=self._scenario.atlas)
                except ValidationError as exc:
                    store.quarantine(snapshot.path, stage,
                                     f"undecodable payload: {exc}", lineage)
                else:
                    self._faults.restore_scopes(snapshot.scopes)
                    for component, notes in snapshot.notes.items():
                        self._notes[component] = list(notes)
                    lineage.stages_reused.append(stage)
                    self._stage_output_digests[stage] = snapshot.digest
                    return value
        value = compute()
        if store is not None:
            with self._recorder.span("ckpt.encode"):
                payload = stage_payload_to_dict(stage, value)
            store.save(stage, payload,
                       scopes=self._faults.export_scopes(campaigns),
                       notes={c: list(self._notes.get(c, []))
                              for c in note_components},
                       input_digest=input_digest)
            self._stage_output_digests[stage] = store.last_saved_digest
            lineage.stages_recomputed.append(stage)
        self._crash_if_armed(stage)
        return value

    def _crash_if_armed(self, stage: str) -> None:
        """Die at this stage boundary if the fault plan says so."""
        if self._faults.plan.crash_at == stage:
            self._recorder.count("faults.crashes")
            raise SimulatedCrash(stage)

    # -- users component ------------------------------------------------------

    def _run_cache_probing(self) -> CacheProbingResult:
        scenario = self._scenario
        cfg = scenario.config.measurement
        services = scenario.catalog.top_by_popularity(
            cfg.probe_top_k_domains)
        campaign = CacheProbingCampaign(
            oracle=scenario.cache_oracle, gdns=scenario.gdns,
            services=services,
            prefix_ids=scenario.routable_prefix_ids(),
            rounds_per_day=cfg.probe_rounds_per_day,
            streams=ShardStreams(scenario.config.seed, ("probe-campaign",)),
            executor=self._executor,
            faults=self._faults, recorder=self._recorder)
        return campaign.run()

    def _run_rootlog_crawl(self) -> RootLogCrawlResult:
        crawler = RootLogCrawler(
            self._scenario.root_archive,
            min_query_threshold=self._options.rootlog_min_queries,
            faults=self._faults, recorder=self._recorder,
            executor=self._executor)
        return crawler.run()

    def _stage_cache_probing(self) -> Optional[CacheProbingResult]:
        """Stage ``cache-probing``: §3.1.2-1, or None (disabled/failed)."""
        if not self._options.use_cache_probing:
            return None
        try:
            return self._run_cache_probing()
        except MeasurementError as exc:
            self._faults.campaign(CACHE_PROBING_CAMPAIGN).mark_failed(
                str(exc))
            self._note("users", f"cache probing failed ({exc}); "
                                "falling back to root logs (§3.1.3)")
            return None

    def _stage_rootlogs(self) -> Optional[RootLogCrawlResult]:
        """Stage ``root-logs``: §3.1.2-2.

        Returns the raw crawl result even when it delivered nothing
        usable (the artifact is kept for the record; fusion ignores it —
        see :meth:`_stage_users`), or None when disabled or failed.
        """
        if not self._options.use_root_logs:
            return None
        try:
            result = self._run_rootlog_crawl()
        except MeasurementError as exc:
            self._faults.campaign(ROOTLOG_CAMPAIGN).mark_failed(str(exc))
            self._note("users", f"root-log crawl failed ({exc})")
            return None
        if not result.delivered_anything:
            # Truncated/empty feeds: keep the artifact for the record
            # but fuse probing-only (§3.1.3 fallback).
            self._faults.campaign(ROOTLOG_CAMPAIGN).mark_failed(
                "crawl delivered no usable per-AS volume")
            self._note(
                "users",
                "root logs delivered nothing usable; activity is "
                "probing-only (§3.1.3 fallback)")
        return result

    def _stage_users(self, cache_result: Optional[CacheProbingResult],
                     rootlog_result: Optional[RootLogCrawlResult]
                     ) -> Dict[str, object]:
        """Stage ``users``: fuse §3.1.2 signals into the component."""
        if rootlog_result is not None \
                and not rootlog_result.delivered_anything:
            rootlog_result = None
        try:
            with self._recorder.span("fusion"):
                activity = fuse_activity(self._scenario.prefixes,
                                         cache_result, rootlog_result)
        except ValidationError as exc:
            # Every §3.1.2 technique died: ship an honest empty component
            # rather than abort the whole map.
            self._note("users", f"no usable activity signal ({exc}); "
                                "users component is empty")
            return {"component": UsersComponent(
                        detected_prefixes=np.array([], dtype=int),
                        activity_by_prefix={},
                        activity_by_as={},
                        techniques=()),
                    "activity": None}
        detected = np.array(sorted(activity.by_prefix), dtype=int)
        return {"component": UsersComponent(
                    detected_prefixes=detected,
                    activity_by_prefix=activity.by_prefix,
                    activity_by_as=activity.by_as,
                    techniques=activity.techniques),
                "activity": activity}

    def _build_users(self) -> UsersComponent:
        cache_result = self._checkpointed(
            "cache-probing", self._stage_cache_probing,
            (CACHE_PROBING_CAMPAIGN,), ("users",))
        if cache_result is not None:
            self.artifacts.cache_result = cache_result
        rootlog_result = self._checkpointed(
            "root-logs", self._stage_rootlogs,
            (ROOTLOG_CAMPAIGN,), ("users",))
        if rootlog_result is not None:
            self.artifacts.rootlog_result = rootlog_result
        bundle = self._checkpointed(
            "users",
            lambda: self._stage_users(cache_result, rootlog_result),
            (), ("users",))
        if bundle["activity"] is not None:
            self.artifacts.activity = bundle["activity"]
        return bundle["component"]

    # -- services component ------------------------------------------------------

    def _build_services(self, users: UsersComponent) -> ServicesComponent:
        bundle = self._checkpointed(
            "services", lambda: self._stage_services(users),
            SERVICES_CAMPAIGNS, ("services",))
        self.artifacts.tls_result = bundle["tls"]
        self.artifacts.ecs_result = bundle["ecs"]
        self.artifacts.catchments = dict(bundle["catchments"])
        return bundle["component"]

    def _stage_services(self, users: UsersComponent) -> Dict[str, object]:
        """Stage ``services``: §3.2 scans, mapping and assembly.

        Returns the component together with the raw TLS / ECS /
        catchment artifacts — the snapshot must carry them because the
        routes stage (TLS footprints) and downstream reporting read them
        from :attr:`artifacts`.
        """
        scenario = self._scenario
        sites_by_org: Dict[str, List[MappedSite]] = {}
        serving_by_domain: Dict[str, "set[int]"] = {}
        user_to_host: Dict[str, Dict[int, int]] = {}
        unmapped: List[str] = []

        tls_result: Optional[TlsScanResult] = None
        if self._options.use_tls_scan:
            scanner = TlsScanner(scenario.certstore, scenario.prefixes,
                                 faults=self._faults,
                                 recorder=self._recorder)
            try:
                tls_result = scanner.run()
                self.artifacts.tls_result = tls_result
            except MeasurementError as exc:
                self._faults.campaign(TLS_SCAN_CAMPAIGN).mark_failed(
                    str(exc))
                self._note("services", f"TLS scan failed ({exc}); no "
                                       "sites or SNI footprints")

        ecs_result: Optional[EcsMappingResult] = None
        if self._options.use_ecs_mapping:
            mapper = EcsMapper(scenario.authoritative, scenario.catalog,
                               scenario.prefixes, faults=self._faults,
                               recorder=self._recorder,
                               executor=self._executor)
            try:
                ecs_result = mapper.run(scenario.routable_prefix_ids())
            except MeasurementError as exc:
                self._faults.campaign(ECS_MAPPING_CAMPAIGN).mark_failed(
                    str(exc))
                self._note("services",
                           f"ECS mapping failed ({exc}); user->host "
                           "mapping limited to catchment probing")
                unmapped.extend(s.key for s in scenario.catalog.services)
        if ecs_result is not None:
            self.artifacts.ecs_result = ecs_result
            for key, mapping in ecs_result.per_service.items():
                mapped = mapping.answer_pids >= 0
                # tolist() gives plain ints in bulk — far cheaper than
                # casting 100k+ numpy scalars one by one.
                user_to_host[key] = dict(zip(
                    mapping.client_pids[mapped].tolist(),
                    mapping.answer_pids[mapped].tolist()))
            unmapped.extend(ecs_result.uncovered_services)
        elif not self._options.use_ecs_mapping:
            unmapped.extend(s.key for s in scenario.catalog.services)

        if self._options.use_catchment_probing:
            covered = self._map_anycast_services(user_to_host)
            unmapped = [key for key in unmapped if key not in covered]

        if tls_result is not None:
            if self._options.use_sni_scan:
                sni = SniScanner(scenario.certstore, scenario.prefixes,
                                 faults=self._faults,
                                 recorder=self._recorder)
                domains = [s.domain for s in scenario.catalog.services]
                try:
                    sni_result = sni.run(domains,
                                         tls_result.serving_prefixes())
                    serving_by_domain = {
                        d: sni_result.asns_serving(d) for d in domains}
                except MeasurementError as exc:
                    self._faults.campaign(SNI_SCAN_CAMPAIGN).mark_failed(
                        str(exc))
                    self._note("services",
                               f"SNI scan failed ({exc}); per-domain "
                               "footprints unavailable")
            sites_by_org = self._assemble_sites(tls_result, ecs_result)

        component = ServicesComponent(
            sites_by_org=sites_by_org,
            serving_asns_by_domain=serving_by_domain,
            user_to_host=user_to_host,
            unmapped_services=tuple(sorted(set(unmapped))))
        return {"component": component, "tls": tls_result,
                "ecs": ecs_result,
                "catchments": dict(self.artifacts.catchments)}

    def _map_anycast_services(self,
                              user_to_host: Dict[str, Dict[int, int]]
                              ) -> "set[str]":
        """Fill user->host entries for anycast services via Verfploeter.

        One catchment campaign per anycast operator covers all of its
        services (catchments are per-network, not per-service). Returns
        the service keys covered.
        """
        scenario = self._scenario
        covered: "set[str]" = set()
        targets = scenario.routable_prefix_ids()
        for hg_key, model in scenario.anycast_models.items():
            campaign = VerfploeterCampaign(
                model, scenario.prefixes,
                streams=ShardStreams(scenario.config.seed,
                                     ("builder-verf", hg_key)),
                executor=self._executor,
                faults=self._faults, recorder=self._recorder)
            try:
                measurement = campaign.run(targets)
            except MeasurementError as exc:
                self._faults.campaign(CATCHMENT_CAMPAIGN).mark_failed(
                    str(exc))
                self._note("services", f"catchment probing of {hg_key} "
                                       f"failed ({exc})")
                continue
            self.artifacts.catchments[hg_key] = measurement
            site_answer = {site.site_id: site.prefix_ids[0]
                           for site in model.sites}
            reached = np.asarray(measurement.site_of_prefix) >= 0
            pids = np.asarray(measurement.prefix_ids)[reached].tolist()
            sites = np.asarray(measurement.site_of_prefix)[reached].tolist()
            mapping: Dict[int, int] = {
                pid: site_answer[site] for pid, site in zip(pids, sites)}
            if not mapping:
                continue
            for service in scenario.catalog.services_hosted_by(hg_key):
                if service.redirection is not RedirectionScheme.ANYCAST:
                    continue
                user_to_host[service.key] = dict(mapping)
                covered.add(service.key)
        return covered

    def _assemble_sites(self, tls_result: TlsScanResult,
                        ecs_result: Optional[EcsMappingResult]
                        ) -> Dict[str, List[MappedSite]]:
        """Turn TLS footprints into located sites.

        Site cities are estimated with client-centric geolocation when an
        ECS mapping exists for a service of that organisation; otherwise
        the city stays unknown (honest about precision, per Table 1).
        """
        scenario = self._scenario
        prefixes = scenario.prefixes
        # answer prefix -> client prefixes, pooled over mapped services.
        clients_of_answer: Dict[int, List[int]] = {}
        if ecs_result is not None:
            for mapping in ecs_result.per_service.values():
                mapped = mapping.answer_pids >= 0
                answers = mapping.answer_pids[mapped]
                clients = mapping.client_pids[mapped]
                # Group clients by answer prefix in one stable sort per
                # service instead of a Python loop over every pair; the
                # stable kind keeps each answer's client order identical
                # to the original insertion order.
                order = np.argsort(answers, kind="stable")
                answers = answers[order]
                clients = clients[order]
                uniq, starts = np.unique(answers, return_index=True)
                bounds = list(starts[1:].tolist()) + [len(answers)]
                for a, s, e in zip(uniq.tolist(), starts.tolist(), bounds):
                    clients_of_answer.setdefault(a, []).extend(
                        clients[s:e].tolist())
        candidate_cities = scenario.atlas.cities
        sites_by_org: Dict[str, List[MappedSite]] = {}
        for org in tls_result.organizations():
            footprint = tls_result.footprint_of(org)
            sites: List[MappedSite] = []
            geolocated = 0
            offnet_pids = set(footprint.offnet_prefixes)
            for pid in (footprint.onnet_prefixes
                        + footprint.offnet_prefixes):
                city = None
                if (self._options.geolocate_sites and geolocated
                        < self._options.max_geolocated_sites_per_org):
                    client_pids = clients_of_answer.get(pid, [])
                    if len(client_pids) >= 3:
                        client_cities = [prefixes.city_of(c)
                                         for c in client_pids[:500]]
                        estimate = client_centric_geolocate(
                            client_cities, candidate_cities)
                        city = estimate.city
                        geolocated += 1
                sites.append(MappedSite(
                    prefix_id=pid,
                    asn=prefixes.asn_of(pid),
                    organization=org,
                    estimated_city=city,
                    is_offnet=pid in offnet_pids))
            sites_by_org[org] = sites
        return sites_by_org

    # -- routes component ------------------------------------------------------

    def _build_routes(self, users: UsersComponent,
                      services: ServicesComponent) -> RoutesComponent:
        """Predict routes between the most active user ASes and the
        discovered serving organisations' home ASes."""
        view = self._scenario.public_view
        if self._faults.active(FaultKind.STALE_COLLECTOR):
            view = degraded_public_view(view, self._faults)
            self._note("routes", "collector snapshot is stale; predicting "
                                 "over the thinned topology")
        predictor = PathPredictor(view, recorder=self._recorder)
        top_ases = [asn for asn, __ in users.top_ases(
            self._options.route_pairs_top_ases)]
        dst_asns: List[int] = []
        if self.artifacts.tls_result is not None:
            for org in self.artifacts.tls_result.organizations():
                footprint = self.artifacts.tls_result.footprint_of(org)
                if footprint.total_prefixes >= 5:
                    dst_asns.append(footprint.home_asn)
        dst_asns = sorted(set(dst_asns)) or [self._scenario.gdns_operator_asn]
        pairs = [(src, dst) for src in top_ases for dst in dst_asns
                 if src != dst]
        paths = predictor.predict_many(pairs)
        predicted = sum(1 for p in paths.values() if p is not None)
        predictability = predicted / len(paths) if paths else 0.0
        return RoutesComponent(paths=paths, predictability=predictability)

    # -- assembly -----------------------------------------------------------------

    def _coverage_report(self, users: UsersComponent,
                         services: ServicesComponent
                         ) -> Dict[str, ComponentCoverage]:
        """Fold the fault context's per-campaign counters into
        per-component coverage/provenance records."""
        opts = self._options
        users_intended = tuple(
            name for name, on in (("cache-probing", opts.use_cache_probing),
                                  ("root-logs", opts.use_root_logs)) if on)
        services_intended = tuple(
            name for name, on in (
                ("tls-scan", opts.use_tls_scan),
                ("sni-scan", opts.use_tls_scan and opts.use_sni_scan),
                ("ecs-mapping", opts.use_ecs_mapping),
                ("catchment-probing", opts.use_catchment_probing)) if on)
        services_delivered = tuple(
            name for name, ok in (
                ("tls-scan", self.artifacts.tls_result is not None),
                ("sni-scan", bool(services.serving_asns_by_domain)),
                ("ecs-mapping", self.artifacts.ecs_result is not None),
                ("catchment-probing", bool(self.artifacts.catchments)))
            if ok)
        def record(component: str, campaigns: Tuple[str, ...],
                   intended: Tuple[str, ...],
                   delivered: Tuple[str, ...]) -> ComponentCoverage:
            return ComponentCoverage(
                component=component,
                coverage=self._faults.coverage_of(campaigns),
                techniques_intended=intended,
                techniques_delivered=delivered,
                notes=tuple(self._notes.get(component, ())))
        return {
            "users": record("users", USERS_CAMPAIGNS, users_intended,
                            tuple(users.techniques)),
            "services": record("services", SERVICES_CAMPAIGNS,
                               services_intended, services_delivered),
            "routes": record("routes", ROUTES_CAMPAIGNS,
                             ("path-prediction",), ("path-prediction",)),
        }

    # -- auxiliary campaigns ------------------------------------------------------

    def _eyeball_asns(self) -> List[int]:
        return [a.asn for a in self._scenario.registry.eyeballs()]

    def _stage_aux_atlas(self) -> Optional[Dict[str, object]]:
        """Stage ``aux-atlas``: bring up the platform, traceroute out.

        None when the platform itself failed; otherwise the vantage
        points (which the reverse-traceroute stage needs) plus the
        traceroutes (None when only the measurement campaign failed).
        """
        scenario = self._scenario
        cfg = scenario.config.measurement
        try:
            platform = AtlasPlatform(
                scenario.registry, scenario.bgp, scenario.prefixes,
                substream(scenario.config.seed, "builder-atlas"),
                vp_count=cfg.atlas_vantage_points,
                faults=self._faults, recorder=self._recorder)
        except MeasurementError as exc:
            self._faults.campaign(ATLAS_CAMPAIGN).mark_failed(str(exc))
            self._note("aux", f"atlas platform failed ({exc})")
            return None
        traceroutes: Optional[List[TracerouteResult]] = None
        try:
            traceroutes = platform.traceroute_all(
                scenario.gdns_operator_asn)
        except MeasurementError as exc:
            self._faults.campaign(ATLAS_CAMPAIGN).mark_failed(str(exc))
            self._note("aux", f"atlas platform failed ({exc})")
        return {"vantage_points": list(platform.vantage_points),
                "traceroutes": traceroutes}

    def _stage_aux_revtr(self, vantage_points) -> Optional[List[PathPair]]:
        """Stage ``aux-reverse-traceroute`` (needs an Atlas vantage)."""
        if not vantage_points:
            return None
        revtr = ReverseTraceroute(self._scenario.bgp, faults=self._faults,
                                  recorder=self._recorder)
        try:
            return revtr.measure_many(
                vantage_points[0],
                self._eyeball_asns()[:self._options.aux_reverse_pairs])
        except MeasurementError as exc:
            self._faults.campaign(
                REVERSE_TRACEROUTE_CAMPAIGN).mark_failed(str(exc))
            self._note("aux", f"reverse traceroute failed ({exc})")
            return None

    def _stage_aux_cloud(self) -> Optional[CloudVantageResult]:
        """Stage ``aux-cloud-vantage``: traceroutes out of the cloud."""
        scenario = self._scenario
        cloud = CloudVantageCampaign(
            scenario.bgp, scenario.gdns_operator_asn,
            faults=self._faults, recorder=self._recorder)
        try:
            return cloud.run(
                self._eyeball_asns()[:self._options.aux_cloud_targets])
        except MeasurementError as exc:
            self._faults.campaign(CLOUD_VANTAGE_CAMPAIGN).mark_failed(
                str(exc))
            self._note("aux", f"cloud-vantage campaign failed ({exc})")
            return None

    def _stage_aux_ipid(self) -> Optional[List[IpIdAnalysis]]:
        """Stage ``aux-ipid``: router IP-ID velocity monitoring."""
        scenario = self._scenario
        cfg = scenario.config.measurement
        monitor = IpIdMonitor(
            interval_s=cfg.ipid_ping_interval_s,
            duration_hours=cfg.ipid_campaign_hours,
            rng=substream(scenario.config.seed, "builder-ipid"),
            faults=self._faults, recorder=self._recorder)
        try:
            return monitor.campaign(
                scenario.routers.countable()
                [:self._options.aux_ipid_routers])
        except MeasurementError as exc:
            self._faults.campaign(IPID_CAMPAIGN).mark_failed(str(exc))
            self._note("aux", f"IP ID monitoring failed ({exc})")
            return None

    def _stage_aux_assoc(self) -> Optional[ResolverAssociation]:
        """Stage ``aux-resolver-assoc``: page-view sampling."""
        scenario = self._scenario
        try:
            assoc = PageMeasurementCampaign(
                scenario.prefixes, scenario.gdns,
                scenario.traffic.queries_per_day.sum(axis=0),
                substream(scenario.config.seed, "builder-assoc"),
                faults=self._faults, recorder=self._recorder)
            return assoc.run(self._options.aux_assoc_sample)
        except MeasurementError as exc:
            self._faults.campaign(RESOLVER_ASSOC_CAMPAIGN).mark_failed(
                str(exc))
            self._note("aux", f"resolver association failed ({exc})")
            return None

    def _run_auxiliary_campaigns(self) -> None:
        """Run the §3.1.3/§3.3.2 campaigns that enrich but never feed the
        map: Atlas traceroutes, reverse traceroute, cloud-vantage
        traceroutes, IP ID monitoring and resolver association.

        Every campaign draws from its own seed substream and writes only
        to :attr:`artifacts` and the recorder, so enabling this phase
        cannot perturb the serialized map. Failures degrade like the
        primary campaigns: mark the scope failed, note it, move on.
        Each campaign is its own checkpoint stage.

        With ``workers > 1`` and checkpointing off, the whole stages run
        as units across the worker pool (they are mutually independent
        apart from reverse traceroute needing the Atlas vantage points);
        checkpointed builds stay on the serial path because stage
        snapshots must be written in order.
        """
        if self._executor.parallel and self._ckpt_store is None:
            self._run_auxiliary_parallel()
            return
        atlas_bundle = self._checkpointed(
            "aux-atlas", self._stage_aux_atlas,
            (ATLAS_CAMPAIGN,), ("aux",))
        vantage_points = []
        if atlas_bundle is not None:
            self.artifacts.atlas_traceroutes = atlas_bundle["traceroutes"]
            vantage_points = atlas_bundle["vantage_points"]
        self.artifacts.reverse_pairs = self._checkpointed(
            "aux-reverse-traceroute",
            lambda: self._stage_aux_revtr(vantage_points),
            (REVERSE_TRACEROUTE_CAMPAIGN,), ("aux",))
        self.artifacts.cloud_links = self._checkpointed(
            "aux-cloud-vantage", self._stage_aux_cloud,
            (CLOUD_VANTAGE_CAMPAIGN,), ("aux",))
        self.artifacts.ipid_analyses = self._checkpointed(
            "aux-ipid", self._stage_aux_ipid,
            (IPID_CAMPAIGN,), ("aux",))
        self.artifacts.resolver_association = self._checkpointed(
            "aux-resolver-assoc", self._stage_aux_assoc,
            (RESOLVER_ASSOC_CAMPAIGN,), ("aux",))

    def _run_auxiliary_parallel(self) -> None:
        """Parallel whole-stage execution of the auxiliary campaigns.

        Two waves: everything without a dependency first, then reverse
        traceroute (which needs the Atlas vantage points). Each worker
        runs one stage on an isolated builder clone with a fresh fault
        context and recorder; the parent merges the returned scope
        states, notes and recorder snapshots *in the serial stage order*,
        so every output this class guarantees bit-identity for is the
        same as an inline run's.
        """
        wave1 = ["aux-atlas", "aux-cloud-vantage", "aux-ipid",
                 "aux-resolver-assoc"]
        results: Dict[str, Dict[str, object]] = {}
        out = self._executor.run(_aux_stage_worker, (self, wave1, []),
                                 len(wave1), "aux-stages", chunk_size=1)
        results.update(zip(wave1, out))
        atlas_bundle = results["aux-atlas"]["artifact"]
        vantage_points = [] if atlas_bundle is None else \
            atlas_bundle["vantage_points"]
        wave2 = ["aux-reverse-traceroute"]
        out = self._executor.run(
            _aux_stage_worker, (self, wave2, vantage_points),
            len(wave2), "aux-stages", chunk_size=1)
        results.update(zip(wave2, out))
        for stage in AUX_STAGES:
            merged = results[stage]
            for name in _AUX_STAGE_CAMPAIGNS[stage]:
                state = merged["scopes"].get(name)
                if state is not None:
                    self._faults.campaign(name).merge_state(state)
            for component, notes in merged["notes"].items():
                for note in notes:
                    self._note(component, note)
            self._recorder.absorb(merged["recorder"])
            self._crash_if_armed(stage)
        if atlas_bundle is not None:
            self.artifacts.atlas_traceroutes = atlas_bundle["traceroutes"]
        self.artifacts.reverse_pairs = \
            results["aux-reverse-traceroute"]["artifact"]
        self.artifacts.cloud_links = results["aux-cloud-vantage"]["artifact"]
        self.artifacts.ipid_analyses = results["aux-ipid"]["artifact"]
        self.artifacts.resolver_association = \
            results["aux-resolver-assoc"]["artifact"]

    def build(self) -> InternetTrafficMap:
        """Run the configured campaigns and assemble the map."""
        rec = self._recorder
        if self._options.profile_memory:
            # Profiling brackets the build: started here, stopped in the
            # finally below so tracemalloc's tracing cost never outlives
            # the build it measured (even when a stage crashes).
            rec.start_memory_profiling()
        # The scenario heap is large and immutable for the duration of a
        # build; freezing it keeps the cyclic GC from rescanning millions
        # of long-lived objects every time the build allocates (a 3x CPU
        # win at scale10). Freezing changes no object lifetimes that
        # matter here, so the map is unaffected. Below the threshold the
        # full collect costs more than the rescans it avoids — a small
        # build finishes in ~0.1s, so the dance is skipped (this matters
        # for delta rebuild loops, where the collect would be the single
        # largest fixed cost per step).
        freeze = len(self._scenario.prefixes) >= _GC_FREEZE_MIN_PREFIXES
        if freeze:
            gc.collect()
            gc.freeze()
        try:
            return self._build_profiled(rec)
        finally:
            if freeze:
                gc.unfreeze()
            if self._options.profile_memory:
                rec.stop_memory_profiling()

    def _build_profiled(self, rec) -> InternetTrafficMap:
        """The build pipeline proper (wrapped by :meth:`build`)."""
        with rec.span("build"):
            with rec.span("users"):
                users = self._build_users()
            with rec.span("services"):
                services = self._build_services(users)
            with rec.span("routes"):
                routes = self._checkpointed(
                    "routes", lambda: self._build_routes(users, services),
                    ROUTES_CAMPAIGNS, ("routes",))
            if self._options.run_auxiliary_campaigns:
                with rec.span("aux"):
                    self._run_auxiliary_campaigns()
            with rec.span("assemble"):
                metadata: Dict[str, object] = {
                    "seed": self._scenario.config.seed,
                    "prefix_asn": self._scenario.prefixes.asn_array,
                    "options": self._options,
                }
                if not self._faults.is_null:
                    metadata["fault_plan"] = self._faults.plan
                    metadata["fault_totals"] = self._faults.totals()
                itm = InternetTrafficMap(
                    users=users, services=services, routes=routes,
                    metadata=metadata,
                    coverage=self._coverage_report(users, services))
        if rec.enabled:
            stats = self._scenario.bgp.cache_stats()
            rec.gauge("routing.cache.entries", stats.entries)
            rec.gauge("routing.cache.max_entries", stats.max_entries)
            rec.gauge("routing.cache.hit_rate", stats.hit_rate)
            if rec.memory_profiling:
                rec.gauge("mem.routing.cache.resident_bytes",
                          self._scenario.bgp.cache_memory_bytes())
        self.itm = itm
        return itm

    def manifest(self, command: Optional[str] = None,
                 scale: Optional[str] = None,
                 serve: Optional[Dict[str, object]] = None) -> RunManifest:
        """Snapshot this build's provenance as a :class:`RunManifest`.

        Callable any time after :meth:`build` (earlier snapshots are
        valid too — they just carry fewer stages). ``serve`` is the
        optional serving-path section a ``repro serve`` run assembles
        after the server drains.
        """
        return collect_manifest(
            self._recorder, self._scenario.config,
            faults=self._faults,
            cache_stats=self._scenario.bgp.cache_stats(),
            itm=self.itm, checkpoint=self.ckpt_lineage,
            delta=self._delta_lineage(),
            serve=serve,
            command=command, scale=scale)

    def _delta_lineage(self) -> Optional[Dict[str, object]]:
        """The manifest's delta section: what moved, what was reused.

        None unless this is a delta build. The mutation digest ties the
        lineage to the exact plan applied; the per-stage input digests
        let two manifests be compared stage-by-stage.
        """
        if not self._delta:
            return None
        # Imported lazily: repro.delta imports repro.scenario.
        from ..delta.mutations import MutationPlan
        plan = self._delta_plan or MutationPlan(mutations=())
        lineage = self.ckpt_lineage
        return {
            "mutation_digest": plan.digest(),
            "mutation_count": len(plan),
            "kinds": list(plan.kinds()),
            "aspects": list(plan.aspects()),
            "stages_reused": list(lineage.stages_reused),
            "stages_recomputed": list(lineage.stages_recomputed),
            "input_digests": dict(self._stage_input_digests),
        }


# Campaigns each auxiliary stage touches (scope merge after a worker run).
_AUX_STAGE_CAMPAIGNS: Dict[str, Tuple[str, ...]] = {
    "aux-atlas": (ATLAS_CAMPAIGN,),
    "aux-reverse-traceroute": (REVERSE_TRACEROUTE_CAMPAIGN,),
    "aux-cloud-vantage": (CLOUD_VANTAGE_CAMPAIGN,),
    "aux-ipid": (IPID_CAMPAIGN,),
    "aux-resolver-assoc": (RESOLVER_ASSOC_CAMPAIGN,),
}


def _aux_stage_worker(payload: Tuple["MapBuilder", List[str], list],
                      shard: int) -> Dict[str, object]:
    """Run one whole auxiliary stage in isolation (pool worker or inline).

    The builder is shallow-cloned and given a fresh fault context (same
    plan and retry policy — aux campaigns draw from their own named
    substreams, so the clone reproduces the serial draws exactly), a
    fresh recorder and empty notes, so nothing the stage does can leak
    into the parent except through the returned snapshot.
    """
    builder, stages, vantage_points = payload
    stage = stages[shard]
    clone = copy.copy(builder)
    clone._faults = FaultContext(builder._faults.plan,
                                 retry=builder._faults.retry)
    clone._recorder = Recorder() if builder._recorder.enabled \
        else NULL_RECORDER
    clone._notes = {}
    clone._ckpt_store = None
    clone.ckpt_lineage = None
    if stage == "aux-atlas":
        artifact: object = clone._stage_aux_atlas()
    elif stage == "aux-reverse-traceroute":
        artifact = clone._stage_aux_revtr(vantage_points)
    elif stage == "aux-cloud-vantage":
        artifact = clone._stage_aux_cloud()
    elif stage == "aux-ipid":
        artifact = clone._stage_aux_ipid()
    elif stage == "aux-resolver-assoc":
        artifact = clone._stage_aux_assoc()
    else:
        raise ValidationError(f"unknown auxiliary stage {stage!r}")
    return {
        "artifact": artifact,
        "scopes": clone._faults.export_scopes(_AUX_STAGE_CAMPAIGNS[stage]),
        "notes": {c: list(n) for c, n in clone._notes.items()},
        "recorder": clone._recorder.snapshot(),
    }
