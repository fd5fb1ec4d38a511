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
snapshots each stage's output (see :data:`STAGES`) through a
:class:`repro.ckpt.CheckpointStore`, together with the stage's *input
digest* — the substrate aspects it reads plus its upstream snapshots'
digests (:mod:`repro.delta.digests`).
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

import gc
import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
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
from ..measure.geolocation import nearest_cities, spherical_centroid
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
from ..net.geography import City
from ..obs.manifest import (RunManifest, collect_manifest, config_digest,
                            fault_plan_digest, options_digest)
from ..obs.recorder import Recorder, resolve_recorder
from ..par import ShardStreams
from ..services.hypergiants import RedirectionScheme
from ..rand import substream
from ..scenario import Scenario
from .activity import ActivityEstimate, fuse_activity
from .pathpred import PathPredictor
from .serialize import stage_payload_from_dict, stage_payload_to_dict
from .traffic_map import (ComponentCoverage, InternetTrafficMap,
                          MappedSite, RoutesComponent, ServicesComponent,
                          UserHostColumns, UsersComponent)


@dataclass(frozen=True)
class Stage:
    """One checkpoint stage, named as a ``crash_at`` target and a
    repro.ckpt snapshot key. It reads the substrate ``aspects`` and its
    ``upstream`` stages' outputs (its input digest,
    :func:`repro.delta.digests.stage_input_digest`); it writes the fault
    scopes of its ``campaigns`` and the note list of its ``component``
    (also the span it runs under), which its snapshot carries."""

    name: str
    component: str
    aspects: Tuple[str, ...]
    upstream: Tuple[str, ...]
    campaigns: Tuple[str, ...]


#: Every checkpoint stage, in execution order.
STAGES: Tuple[Stage, ...] = (
    # Cache probing reads the GDNS cache oracle (calibrated from the
    # traffic matrix over the user-prefix set).
    Stage("cache-probing", "users", ("activity", "population"), (),
          (CACHE_PROBING_CAMPAIGN,)),
    # The root-log archive derives from per-prefix user counts.
    Stage("root-logs", "users", ("population",), (), (ROOTLOG_CAMPAIGN,)),
    # Fusion is a pure function of the two §3.1.2 stage outputs.
    Stage("users", "users", (), ("cache-probing", "root-logs"), ()),
    # TLS/SNI scan the certstore (serving), ECS answers come from the
    # ground-truth mapping (serving + routing + population quantiles),
    # Verfploeter catchments ride the actual graph (routing).
    Stage("services", "services", ("routing", "population", "serving"),
          (), (TLS_SCAN_CAMPAIGN, SNI_SCAN_CAMPAIGN, ECS_MAPPING_CAMPAIGN,
               CATCHMENT_CAMPAIGN)),
    # Path prediction runs over the collector view (routing) between
    # the users component's top ASes and the TLS footprints' home ASes.
    Stage("routes", "routes", ("routing",), ("users", "services"),
          (COLLECTOR_FEED_CAMPAIGN,)),
    # Auxiliary campaigns (manifest-only; never feed the map).
    Stage("aux-atlas", "aux", ("routing",), (), (ATLAS_CAMPAIGN,)),
    Stage("aux-reverse-traceroute", "aux", ("routing",), ("aux-atlas",),
          (REVERSE_TRACEROUTE_CAMPAIGN,)),
    Stage("aux-cloud-vantage", "aux", ("routing",), (),
          (CLOUD_VANTAGE_CAMPAIGN,)),
    # IP-ID monitors routers built from the flow assignment, which
    # folds traffic, mapping and deployment over BGP routes.
    Stage("aux-ipid", "aux", ("routing", "activity", "serving"), (),
          (IPID_CAMPAIGN,)),
    # Resolver association samples page views from the traffic matrix.
    Stage("aux-resolver-assoc", "aux", ("activity",), (),
          (RESOLVER_ASSOC_CAMPAIGN,)),
)
STAGE_BY_NAME: Dict[str, Stage] = {stage.name: stage for stage in STAGES}

PRIMARY_STAGES = tuple(s.name for s in STAGES if s.component != "aux")
AUX_STAGES = tuple(s.name for s in STAGES if s.component == "aux")


def _campaigns_of(component: str) -> Tuple[str, ...]:
    return tuple(name for stage in STAGES if stage.component == component
                 for name in stage.campaigns)


# Which campaigns feed which map component (coverage aggregation).
USERS_CAMPAIGNS = _campaigns_of("users")
SERVICES_CAMPAIGNS = _campaigns_of("services")
ROUTES_CAMPAIGNS = _campaigns_of("routes")

# Freeze the scenario heap out of the cyclic GC only when it is big
# enough for the collector rescans to dominate (scale10 is ~150k
# prefixes); small test worlds (~2k) pay more for the pre-freeze
# collect than the freeze saves.
_GC_FREEZE_MIN_PREFIXES = 25_000

# Build budgets: client-centric geolocation per serving organisation
# (sites located, and the client prefixes one site needs and uses),
# route-prediction source ASes (the most active), and the root-log
# query count below which a resolver AS counts as undetected.
MAX_GEOLOCATED_SITES_PER_ORG = 40
GEOLOCATION_MIN_CLIENTS = 3
GEOLOCATION_MAX_CLIENTS = 500
ROUTE_PAIRS_TOP_ASES = 150
ROOTLOG_MIN_QUERIES = 50.0


def _checked_notes(notes: object) -> Dict[str, List[str]]:
    """A snapshot's note lists, copied; :class:`ValidationError` unless
    they map component names to lists of strings."""
    if not (isinstance(notes, dict) and all(
            isinstance(component, str) and isinstance(lines, list)
            and all(isinstance(line, str) for line in lines)
            for component, lines in notes.items())):
        raise ValidationError(
            f"snapshot notes must map components to lists of strings, "
            f"got {notes!r}")
    return {component: list(lines) for component, lines in notes.items()}


def checkpoint_stages(options: "BuilderOptions") -> Tuple[str, ...]:
    """The stage boundaries a build with these options passes through."""
    return tuple(stage.name for stage in STAGES if stage.component != "aux"
                 or options.run_auxiliary_campaigns)


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

    def validate(self) -> None:
        if not (self.use_cache_probing or self.use_root_logs):
            raise ValidationError(
                "users component needs at least one §3.1.2 technique")


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
        self.artifacts = BuildArtifacts()
        self._faults = self._resolve_faults(faults)
        self._notes: Dict[str, List[str]] = {}
        self._recorder = resolve_recorder(recorder)
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

    def _checkpointed(self, stage: Stage, compute):
        """Run one stage through the checkpoint protocol.

        With a store and reuse on, a snapshot short-circuits
        ``compute()`` if and only if it verifies and its recorded input
        digest (substrate aspects + upstream snapshot digests,
        :func:`repro.delta.digests.stage_input_digest`) equals the
        stage's current one. A stage whose inputs changed — and, via
        digest chaining, everything downstream of a changed output —
        recomputes. On a load the payload is decoded and the stage's
        side effects — fault-scope counters of its row's ``campaigns``,
        the note list of its ``component`` — are restored *absolutely* (each snapshot carries the cumulative
        state at its boundary, so restores are idempotent in stage
        order, whatever mix of loads and recomputes precedes them). A
        snapshot that verifies but whose payload, scope states or note
        lists fail to decode is quarantined like a corrupt one, before
        any of its side effects is restored, and the stage recomputes.
        The codec calls run in ``ckpt.encode`` / ``ckpt.decode`` spans.

        An armed crash fires only after a fresh compute (and after its
        snapshot is durable), never after a load — that asymmetry is
        what makes supervised resume terminate.
        """
        name = stage.name
        lineage = self.ckpt_lineage
        store = self._ckpt_store
        if store is not None:
            lineage.stages_total += 1
            # Imported lazily: repro.delta imports repro.scenario.
            from ..delta.digests import stage_input_digest
            input_digest = stage_input_digest(
                name, self._substrate, self._stage_output_digests)
            self._stage_input_digests[name] = input_digest
            snapshot = (store.load(name, lineage, input_digest)
                        if self._reuse else None)
            if snapshot is not None:
                try:
                    with self._recorder.span("ckpt.decode"):
                        value = stage_payload_from_dict(
                            name, snapshot.payload,
                            atlas=self._scenario.atlas)
                    notes = _checked_notes(snapshot.notes)
                    self._faults.restore_scopes(snapshot.scopes)
                except ValidationError as exc:
                    store.quarantine(snapshot.path, name,
                                     f"undecodable snapshot: {exc}", lineage)
                else:
                    self._notes.update(notes)
                    lineage.stages_reused.append(name)
                    self._stage_output_digests[name] = snapshot.digest
                    return value
        value = compute()
        if store is not None:
            with self._recorder.span("ckpt.encode"):
                payload = stage_payload_to_dict(name, value)
            notes = self._notes.get(stage.component, [])
            store.save(name, payload,
                       scopes=self._faults.export_scopes(stage.campaigns),
                       notes={stage.component: list(notes)},
                       input_digest=input_digest)
            self._stage_output_digests[name] = store.last_saved_digest
            lineage.stages_recomputed.append(name)
        self._crash_if_armed(name)
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
            faults=self._faults, recorder=self._recorder)
        return campaign.run()

    def _run_rootlog_crawl(self) -> RootLogCrawlResult:
        crawler = RootLogCrawler(
            self._scenario.root_archive,
            min_query_threshold=ROOTLOG_MIN_QUERIES,
            faults=self._faults, recorder=self._recorder)
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

    # -- services component ------------------------------------------------------

    def _stage_services(self) -> Dict[str, object]:
        """Stage ``services``: §3.2 scans, mapping and assembly.

        Returns the component together with the raw TLS / ECS /
        catchment artifacts — the snapshot must carry them because the
        routes stage reads the TLS footprints and downstream reporting
        reads all three from :attr:`artifacts`.
        """
        scenario = self._scenario
        sites_by_org: Dict[str, List[MappedSite]] = {}
        serving_by_domain: Dict[str, "set[int]"] = {}
        user_to_host: Dict[str, UserHostColumns] = {}
        catchments: Dict[str, CatchmentMeasurement] = {}
        unmapped: List[str] = []

        tls_result: Optional[TlsScanResult] = None
        if self._options.use_tls_scan:
            scanner = TlsScanner(scenario.certstore, scenario.prefixes,
                                 faults=self._faults,
                                 recorder=self._recorder)
            try:
                tls_result = scanner.run()
            except MeasurementError as exc:
                self._faults.campaign(TLS_SCAN_CAMPAIGN).mark_failed(
                    str(exc))
                self._note("services", f"TLS scan failed ({exc}); no "
                                       "sites or SNI footprints")

        # Every campaign below probes these, each prefix once, so each
        # service's user->host client column lists a client once.
        targets = scenario.routable_prefix_ids()
        if not (np.diff(targets) > 0).all():
            raise ValidationError("routable prefix ids must be strictly "
                                  "increasing")

        ecs_result: Optional[EcsMappingResult] = None
        if self._options.use_ecs_mapping:
            mapper = EcsMapper(scenario.authoritative, scenario.catalog,
                               scenario.prefixes, faults=self._faults,
                               recorder=self._recorder)
            try:
                ecs_result = mapper.run(targets)
            except MeasurementError as exc:
                self._faults.campaign(ECS_MAPPING_CAMPAIGN).mark_failed(
                    str(exc))
                self._note("services",
                           f"ECS mapping failed ({exc}); user->host "
                           "mapping limited to catchment probing")
                unmapped.extend(s.key for s in scenario.catalog.services)
        ecs_columns: List[UserHostColumns] = []
        if ecs_result is not None:
            for key, mapping in ecs_result.per_service.items():
                mapped = mapping.answer_pids >= 0
                if mapped.all():
                    # The ECS arrays themselves, shared with the result
                    # (and the client column with every ECS service).
                    columns = (mapping.client_pids, mapping.answer_pids)
                    for column in columns:
                        column.flags.writeable = False
                else:
                    columns = (mapping.client_pids[mapped],
                               mapping.answer_pids[mapped])
                user_to_host[key] = columns
                ecs_columns.append(columns)
            unmapped.extend(ecs_result.uncovered_services)
        elif not self._options.use_ecs_mapping:
            unmapped.extend(s.key for s in scenario.catalog.services)

        if self._options.use_catchment_probing:
            covered = self._map_anycast_services(targets, user_to_host,
                                                 catchments)
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
            sites_by_org = self._assemble_sites(tls_result, ecs_columns)

        component = ServicesComponent(
            sites_by_org=sites_by_org,
            serving_asns_by_domain=serving_by_domain,
            user_to_host=user_to_host,
            unmapped_services=tuple(sorted(set(unmapped))))
        return {"component": component, "tls": tls_result,
                "ecs": ecs_result, "catchments": catchments}

    def _map_anycast_services(
            self, targets: np.ndarray,
            user_to_host: Dict[str, UserHostColumns],
            catchments: Dict[str, CatchmentMeasurement]) -> "set[str]":
        """Set the user->host columns of anycast services via Verfploeter.

        One catchment campaign per anycast operator covers all of its
        services (catchments are per-network, not per-service), so the
        operator's one column pair replaces whatever each of its anycast
        services held; each operator's measurement lands in
        ``catchments``. Returns the service keys covered.
        """
        scenario = self._scenario
        covered: "set[str]" = set()
        for hg_key, model in scenario.anycast_models.items():
            campaign = VerfploeterCampaign(
                model, scenario.prefixes,
                streams=ShardStreams(scenario.config.seed,
                                     ("builder-verf", hg_key)),
                faults=self._faults, recorder=self._recorder)
            try:
                measurement = campaign.run(targets)
            except MeasurementError as exc:
                self._faults.campaign(CATCHMENT_CAMPAIGN).mark_failed(
                    str(exc))
                self._note("services", f"catchment probing of {hg_key} "
                                       f"failed ({exc})")
                continue
            catchments[hg_key] = measurement
            # Site ids are positions in the operator's site list.
            site_answer = np.array([site.prefix_ids[0]
                                    for site in model.sites], dtype=np.int64)
            sites = np.asarray(measurement.site_of_prefix)
            reached = sites >= 0
            if not reached.any():
                continue
            columns = (np.asarray(measurement.prefix_ids,
                                  dtype=np.int64)[reached],
                       site_answer[sites[reached]])
            for column in columns:  # shared by the operator's services
                column.flags.writeable = False
            for service in scenario.catalog.services_hosted_by(hg_key):
                if service.redirection is not RedirectionScheme.ANYCAST:
                    continue
                user_to_host[service.key] = columns
                covered.add(service.key)
        return covered

    def _assemble_sites(self, tls_result: TlsScanResult,
                        ecs_columns: List[UserHostColumns]
                        ) -> Dict[str, List[MappedSite]]:
        """Turn TLS footprints into located sites.

        Site cities are estimated with client-centric geolocation when an
        ECS mapping exists for a service of that organisation; otherwise
        the city stays unknown (honest about precision, per Table 1).
        ``ecs_columns`` are the ECS services' ``(clients, answers)``
        columns in campaign order. A site is located from the first
        :data:`GEOLOCATION_MAX_CLIENTS` clients mapped to it, pooled
        over those services in that order, once it has at least
        :data:`GEOLOCATION_MIN_CLIENTS`.
        """
        prefixes = self._scenario.prefixes
        # Mapped clients per answer prefix: one row per service.
        per_service = np.zeros((len(ecs_columns), len(prefixes)), np.int32)
        for row, (__, answers) in zip(per_service, ecs_columns):
            row += np.bincount(answers, minlength=len(prefixes))
        n_clients = per_service.sum(axis=0)
        # Which sites of each organisation to locate, in footprint order.
        plans: Dict[str, List[Tuple[int, bool]]] = {}
        to_locate: Dict[int, None] = {}     # ordered set
        for org in tls_result.organizations():
            footprint = tls_result.footprint_of(org)
            plan = plans[org] = []
            geolocated = 0
            for pid in (footprint.onnet_prefixes
                        + footprint.offnet_prefixes):
                locate = bool(self._options.geolocate_sites
                              and geolocated < MAX_GEOLOCATED_SITES_PER_ORG
                              and n_clients[pid] >= GEOLOCATION_MIN_CLIENTS)
                plan.append((pid, locate))
                if locate:
                    to_locate[pid] = None
                    geolocated += 1
        cities = self._site_cities(list(to_locate), ecs_columns,
                                   per_service)
        sites_by_org: Dict[str, List[MappedSite]] = {}
        for org, plan in plans.items():
            offnet_pids = set(tls_result.footprint_of(org).offnet_prefixes)
            sites_by_org[org] = [MappedSite(
                prefix_id=pid,
                asn=prefixes.asn_of(pid),
                organization=org,
                estimated_city=cities[pid] if locate else None,
                is_offnet=pid in offnet_pids) for pid, locate in plan]
        return sites_by_org

    def _site_cities(self, pids: List[int],
                     ecs_columns: List[UserHostColumns],
                     per_service: np.ndarray) -> Dict[int, City]:
        """Client-centric city estimates of the site prefixes ``pids``.

        ``per_service[s, pid]`` counts the clients service ``s`` of
        ``ecs_columns`` maps to ``pid``. The centroid of each site sums
        the cities of its first clients in campaign order; one distance
        matrix snaps every centroid to the nearest atlas city.
        """
        if not pids:
            return {}
        prefixes = self._scenario.prefixes
        city_lat = np.array([c.lat for c in prefixes.cities])
        city_lon = np.array([c.lon for c in prefixes.cities])
        city_index = prefixes.city_index_array
        lats: List[float] = []
        lons: List[float] = []
        for pid in pids:
            parts: List[np.ndarray] = []
            wanted = GEOLOCATION_MAX_CLIENTS
            for svc in np.flatnonzero(per_service[:, pid]).tolist():
                clients, answers = ecs_columns[svc]
                parts.append(clients[answers == pid][:wanted])
                wanted -= parts[-1].size
                if not wanted:
                    break
            where = city_index[np.concatenate(parts)]
            lat, lon = spherical_centroid(city_lat[where], city_lon[where],
                                          np.ones(where.size))
            lats.append(lat)
            lons.append(lon)
        located = nearest_cities(lats, lons, self._scenario.atlas.cities)
        return dict(zip(pids, located))

    # -- routes component ------------------------------------------------------

    def _stage_routes(self, users: Dict[str, object],
                      services: Dict[str, object]) -> RoutesComponent:
        """Stage ``routes``: predict routes between the most active user
        ASes and the discovered serving organisations' home ASes."""
        view = self._scenario.public_view
        if self._faults.active(FaultKind.STALE_COLLECTOR):
            view = degraded_public_view(view, self._faults)
            self._note("routes", "collector snapshot is stale; predicting "
                                 "over the thinned topology")
        predictor = PathPredictor(view, recorder=self._recorder)
        top_ases = [asn for asn, __ in
                    users["component"].top_ases(ROUTE_PAIRS_TOP_ASES)]
        dst_asns: List[int] = []
        tls_result = services["tls"]
        if tls_result is not None:
            for org in tls_result.organizations():
                footprint = tls_result.footprint_of(org)
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

    def _stage_aux_revtr(self, atlas: Optional[Dict[str, object]]
                         ) -> Optional[List[PathPair]]:
        """Stage ``aux-reverse-traceroute``: from the first vantage point
        of the ``aux-atlas`` stage's output (None without one)."""
        if atlas is None or not atlas["vantage_points"]:
            return None
        revtr = ReverseTraceroute(self._scenario.bgp, faults=self._faults,
                                  recorder=self._recorder)
        try:
            return revtr.measure_many(
                atlas["vantage_points"][0],
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

    def _keep_artifacts(self, out: Dict[str, object]) -> None:
        """File the stage outputs reports read under :attr:`artifacts`."""
        artifacts, services = self.artifacts, out["services"]
        artifacts.cache_result = out["cache-probing"]
        artifacts.rootlog_result = out["root-logs"]
        artifacts.activity = out["users"]["activity"]
        artifacts.tls_result = services["tls"]
        artifacts.ecs_result = services["ecs"]
        artifacts.catchments = dict(services["catchments"])
        # The aux stages ran only with run_auxiliary_campaigns.
        atlas = out.get("aux-atlas")
        if atlas is not None:
            artifacts.atlas_traceroutes = atlas["traceroutes"]
        artifacts.reverse_pairs = out.get("aux-reverse-traceroute")
        artifacts.cloud_links = out.get("aux-cloud-vantage")
        artifacts.ipid_analyses = out.get("aux-ipid")
        artifacts.resolver_association = out.get("aux-resolver-assoc")

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
        out: Dict[str, object] = {}
        stages = [STAGE_BY_NAME[name] for name in self.stages()]
        with rec.span("build"):
            for component, group in itertools.groupby(
                    stages, key=attrgetter("component")):
                with rec.span(component):
                    for stage in group:
                        out[stage.name] = self._checkpointed(
                            stage, partial(_run_stage, self, stage, out))
            self._keep_artifacts(out)
            users = out["users"]["component"]
            services = out["services"]["component"]
            routes = out["routes"]
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


#: Each stage's compute, called with the builder and the outputs of the
#: stage's ``upstream`` stages, in row order.
_STAGE_COMPUTE = {
    "cache-probing": MapBuilder._stage_cache_probing,
    "root-logs": MapBuilder._stage_rootlogs,
    "users": MapBuilder._stage_users,
    "services": MapBuilder._stage_services,
    "routes": MapBuilder._stage_routes,
    "aux-atlas": MapBuilder._stage_aux_atlas,
    "aux-reverse-traceroute": MapBuilder._stage_aux_revtr,
    "aux-cloud-vantage": MapBuilder._stage_aux_cloud,
    "aux-ipid": MapBuilder._stage_aux_ipid,
    "aux-resolver-assoc": MapBuilder._stage_aux_assoc,
}


def _run_stage(builder: MapBuilder, stage: Stage,
               outputs: Dict[str, object]) -> object:
    """Compute one stage on ``builder`` from its upstream outputs."""
    return _STAGE_COMPUTE[stage.name](
        builder, *(outputs[name] for name in stage.upstream))

