"""Command-line interface: ``python -m repro <command>``.

Build commands (default: ``summary``):

* ``summary`` — build a world, run the measurement pipeline, print the
  map summary and its top activity weights;
* ``claims``  — run the headline-claim suite (paper vs measured);
* ``figures`` — regenerate Figures 1a, 1b and 2 as ASCII;
* ``table1``  — regenerate Table 1;
* ``outage``  — outage-impact report for an AS (or the top-k ASes);
* ``report``  — write the full markdown report;
* ``serve``   — HTTP/JSON query service over a built map (see
  ``docs/serving.md``): ``--map-json PATH`` serves an existing artefact
  (the scenario flags re-attach its ground-truth context), no
  ``--map-json`` builds in-process first; ``--host/--port`` bind the
  socket, ``--cache-entries`` bounds the answer cache, ``--watch``
  hot-swaps the store when the artefact is rewritten (e.g. by a
  ``--mutate --resume`` rebuild), ``--max-requests N`` exits after N
  requests (smoke tests) and ``--access-log PATH`` appends one JSON
  line per finished request (``--access-log-sample R`` applies seeded
  sampling);
* ``obs top URL`` / ``obs tail FILE`` — live telemetry tooling: poll a
  running service's ``/v1/metricsz`` endpoint and render a qps /
  shed / p50 / p99 dashboard, or summarise an access-log file
  offline (see ``docs/observability.md``).

Cross-run observability commands (no world is built; see
``docs/observability.md``):

* ``history record MANIFEST`` — validate a run manifest and append it
  to the JSONL run-history registry (``--history``, default
  ``run-history.jsonl``);
* ``history list`` / ``history show REF`` — inspect the registry
  (``REF`` is a listing index, ``last``, or ``@N``);
* ``compare OLD NEW`` — classify the drift between two comparable
  manifests (paths, ``-`` for stdin, or ``@N``/``last`` history refs)
  into ok/warn/regression findings. Exits 4 when a regression is found;
  ``--gate`` escalates warnings to gate too; ``--ignore CATEGORY``
  drops a finding category (e.g. ``wall`` for cross-machine runs).

Common flags: ``--scale {small,medium,default,scale10,scale50}``,
``--seed N``, ``--workers N`` (parallel campaign execution across N
worker processes — the built map is bit-identical for any N; see
``docs/parallelism.md``), the fault-injection trio ``--faults SPEC`` / ``--fault-seed N`` /
``--fault-retries N`` (e.g. ``--faults probe_loss=0.2`` builds the map
under 20% probe loss and reports the degraded coverage), and the
observability flags ``--metrics PATH`` (write a :class:`repro.obs`
run-manifest JSON; ``-`` writes it to stdout and moves the command's
output to stderr so runs pipe straight into ``repro compare``),
``--trace`` (live span log on stderr), ``--profile-memory`` (per-span
tracemalloc gauges) and ``--history PATH`` (append the run's manifest
to a history registry). Any observability flag attaches a recorder and
also runs the auxiliary campaigns, so the manifest covers all eleven
measurement campaigns. ``--map-json PATH`` writes the serialized map
next to whatever the command prints.

Snapshot reuse (see ``docs/checkpointing.md`` and ``docs/delta.md``):
``--checkpoint-dir D`` snapshots every builder stage into ``D``, with
the digest of the stage's inputs; ``--resume`` loads a stage's snapshot
if and only if it verifies and its inputs are unchanged, recomputing the
rest; ``--crash-at STAGE`` arms a simulated crash at that stage boundary
(exit code 3, with the command to resume printed on stderr).
``--mutate PLAN.json`` applies a :class:`repro.delta.MutationPlan` (BGP
link churn, per-prefix activity swings, serving-site turnover) to the
freshly-built world before the campaigns run; with ``--resume`` that is
an incremental delta build, which recomputes only the stages the plan
dirtied and records a ``delta`` manifest section. Either way the map is
bit-identical to a fresh build of the current world.

Exit codes: 0 success; 1 command-specific failure (e.g. failed claims);
2 bad flags or unreadable inputs; 3 simulated crash; 4 regression found
by ``compare``; 5 a manifest failed schema validation (nothing invalid
is ever persisted); 6 ``serve`` was pointed at a missing or
format-incompatible map artefact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import signal
import sys
import threading
import time
from typing import Dict, List, Optional, TextIO

from . import ScenarioConfig, build_scenario
from .errors import ConfigError, ValidationError
from .faults import SERVE_KINDS, FaultPlan, RetryPolicy, SimulatedCrash
from .analysis.claims import ClaimSuite
from .analysis.figures import (fig1a_prefixes_per_pop,
                               fig1b_coverage_and_servers,
                               fig2_subscribers_vs_signals)
from .analysis.report import (render_claims, render_diff_report,
                              render_fig1a, render_fig1b, render_fig2,
                              render_run_report, render_table,
                              render_table1)
from .analysis.tables import regenerate_table1
from .core.builder import BuilderOptions, MapBuilder
from .core.usecases import OutageImpactAnalyzer
from .obs import (DEFAULT_HISTORY_PATH, DIFF_CATEGORIES, NULL_RECORDER,
                  STATUS_REGRESSION, STATUS_WARN, Recorder, RunHistory,
                  RunManifest, diff_manifests, options_digest,
                  validate_manifest)

#: ``repro compare`` found a regression (or, with --gate, a warning).
EXIT_REGRESSION = 4
#: A manifest failed schema validation and was not persisted.
EXIT_INVALID_MANIFEST = 5
#: ``serve`` was pointed at a missing or incompatible map artefact.
EXIT_BAD_MAP = 6

SCALES = {
    "small": ScenarioConfig.small,
    "medium": ScenarioConfig.medium,
    "default": ScenarioConfig.default,
    "scale10": ScenarioConfig.scale10,
    "scale50": ScenarioConfig.scale50,
}


def _package_version() -> str:
    """The installed distribution's version, else the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro")
    except (ImportError, PackageNotFoundError):
        from . import __version__
        return __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Internet Traffic Map reproduction (HotNets 2021)")
    parser.add_argument("-V", "--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="small",
                        help="world size (default: small)")
    parser.add_argument("--seed", type=int, default=20211110,
                        help="scenario seed (default: 20211110)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for campaign execution; "
                             "any N yields a bit-identical map "
                             "(default: 1, serial)")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="profile the run with cProfile and write "
                             "cumulative-sorted stats to PATH")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject measurement faults: comma-separated "
                             "kind=rate entries, e.g. "
                             "'probe_loss=0.2,rootlog_truncation=0.5' "
                             "('all=R' sets every kind)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault plan's drop schedule "
                             "(default: 0)")
    parser.add_argument("--fault-retries", type=int, default=None,
                        help="retry attempts per failed operation "
                             "(default: the scenario's "
                             "fault_retry_attempts)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="record an instrumented build and write the "
                             "run manifest (spans, counters, per-campaign "
                             "provenance) as JSON to PATH ('-' writes it "
                             "to stdout and moves the command's output "
                             "to stderr)")
    parser.add_argument("--trace", action="store_true",
                        help="stream a live indented span log to stderr "
                             "while the build runs")
    parser.add_argument("--profile-memory", action="store_true",
                        help="record per-span tracemalloc gauges "
                             "(mem.<span>.peak_bytes / .current_bytes) "
                             "in the manifest; the built map stays "
                             "bit-identical")
    parser.add_argument("--history", metavar="PATH", default=None,
                        help="append the run's validated manifest to this "
                             "JSONL run-history registry (inspect with "
                             "'repro history')")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="snapshot every builder stage into DIR "
                             "(atomic, content-addressed; see "
                             "docs/checkpointing.md)")
    parser.add_argument("--resume", action="store_true",
                        help="load every snapshot in --checkpoint-dir "
                             "that verifies and whose inputs are "
                             "unchanged, recomputing the rest; with "
                             "--mutate, a delta build (bit-identical to "
                             "a fresh build; see docs/delta.md)")
    parser.add_argument("--crash-at", metavar="STAGE", default=None,
                        help="simulate a crash at this stage boundary "
                             "(e.g. 'services'; exit code 3)")
    parser.add_argument("--mutate", metavar="PLAN", default=None,
                        help="apply a mutation-plan JSON (repro.delta) "
                             "to the world before building")
    parser.add_argument("--map-json", metavar="PATH", default=None,
                        help="build commands: also write the serialized "
                             "map JSON to PATH; serve: the map artefact "
                             "to serve (exit 6 if missing or "
                             "incompatible)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("summary", help="build the map and summarise it")
    sub.add_parser("claims", help="run the headline-claim suite")
    sub.add_parser("figures", help="regenerate Figures 1a/1b/2")
    sub.add_parser("table1", help="regenerate Table 1")
    outage = sub.add_parser("outage", help="outage impact report")
    outage.add_argument("--asn", type=int, default=None,
                        help="AS to take down (default: top-k report)")
    outage.add_argument("--top", type=int, default=5,
                        help="rank the top-k ASes by impact (default 5)")
    report = sub.add_parser("report",
                            help="write the full markdown report")
    report.add_argument("-o", "--output", default="itm-report.md",
                        help="output path (default itm-report.md)")
    serve = sub.add_parser(
        "serve", help="HTTP/JSON query service over a built map "
                      "(docs/serving.md)")
    # Accepted in either position: ``repro --map-json M serve`` (the
    # global flag) or ``repro serve --map-json M``. SUPPRESS keeps the
    # subparser from overwriting the global value with its default.
    serve.add_argument("--map-json", dest="map_json", metavar="PATH",
                       default=argparse.SUPPRESS,
                       help="map artefact to serve (exit 6 if missing "
                            "or incompatible)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8211,
                       help="bind port; 0 picks a free one "
                            "(default: 8211)")
    serve.add_argument("--cache-entries", type=int, default=4096,
                       metavar="N",
                       help="answer-cache capacity (default: 4096)")
    serve.add_argument("--watch", action="store_true",
                       help="poll the --map-json artefact and hot-swap "
                            "the served store when it is rewritten")
    serve.add_argument("--watch-interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="artefact poll interval (default: 2.0)")
    serve.add_argument("--max-requests", type=int, default=None,
                       metavar="N",
                       help="exit after serving N requests (smoke "
                            "tests; default: serve forever)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="admission gate: at most N requests in "
                            "flight; excess requests are shed with 429 "
                            "+ Retry-After (default: no gate)")
    serve.add_argument("--rate", type=float, default=None,
                       metavar="QPS",
                       help="admission gate: token-bucket rate limit "
                            "in requests/second (default: unlimited)")
    serve.add_argument("--burst", type=int, default=None, metavar="N",
                       help="token-bucket burst capacity (default: "
                            "--rate rounded down, at least 1)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="per-request deadline budget; expired "
                            "requests answer 504 and abandon the rest "
                            "of their computation (default: unbounded)")
    serve.add_argument("--max-wait-ms", type=float, default=50.0,
                       metavar="MS",
                       help="bounded wait at the admission gate before "
                            "shedding (default: 50)")
    serve.add_argument("--request-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="per-connection socket timeout; aborts are "
                            "counted as serve.http.timeouts "
                            "(default: 10)")
    serve.add_argument("--chaos", nargs="?", const="all=0.05",
                       default=None, metavar="SPEC",
                       help="arm serve-side fault injection: a "
                            "kind=rate list over slow_handler, "
                            "artefact_corruption, cache_eviction_storm, "
                            "client_disconnect, or bare --chaos for "
                            "all at 0.05 (docs/serving.md)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       metavar="SEED",
                       help="seed for the chaos injection substreams "
                            "(default: 0; a fixed seed makes the "
                            "schedule bit-reproducible)")
    serve.add_argument("--access-log", metavar="PATH", default=None,
                       help="append one JSON line per finished request "
                            "to PATH ('-' writes to stdout); rotation-"
                            "safe, inspect with 'repro obs tail'")
    serve.add_argument("--access-log-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="seeded sampling fraction of requests to "
                            "log (default: 1.0, log everything)")
    obs = sub.add_parser(
        "obs", help="live telemetry tooling for a running query "
                    "service (docs/observability.md)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    top = obs_sub.add_parser(
        "top", help="poll /v1/metricsz and render a live per-endpoint "
                    "qps/shed/latency dashboard")
    top.add_argument("url", help="service base URL, e.g. "
                                 "http://127.0.0.1:8211")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="scrape interval (default: 2.0)")
    top.add_argument("--frames", type=int, default=0, metavar="N",
                     help="stop after N scrapes (default: 0, poll "
                          "until interrupted)")
    tail = obs_sub.add_parser(
        "tail", help="summarise a --access-log JSONL file")
    tail.add_argument("file", help="access-log path written by "
                                   "'repro serve --access-log'")
    history = sub.add_parser(
        "history", help="inspect or append to a run-history registry")
    history_sub = history.add_subparsers(dest="history_command",
                                         required=True)
    record = history_sub.add_parser(
        "record", help="validate a manifest file and append it")
    record.add_argument("manifest", help="run-manifest JSON to append")
    record.add_argument("--label", default=None,
                        help="free-form label stored with the entry")
    record.add_argument("--require-comparable", action="store_true",
                        help="refuse a manifest whose digests make it "
                             "incomparable with the latest entry")
    listing = history_sub.add_parser("list", help="list recorded runs")
    show = history_sub.add_parser("show", help="print one recorded run")
    show.add_argument("ref", help="entry to show: N, @N or 'last' "
                                  "(negative N counts from the end)")
    show.add_argument("--report", action="store_true",
                      help="render the run report instead of raw JSON")
    compare = sub.add_parser(
        "compare", help="classify drift between two run manifests")
    compare.add_argument("old", help="baseline manifest: a JSON path, "
                                     "'-' (stdin), @N or 'last'")
    compare.add_argument("new", help="candidate manifest: a JSON path, "
                                     "'-' (stdin), @N or 'last'")
    compare.add_argument("--gate", action="store_true",
                         help="exit 4 on warnings too, not only "
                              "regressions")
    compare.add_argument("--force", action="store_true",
                         help="diff even when the digests say the runs "
                              "are incomparable")
    compare.add_argument("--ignore", action="append", default=None,
                         metavar="CATEGORY", choices=DIFF_CATEGORIES,
                         help="drop a finding category (repeatable); "
                              "one of: " + ", ".join(DIFF_CATEGORIES))
    compare.add_argument("--json", action="store_true",
                         help="print the structured diff as JSON "
                              "instead of the report")
    for cmd in (record, listing, show, compare):
        cmd.add_argument("--history", dest="history_file",
                         default=DEFAULT_HISTORY_PATH, metavar="PATH",
                         help="registry path (default: "
                              f"{DEFAULT_HISTORY_PATH})")
    return parser


def _parse_faults(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The fault plan the flags describe, or None for a clean build."""
    if args.faults is None and args.crash_at is None:
        return None
    retry = None
    if args.fault_retries is not None:
        retry = RetryPolicy(max_attempts=args.fault_retries)
        retry.validate()
    if args.faults is not None:
        plan = FaultPlan.parse(args.faults, seed=args.fault_seed,
                               retry=retry)
    else:
        plan = FaultPlan(seed=args.fault_seed,
                         retry=retry or RetryPolicy())
    if args.crash_at is not None:
        plan = plan.with_crash_at(args.crash_at)
    return plan


def _make_recorder(args: argparse.Namespace) -> Recorder:
    """A live recorder when any observability flag is set, else null."""
    if args.metrics is None and not args.trace \
            and not args.profile_memory and args.history is None:
        return NULL_RECORDER
    return Recorder(trace=sys.stderr if args.trace else None)


def _prepare(args: argparse.Namespace, recorder: Recorder):
    config = SCALES[args.scale](seed=args.seed)
    faults = _parse_faults(args)
    scenario = build_scenario(config)
    plan = None
    if args.mutate is not None:
        from .delta import MutationPlan, apply_mutation_plan
        plan = MutationPlan.load(args.mutate)
        aspects = apply_mutation_plan(scenario, plan)
        print(f"applied mutation plan {args.mutate} "
              f"({len(plan)} mutation(s), digest {plan.digest()}, "
              f"aspects: {', '.join(aspects) or 'none'})",
              file=sys.stderr)
    # Instrumented runs also exercise the auxiliary campaigns so the
    # manifest covers every measurement campaign, not just the six the
    # map components consume. The serialized map is identical either way
    # (and identical for any --workers count).
    if recorder.enabled:
        options = BuilderOptions(run_auxiliary_campaigns=True,
                                 profile_memory=args.profile_memory,
                                 workers=args.workers)
    elif args.workers != 1:
        options = BuilderOptions(workers=args.workers)
    else:
        options = None
    builder = MapBuilder(scenario, options=options, faults=faults,
                         recorder=recorder,
                         checkpoint_dir=args.checkpoint_dir,
                         resume=args.resume,
                         delta=args.resume and plan is not None,
                         delta_plan=plan)
    itm = builder.build()
    if args.map_json is not None:
        from .core.serialize import map_to_json
        try:
            with open(args.map_json, "w") as handle:
                handle.write(map_to_json(itm))
        except OSError as exc:
            raise ConfigError(
                f"cannot write map JSON to {args.map_json}: {exc}") \
                from None
        print(f"wrote map JSON to {args.map_json}", file=sys.stderr)
    return scenario, builder, itm


def _cmd_summary(scenario, builder, itm) -> int:
    print(itm.summary())
    plan = itm.metadata.get("fault_plan")
    if plan is not None:
        print()
        print(f"fault plan: {plan.describe()} (seed {plan.seed})")
        for name in sorted(itm.coverage):
            record = itm.coverage[name]
            missing = sorted(set(record.techniques_intended)
                             - set(record.techniques_delivered))
            line = f"  {name}: {record.coverage:.1%} coverage"
            if missing:
                line += f", lost {', '.join(missing)}"
            print(line)
            for note in record.notes:
                print(f"    - {note}")
    print()
    rows = []
    for asn, weight in itm.users.top_ases(10):
        asys = scenario.registry.get(asn)
        rows.append((f"AS{asn}", asys.name, asys.country_code,
                     f"{weight:.2%}"))
    print(render_table(["ASN", "name", "cc", "activity share"], rows))
    return 0


def _cmd_claims(scenario, builder, itm) -> int:
    suite = ClaimSuite(scenario, itm, builder.artifacts)
    results = suite.run_all()
    print(render_claims(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_figures(scenario, builder, itm) -> int:
    cache = builder.artifacts.cache_result
    print(render_fig1a(fig1a_prefixes_per_pop(scenario, cache)))
    print()
    print(render_fig1b(fig1b_coverage_and_servers(
        scenario, cache, builder.artifacts.tls_result)))
    print()
    print(render_fig2(fig2_subscribers_vs_signals(scenario, cache)))
    return 0


def _cmd_table1(scenario, builder, itm) -> int:
    print(render_table1(regenerate_table1(scenario, itm)))
    return 0


def _cmd_outage(scenario, builder, itm, asn: Optional[int],
                top: int) -> int:
    analyzer = OutageImpactAnalyzer(itm, scenario.prefixes,
                                    scenario.graph)
    if asn is not None:
        if scenario.registry.maybe(asn) is None:
            print(f"unknown ASN {asn}", file=sys.stderr)
            return 2
        report = analyzer.assess_as_outage(asn)
        print(report.headline())
        print(f"  off-net caches inside: "
              f"{', '.join(report.offnet_orgs_inside) or 'none'}")
        print(f"  alternate transit: "
              f"{'yes' if report.alternate_transit else 'NO'}")
        return 0
    eyeballs = [a.asn for a in scenario.registry.eyeballs()]
    rows = []
    for ranked_asn, weight in analyzer.rank_by_impact(eyeballs, k=top):
        asys = scenario.registry.get(ranked_asn)
        rows.append((f"AS{ranked_asn}", asys.name, f"{weight:.2%}"))
    print(render_table(["ASN", "ISP", "activity share"], rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # A downstream consumer (e.g. ``| head``) closed stdout early.
        # Point the fd at devnull so the interpreter's shutdown flush
        # does not raise a second time. Exit non-zero: the command's
        # real exit code (possibly a gate failure) was lost with the
        # pipe, so success must not be claimed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: Optional[List[str]]) -> int:
    """:func:`main` minus the broken-pipe guard."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    if args.command is None:
        args.command = "summary"
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        _parse_faults(args)
    except ConfigError as exc:
        print(f"bad --faults flags: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "chaos", None) is not None:
        # Parsed before any world is built, like --faults; the plan
        # replaces the spec string.
        try:
            args.chaos = FaultPlan.parse(args.chaos, seed=args.chaos_seed,
                                         kinds=SERVE_KINDS)
        except ConfigError as exc:
            print(f"bad --chaos spec: {exc}", file=sys.stderr)
            return 2
    if args.profile is not None:
        import cProfile
        import pstats
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _run(args, argv)
        finally:
            profiler.disable()
            try:
                with open(args.profile, "w") as handle:
                    stats = pstats.Stats(profiler, stream=handle)
                    stats.sort_stats("cumulative").print_stats()
            except OSError as exc:
                print(f"cannot write profile to {args.profile}: {exc}",
                      file=sys.stderr)
            else:
                print(f"wrote profile to {args.profile}", file=sys.stderr)
    return _run(args, argv)


def _persist_observability(args: argparse.Namespace, builder: MapBuilder,
                           manifest_stream: Optional[TextIO],
                           serve_section=None) -> int:
    """Validate the run's manifest, then write/record it as requested.

    Runs :func:`repro.obs.validate_manifest` first; an invalid manifest
    is never persisted anywhere — not to ``--metrics``, not to the
    ``--history`` registry — and the run exits :data:`EXIT_INVALID_MANIFEST`
    instead. ``manifest_stream`` is the real stdout captured before
    ``--metrics -`` redirected the command's own output to stderr.
    ``serve_section`` is the serving-path counter section a drained
    ``repro serve`` run attaches (format 4; format 5 once latency
    histograms are recorded).
    """
    manifest = builder.manifest(command=args.command, scale=args.scale,
                                serve=serve_section)
    return _persist_manifest(args, manifest, manifest_stream,
                             options_digest(builder.options))


def _persist_manifest(args: argparse.Namespace, manifest: RunManifest,
                      manifest_stream: Optional[TextIO],
                      options_dig: Optional[str] = None) -> int:
    """Validate ``manifest``, then write/record it as the flags ask."""
    try:
        validate_manifest(manifest.to_dict())
    except ValidationError as exc:
        print(f"invalid run manifest (not persisted): {exc}",
              file=sys.stderr)
        return EXIT_INVALID_MANIFEST
    if args.metrics == "-":
        stream = manifest_stream or sys.stdout
        stream.write(manifest.to_json())
        stream.write("\n")
        print("wrote metrics manifest to stdout", file=sys.stderr)
    elif args.metrics is not None:
        try:
            manifest.save(args.metrics)
        except OSError as exc:
            print(f"cannot write metrics to {args.metrics}: {exc}",
                  file=sys.stderr)
        else:
            print(f"wrote metrics manifest to {args.metrics}",
                  file=sys.stderr)
    if args.history is not None:
        try:
            entry = RunHistory(args.history).record(
                manifest, options_digest=options_dig)
        except ValidationError as exc:
            print(f"cannot append to history {args.history}: {exc}",
                  file=sys.stderr)
            return EXIT_INVALID_MANIFEST
        print(f"recorded run @{entry.index} in {args.history}",
              file=sys.stderr)
    return 0


def _load_manifest_ref(ref: str, history_path: str) -> RunManifest:
    """Resolve a manifest reference for ``compare``/``history show``.

    ``ref`` is a JSON file path, ``-`` (read stdin), ``last`` (newest
    history entry) or ``@N`` (history entry by listing index; negative N
    counts from the end). Raises OSError for unreadable files,
    json.JSONDecodeError for unparseable JSON, ValidationError for
    schema violations or missing history entries, and ValueError for a
    malformed ``@N``.
    """
    if ref == "-":
        return RunManifest.from_json(sys.stdin.read())
    if ref == "last":
        ref = "@-1"
    if ref.startswith("@"):
        return RunHistory(history_path).get(int(ref[1:])).load_manifest()
    return RunManifest.load(ref)


def _cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare OLD NEW``: classify drift, gate on regressions."""
    if args.old == "-" and args.new == "-":
        print("only one of OLD/NEW can read stdin ('-')", file=sys.stderr)
        return 2
    manifests = []
    for ref in (args.old, args.new):
        try:
            manifests.append(_load_manifest_ref(ref, args.history_file))
        except OSError as exc:
            print(f"cannot read {ref}: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"{ref}: not valid JSON: {exc}", file=sys.stderr)
            return EXIT_INVALID_MANIFEST
        except (ValidationError, ValueError) as exc:
            print(f"{ref}: {exc}", file=sys.stderr)
            return EXIT_INVALID_MANIFEST
    old, new = manifests
    try:
        diff = diff_manifests(old, new, force=args.force,
                              ignore=tuple(args.ignore or ()))
    except ValidationError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff_report(diff))
    gating = {STATUS_REGRESSION, STATUS_WARN} if args.gate \
        else {STATUS_REGRESSION}
    return EXIT_REGRESSION if diff.status in gating else 0


def _cmd_history(args: argparse.Namespace) -> int:
    """``repro history record/list/show`` against a JSONL registry."""
    history = RunHistory(args.history_file)
    if args.history_command == "record":
        try:
            with open(args.manifest) as handle:
                payload = json.load(handle)
        except OSError as exc:
            print(f"cannot read {args.manifest}: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"{args.manifest}: not valid JSON: {exc}",
                  file=sys.stderr)
            return EXIT_INVALID_MANIFEST
        try:
            entry = history.record(
                payload, label=args.label,
                require_same_key=args.require_comparable)
        except ValidationError as exc:
            print(f"not recorded: {exc}", file=sys.stderr)
            return EXIT_INVALID_MANIFEST
        print(f"recorded run @{entry.index} ({entry.key.describe()}) "
              f"in {history.path}")
        return 0
    if args.history_command == "list":
        entries, bad = history.scan()
        if bad:
            print(f"skipped {len(bad)} unreadable line(s): "
                  f"{', '.join(map(str, bad))}", file=sys.stderr)
        if not entries:
            print(f"history {history.path} is empty")
            return 0
        rows = []
        for entry in entries:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                                  time.gmtime(entry.recorded_unix))
            rows.append((f"@{entry.index}", stamp,
                         entry.manifest.get("command") or "-",
                         entry.manifest.get("scale") or "-",
                         entry.key.describe(), entry.label or "-"))
        print(render_table(
            ["ref", "recorded (UTC)", "command", "scale",
             "config/fault/options", "label"], rows))
        return 0
    assert args.history_command == "show"
    ref = args.ref
    if not ref.startswith("@") and ref != "last":
        ref = "@" + ref
    try:
        manifest = _load_manifest_ref(ref, args.history_file)
    except (ValidationError, ValueError) as exc:
        print(f"{args.ref}: {exc}", file=sys.stderr)
        return 2
    print(render_run_report(manifest) if args.report
          else manifest.to_json())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: HTTP/JSON query service over a built map.

    With ``--map-json`` the artefact at that path is served (the
    scenario flags rebuild the ground-truth context it needs — use the
    same ``--scale``/``--seed``/``--mutate`` the artefact was built
    with); without it a map is built in-process first, and any
    observability flags produce a run manifest carrying the ``serve.*``
    counters accumulated while serving.

    SIGTERM/SIGINT trigger a graceful drain: the gate stops admitting
    (new requests answer 503), in-flight handlers finish and deliver
    byte-complete responses, the manifest is flushed, and the process
    exits 0.
    """
    from .core.mapstore import MapStore
    from .obs import AccessLog, LiveTelemetry
    from .serve import (AdmissionGate, ArtefactWatcher, ChaosEngine,
                        MapArtefactError, MapService, load_store,
                        serve_http, serve_manifest_section)
    if args.watch and args.map_json is None:
        print("--watch requires --map-json", file=sys.stderr)
        return 2
    if not 0.0 <= args.access_log_sample <= 1.0:
        print("--access-log-sample must be within [0, 1]",
              file=sys.stderr)
        return 2
    recorder = _make_recorder(args)
    builder = None
    if args.map_json is not None:
        scenario = build_scenario(SCALES[args.scale](seed=args.seed))
        if args.mutate is not None:
            from .delta import MutationPlan, apply_mutation_plan
            apply_mutation_plan(scenario, MutationPlan.load(args.mutate))
        try:
            store = load_store(args.map_json, scenario)
        except MapArtefactError as exc:
            print(f"cannot serve {args.map_json}: {exc}", file=sys.stderr)
            print(f"hint: build one with 'repro --scale {args.scale} "
                  f"--seed {args.seed} --map-json {args.map_json} "
                  f"summary'", file=sys.stderr)
            return EXIT_BAD_MAP
    else:
        try:
            scenario, builder, itm = _prepare(args, recorder)
        except ValidationError as exc:
            print(f"bad build flags: {exc}", file=sys.stderr)
            return 2
        store = MapStore.from_map(itm, graph=scenario.graph)
    gate = None
    if args.max_inflight is not None or args.rate is not None \
            or args.deadline_ms is not None:
        gate = AdmissionGate(
            max_inflight=(args.max_inflight
                          if args.max_inflight is not None else 64),
            rate=args.rate, burst=args.burst,
            max_wait_s=args.max_wait_ms / 1000.0,
            deadline_s=(None if args.deadline_ms is None
                        else args.deadline_ms / 1000.0),
            recorder=recorder)
    chaos = None
    if args.chaos is not None:
        chaos = ChaosEngine(args.chaos, recorder=recorder)
        print(f"serve: chaos armed ({args.chaos.describe()}, "
              f"seed {args.chaos_seed})", file=sys.stderr)
    access_log = None
    if args.access_log is not None:
        try:
            access_log = AccessLog(args.access_log,
                                   sample=args.access_log_sample,
                                   seed=args.seed)
        except OSError as exc:
            print(f"cannot open access log {args.access_log}: {exc}",
                  file=sys.stderr)
            return 2
    telemetry = LiveTelemetry(access_log=access_log)
    service = MapService(store, recorder=recorder,
                         cache_entries=args.cache_entries,
                         gate=gate, chaos=chaos, telemetry=telemetry)
    watcher = None
    if args.watch:
        watcher = ArtefactWatcher(service, args.map_json, scenario,
                                  interval=args.watch_interval,
                                  chaos=chaos)
        service.attach_watch_circuit(watcher.circuit)
        watcher.start()
    server = serve_http(service, host=args.host, port=args.port,
                        request_timeout=args.request_timeout)

    def _drain(signum, frame):
        # Stop admitting, let serve_forever return; server_close below
        # joins the in-flight handler threads so every admitted
        # response is delivered byte-complete.
        print("serve: draining (stop accepting, finishing in-flight "
              "handlers)", file=sys.stderr)
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
    except ValueError:
        # Not the main thread (tests drive main() from a worker);
        # KeyboardInterrupt still lands in the except below.
        pass
    print(f"serving map {store.short_digest} on "
          f"http://{args.host}:{server.server_port} "
          f"(endpoints: /v1/health /v1/healthz /v1/readyz /v1/map "
          f"/v1/cdf /v1/outage /v1/anycast /v1/metricsz)",
          file=sys.stderr)
    try:
        if args.max_requests is not None:
            server.timeout = 0.5  # re-check the drain flag while idle
            timed_out: List[bool] = []
            server.handle_timeout = lambda: timed_out.append(True)
            handled = 0
            while handled < args.max_requests and not service.draining:
                del timed_out[:]
                server.handle_request()
                if not timed_out:
                    handled += 1
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if watcher is not None:
            watcher.stop()
        server.server_close()
        stats = service.cache_stats()
        print(f"serve: answer cache {stats.hits} hit(s) / "
              f"{stats.misses} miss(es) / {stats.evictions} eviction(s) "
              f"({stats.hit_rate:.0%} hit rate)", file=sys.stderr)
        if access_log is not None:
            access_log.close()
    if args.metrics is not None or args.history is not None:
        serve_section = serve_manifest_section(
            recorder, telemetry=service.telemetry)
        if builder is not None:
            return _persist_observability(args, builder, None,
                                          serve_section=serve_section)
        # Artefact mode has no MapBuilder; assemble the manifest
        # straight from the recorder so the CI smoke can compare a
        # /v1/metricsz scrape against the flushed serve section.
        from .obs import collect_manifest
        manifest = collect_manifest(recorder,
                                    SCALES[args.scale](seed=args.seed),
                                    serve=serve_section,
                                    command=args.command,
                                    scale=args.scale)
        return _persist_manifest(args, manifest, None)
    return 0


def _render_obs_entry(name: str, entry: Dict) -> List[str]:
    """One dashboard table row from a window/aggregate entry."""
    return [name, f"{entry.get('qps', 0.0):.1f}",
            f"{entry.get('shed_fraction', 0.0):.1%}",
            f"{entry.get('p50_ms', 0.0):.1f}",
            f"{entry.get('p99_ms', 0.0):.1f}"]


_OBS_HEADERS = ["endpoint", "qps", "shed", "p50(ms)", "p99(ms)"]


def _render_obs_frame(snapshot: Dict) -> str:
    """One ``repro obs top`` frame from a /v1/metricsz JSON snapshot."""
    counters = snapshot.get("counters") or {}
    window = snapshot.get("window") or {}
    totals = window.get("totals") or {}
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    lookups = hits + misses
    hit_rate = f"{hits / lookups:.0%}" if lookups else "n/a"
    lines = [
        f"map {snapshot.get('digest', '?')}  "
        f"draining={'yes' if snapshot.get('draining') else 'no'}  "
        f"window={window.get('window_s', 0)}s",
        f"qps {totals.get('qps', 0.0):.1f}  "
        f"shed {totals.get('shed_fraction', 0.0):.1%}  "
        f"cache hit-rate {hit_rate}",
    ]
    endpoints = window.get("endpoints") or {}
    if endpoints:
        rows = [_render_obs_entry(name, endpoints[name])
                for name in sorted(endpoints)]
        rows.append(_render_obs_entry("(total)", totals))
        lines.append(render_table(_OBS_HEADERS, rows))
    else:
        lines.append("(no requests in the last "
                     f"{window.get('window_s', 0)}s)")
    return "\n".join(lines)


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro obs top URL``: poll /v1/metricsz?format=json and render."""
    from urllib.error import URLError
    from urllib.request import urlopen
    base = args.url if "://" in args.url else f"http://{args.url}"
    endpoint = base.rstrip("/") + "/v1/metricsz?format=json"
    frame = 0
    try:
        while True:
            try:
                with urlopen(endpoint, timeout=10) as resp:
                    snapshot = json.loads(resp.read().decode("utf-8"))
            except (OSError, URLError, ValueError) as exc:
                print(f"cannot scrape {endpoint}: {exc}",
                      file=sys.stderr)
                return 2
            if frame:
                print()
            print(_render_obs_frame(snapshot))
            frame += 1
            if args.frames and frame >= args.frames:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    """``repro obs tail FILE``: summarise a --access-log JSONL file."""
    from .obs import aggregate_access_log, load_access_log
    try:
        records, malformed = load_access_log(args.file)
    except OSError as exc:
        print(f"cannot read access log {args.file}: {exc}",
              file=sys.stderr)
        return 2
    if malformed:
        print(f"warning: skipped {malformed} malformed line(s)",
              file=sys.stderr)
    summary = aggregate_access_log(records)
    print(f"{summary['records']} request(s) over "
          f"{summary['span_s']:.1f}s in {args.file}")
    endpoints = summary["endpoints"]
    if endpoints:
        rows = [_render_obs_entry(name, endpoints[name])
                for name in sorted(endpoints)]
        rows.append(_render_obs_entry("(total)", summary["totals"]))
        print(render_table(_OBS_HEADERS, rows))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "tail":
        return _cmd_obs_tail(args)
    return _cmd_obs_top(args)


def _run(args: argparse.Namespace, argv: List[str]) -> int:
    if args.command == "history":
        return _cmd_history(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.metrics == "-":
        # The manifest owns stdout: the command's own output moves to
        # stderr so `repro --metrics - summary | repro compare - BASE`
        # pipes a clean JSON document.
        stream = sys.stdout
        with contextlib.redirect_stdout(sys.stderr):
            return _run_build(args, argv, manifest_stream=stream)
    return _run_build(args, argv)


def _resume_command(argv: List[str]) -> str:
    """The crashed command line re-armed as a resume, shell-quoted:
    ``--crash-at STAGE`` (or an abbreviation of it) dropped, every
    other flag kept, ``--resume`` added."""
    kept: List[str] = []
    tokens = iter(argv)
    for token in tokens:
        name = token.split("=", 1)[0]
        if len(name) > 3 and "--crash-at".startswith(name):
            if "=" not in token:
                next(tokens, None)
            continue
        kept.append(token)
    if "--resume" not in kept:
        kept.insert(0, "--resume")
    return "python -m repro " + shlex.join(kept)


def _run_build(args: argparse.Namespace, argv: List[str],
               manifest_stream: Optional[TextIO] = None) -> int:
    recorder = _make_recorder(args)
    try:
        scenario, builder, itm = _prepare(args, recorder)
    except SimulatedCrash as crash:
        print(f"build died: {crash}", file=sys.stderr)
        if args.checkpoint_dir is not None:
            print(f"resume with: {_resume_command(argv)}",
                  file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"bad build flags: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    obs_code = 0
    try:
        if args.command == "summary":
            code = _cmd_summary(scenario, builder, itm)
        elif args.command == "claims":
            code = _cmd_claims(scenario, builder, itm)
        elif args.command == "figures":
            code = _cmd_figures(scenario, builder, itm)
        elif args.command == "table1":
            code = _cmd_table1(scenario, builder, itm)
        elif args.command == "outage":
            code = _cmd_outage(scenario, builder, itm, args.asn, args.top)
        elif args.command == "report":
            from .analysis.export import build_report
            manifest = (builder.manifest(command="report",
                                         scale=args.scale)
                        if recorder.enabled else None)
            text = build_report(scenario, itm, builder.artifacts,
                                manifest=manifest)
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {args.output} ({len(text)} chars)")
            code = 0
        else:
            raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        # The manifest is written/recorded even when the command itself
        # fails (a failing claims run is exactly the run worth keeping);
        # an invalid manifest turns an otherwise-clean exit into
        # EXIT_INVALID_MANIFEST.
        if args.metrics is not None or args.history is not None:
            obs_code = _persist_observability(args, builder,
                                              manifest_stream)
    return code if code != 0 else obs_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
