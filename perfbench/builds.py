"""Build-side workloads: ``build-paper`` and ``churn-paper``.

Both run the builder in-process with ``workers=1`` (on two cores a
process pool is slower than the inline executor) over the default
paper-scale world. The world is the same for every seed, so the spread
between runs measures the program, not the world generator's draw; the
seed picks the churn workload's mutation sequence.

An *operation* is what a user of the builder waits for:

* ``build-paper`` — one rebuild cycle: a plain build, a fresh
  checkpointed build into an empty directory (snapshot writes), and a
  full resume from those snapshots (snapshot reads);
* ``churn-paper`` — one churn step: apply a single-``ActivitySwing``
  mutation plan, then rebuild with ``delta=True``.

Untraced runs time operations with no recorder attached. Traced runs
alternate untraced and traced operations; per-layer numbers come from
the traced ones (the :class:`repro.obs.Recorder` spans and counters the
builder already emits), and the ratio of the two medians is the tracing
overhead.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from harness import Context, Run, dir_bytes, median, self_peak_rss_mb, \
    settle, summary, tail, timed

#: Set-up (world generation) is repeated this many times; its median is
#: ``setup_s``.
SETUP_REPEATS = 3

#: Builder span labels reported as per-layer seconds.
BUILDER_SPANS = {
    "builder.users_s": "users",
    "builder.services_s": "services",
    "builder.routes_s": "routes",
    "builder.assemble_s": "assemble",
    "activity.fusion_s": "fusion",
}

#: The primary campaigns (the ones that feed the map's components).
CAMPAIGNS = ("cache-probing", "root-logs", "tls-scan", "ecs-mapping",
             "catchment-probing", "sni-scan")

#: Prefixes swung by each churn step's single ``ActivitySwing``.
SWING_PREFIXES = 5


class Digester:
    """``map_to_json`` digests of built maps, timing the serialiser."""

    def __init__(self) -> None:
        from repro.core.serialize import map_to_json
        self._to_json = map_to_json
        self.seconds: List[float] = []
        self.size = 0

    def __call__(self, itm) -> str:
        started = time.perf_counter()
        text = self._to_json(itm)
        self.seconds.append(time.perf_counter() - started)
        self.size = len(text)
        return hashlib.sha256(text.encode()).hexdigest()


def generate_worlds(ctx: Context, run: Run):
    """Generate the world :data:`SETUP_REPEATS` times; keep the last."""
    from repro import build_scenario
    seconds = []
    scenario = None
    for __ in range(SETUP_REPEATS):
        scenario = None     # never hold two worlds at once
        scenario, took = timed(lambda: build_scenario(ctx.config()))
        seconds.append(took)
    run.details["world_s"] = summary(seconds)
    run.details["prefixes"] = len(scenario.prefixes)
    run.layers["scenario.build_s"] = median(seconds)
    return scenario, median(seconds)


def span_seconds(recorder, label: str) -> float:
    """Seconds spent in every span opened with ``label``."""
    return sum(t.wall_s for t in recorder.spans() if t.name == label)


def build_layers(recorder) -> Dict[str, float]:
    """Per-layer numbers of one traced build."""
    out = {name: span_seconds(recorder, label)
           for name, label in BUILDER_SPANS.items()}
    for campaign in CAMPAIGNS:
        out[f"measure.{campaign}_s"] = span_seconds(
            recorder, f"measure.{campaign}")
    for stage in ("save", "verify", "load"):
        out[f"ckpt.{stage}_s"] = span_seconds(recorder, f"ckpt.{stage}")
    for counter in ("saves", "loads", "stale", "misses"):
        out[f"ckpt.{counter}"] = recorder.counters.get(f"ckpt.{counter}", 0)
    out["routing.cache.hit_rate"] = recorder.gauges.get(
        "routing.cache.hit_rate", 0.0)
    return out


def median_layers(samples: List[Dict[str, float]],
                  names) -> Dict[str, float]:
    """Per-name median over several traced operations."""
    return {name: median([s[name] for s in samples]) for name in names}


def new_recorder(traced: bool):
    from repro.obs import Recorder
    return Recorder() if traced else None


def detach(scenario) -> None:
    """Stop a finished traced build's recorder from observing the
    world's shared route cache during later untraced operations."""
    scenario.bgp.attach_recorder(None)


def operation_loop(ctx: Context, operation: Callable[[bool], float]
                   ) -> Tuple[List[float], List[float]]:
    """Run ``operation(traced)`` until the operations themselves took
    ``ctx.seconds`` (checks between them are not counted); returns the
    untraced and traced latencies. Traced runs alternate the two kinds
    so both see the same machine conditions."""
    untraced: List[float] = []
    traced: List[float] = []
    while True:
        trace_this = ctx.trace and len(traced) < len(untraced)
        (traced if trace_this else untraced).append(operation(trace_this))
        done = sum(untraced) + sum(traced) >= ctx.seconds
        if done and untraced and (traced or not ctx.trace):
            return untraced, traced


def operation_metrics(run: Run, ops: List[float], setup_s: float) -> None:
    """The end-to-end metrics every workload reports, from the
    latencies of its untraced operations. Operations run one after
    another, so the rate is the reciprocal of their time; the median
    time keeps one slow operation from swinging it."""
    value, basis = tail(ops)
    run.e2e.update({
        "setup_s": setup_s,
        "p50_ms": median(ops) * 1e3,
        "p99_ms": value * 1e3,
        "qps": 1.0 / median(ops),
        "peak_rss_mb": self_peak_rss_mb(),
    })
    run.details["operation_ms"] = summary(ops, 1e3, 3)
    run.details["p99_ms_basis"] = basis


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    return (median(traced) / median(untraced) - 1.0) * 100.0


# -- build-paper ------------------------------------------------------------------

def build_paper(ctx: Context) -> Run:
    """Plain, checkpointed and resumed builds of the default world."""
    from repro.core.builder import MapBuilder
    run = Run()
    scenario, setup_s = generate_worlds(ctx, run)
    digest = Digester()
    kinds = ("build_s", "ckpt_build_s", "resume_s")
    seconds: Dict[Tuple[bool, str], List[float]] = {
        (traced, kind): [] for traced in (False, True) for kind in kinds}
    layers: Dict[str, List[Dict[str, float]]] = {k: [] for k in kinds}
    snapshot_bytes: List[int] = []
    # Lazy set-up (imports, the route cache, first-touch allocations)
    # finishes in one untimed plain build, whose map is the reference
    # every measured build must reproduce.
    warmup, warmup_s = timed(MapBuilder(scenario).build)
    run.details["warmup_s"] = warmup_s
    reference = ctx.expected(digest(warmup))
    warmup = None

    def check(itm, what: str) -> None:
        run.check(digest(itm) == reference, f"{what} digest differs")

    def cycle(traced: bool) -> float:
        ckpt_dir = ctx.workdir / "ckpt"
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        builds = (
            ("build_s", "plain build", {}),
            ("ckpt_build_s", "checkpointed build",
             {"checkpoint_dir": ckpt_dir}),
            ("resume_s", "resumed build",
             {"checkpoint_dir": ckpt_dir, "resume": True}),
        )
        total = 0.0
        for kind, what, kwargs in builds:
            recorder = new_recorder(traced)
            itm, took = timed(MapBuilder(scenario, recorder=recorder,
                                         **kwargs).build)
            total += took
            seconds[(traced, kind)].append(took)
            if kind == "ckpt_build_s":
                snapshot_bytes.append(dir_bytes(ckpt_dir))
            if traced:
                layers[kind].append(build_layers(recorder))
                detach(scenario)
            check(itm, what)
        return total

    untraced, traced = operation_loop(ctx, cycle)
    operation_metrics(run, untraced, setup_s)
    for kind in kinds:
        run.details[kind] = summary(seconds[(False, kind)], digits=4)
    run.details["map_to_json_s"] = summary(digest.seconds, digits=4)
    run.details["snapshot_bytes"] = snapshot_bytes[-1]
    run.details["map_bytes"] = digest.size
    if ctx.trace:
        run.layers.update({kind: median(seconds[(False, kind)])
                           for kind in kinds})
        plain = layers["build_s"][0].keys()
        run.layers.update(median_layers(
            layers["build_s"],
            [n for n in plain if not n.startswith("ckpt.")]))
        run.layers.update(median_layers(
            layers["ckpt_build_s"], ["ckpt.save_s", "ckpt.saves"]))
        run.layers.update(median_layers(
            layers["resume_s"], ["ckpt.verify_s", "ckpt.load_s",
                                 "ckpt.loads", "ckpt.stale",
                                 "ckpt.misses"]))
        run.layers["ckpt.snapshot_bytes"] = median(snapshot_bytes)
        run.layers["serialize.map_to_json_s"] = median(digest.seconds)
        run.layers["serialize.artefact_bytes"] = digest.size
        run.layers["trace.overhead_pct"] = overhead_pct(untraced, traced)
    return run


# -- churn-paper ------------------------------------------------------------------

def churn_plans(seed: int, n_prefixes: int):
    """Endless seeded single-``ActivitySwing`` plans.

    Factors alternate 2x / 0.5x so demand oscillates instead of drifting;
    every swing is a power of two, so the mutated world stays exact.
    """
    from repro.delta import ActivitySwing, MutationPlan
    rng = np.random.default_rng(seed)
    step = 0
    while True:
        ids = rng.choice(n_prefixes, size=SWING_PREFIXES, replace=False)
        factor = 2.0 if step % 2 == 0 else 0.5
        yield MutationPlan(mutations=(ActivitySwing(
            prefix_ids=tuple(sorted(int(i) for i in ids)),
            factor=factor),))
        step += 1


def churn_paper(ctx: Context) -> Run:
    """Delta rebuilds after small activity swings, from a checkpointed
    base; the last step must equal a fresh build of the mutated world."""
    from repro import build_scenario
    from repro.core.builder import MapBuilder
    from repro.delta import MutationPlan, apply_mutation_plan
    run = Run()
    scenario, world_s = generate_worlds(ctx, run)
    ckpt_dir = ctx.workdir / "ckpt"
    __, base_s = timed(MapBuilder(scenario, checkpoint_dir=ckpt_dir).build)
    run.details["base_ckpt_build_s"] = base_s
    plans = churn_plans(ctx.seed, len(scenario.prefixes))
    applied = []
    step_layers: List[Dict[str, float]] = []
    last: List[object] = [None]

    def step(traced: bool) -> float:
        plan = next(plans)
        recorder = new_recorder(traced)
        settle()
        started = time.perf_counter()
        apply_mutation_plan(scenario, plan)
        applied_at = time.perf_counter()
        builder = MapBuilder(scenario, recorder=recorder,
                             checkpoint_dir=ckpt_dir, delta=True,
                             delta_plan=plan)
        last[0] = builder.build()
        finished = time.perf_counter()
        applied.extend(plan.mutations)
        # Checked as a chain: the final comparison below covers every
        # step, and a mismatch there counts as a failed operation.
        run.attempted += 1
        lineage = builder.ckpt_lineage
        if traced:
            layers = build_layers(recorder)
            layers["delta.apply_s"] = applied_at - started
            layers["delta.stages_reused"] = len(lineage.stages_reused)
            layers["delta.stages_recomputed"] = len(
                lineage.stages_recomputed)
            layers["ckpt.snapshot_bytes"] = dir_bytes(ckpt_dir)
            step_layers.append(layers)
            detach(scenario)
        run.details["stages_reused"] = list(lineage.stages_reused)
        return finished - started

    step(False)     # lazy set-up, as in build-paper
    untraced, traced = operation_loop(ctx, step)
    operation_metrics(run, untraced, world_s + base_s)
    run.details["delta_step_s"] = summary(untraced, digits=4)

    # The chain of delta steps must land on the map a fresh build of
    # the mutated world gives (untimed: a check, not the workload).
    digest = Digester()
    got = digest(last[0])
    scenario = last[0] = None
    settle()
    fresh_world = build_scenario(ctx.config())
    apply_mutation_plan(fresh_world, MutationPlan(mutations=tuple(applied)))
    fresh, fresh_s = timed(MapBuilder(fresh_world).build)
    run.check(got == ctx.expected(digest(fresh)),
              "last delta step differs from a fresh build of the "
              "mutated world")
    run.details["fresh_build_s"] = fresh_s
    run.details["steps"] = len(applied)
    if ctx.trace:
        run.layers.update(median_layers(step_layers, step_layers[0].keys()))
        run.layers["delta_step_s"] = median(untraced)
        run.layers["ckpt_build_s"] = base_s
        run.layers["build_s"] = fresh_s
        run.layers["serialize.map_to_json_s"] = median(digest.seconds)
        run.layers["serialize.artefact_bytes"] = digest.size
        run.layers["trace.overhead_pct"] = overhead_pct(untraced, traced)
    return run
