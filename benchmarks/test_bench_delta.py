"""Steady-state churn: ten delta rebuilds vs ten fresh rebuilds.

The delta layer's economic claim (docs/delta.md): absorbing a stream of
substrate changes by recomputing only dirty stages beats rebuilding from
scratch. Two acceptance gates at the small scenario:

* **wall-time** — a 10-step activity-churn loop rebuilt with
  ``--mutate --resume`` (the builder's ``delta=True``) costs under 35% of the same loop rebuilt fresh (the services stage,
  roughly three quarters of a small build, is reused on every step);
* **baseline** — the final-step delta manifest, with deterministic
  ``delta.*`` reuse gauges folded in, classifies clean against the
  committed ``benchmarks/baselines/delta-churn.json`` under the same
  :func:`repro.obs.diff_manifests` thresholds the CLI gate uses (wall
  findings ignored — cross-machine).

The two pipelines being compared do the work each would really do at
step *k* of a churn sequence:

* **fresh** regenerates the world from its config, replays the full
  mutation log (plans 1..k) and runs a checkpointed build into an empty
  directory — exactly what ``repro build --mutate`` does today when no
  prior state survives;
* **delta** applies plan *k* to its live world and rebuilds only the
  stages the plan dirtied, against the snapshots the previous step
  saved.

Both sides persist snapshots, so neither gets a durability discount.
The identity verification (``map_to_json`` on both maps) runs outside
the timed regions: it is harness overhead, not rebuild cost, and both
sides would pay it equally.

Every step re-asserts the identity guarantee end-to-end: the delta map
must equal the fresh map byte-for-byte, otherwise the speedup is
measuring a wrong answer.

Regenerate the baseline after an intentional change with::

    REPRO_UPDATE_BASELINES=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_delta.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import ScenarioConfig, build_scenario
from repro.core.builder import MapBuilder
from repro.core.serialize import map_to_json
from repro.delta import ActivitySwing, MutationPlan, apply_mutation_plan
from repro.obs import (Recorder, RunManifest, STATUS_REGRESSION,
                       diff_manifests)

DELTA_BASELINE = Path(__file__).parent / "baselines" / "delta-churn.json"

SEED = 20211110
STEPS = 10


def churn_plans(scenario):
    """Ten single-swing plans over drifting prefix windows.

    Factors alternate 2x / 0.5x so the traffic matrix oscillates instead
    of blowing up; prefix ids wrap modulo the table so the plans stay
    valid at any scale.
    """
    n = scenario.traffic.queries_per_day.shape[1]
    plans = []
    for i in range(STEPS):
        ids = tuple(sorted({(i * 7 + j) % n for j in range(5)}))
        factor = 2.0 if i % 2 == 0 else 0.5
        plans.append(MutationPlan(mutations=(
            ActivitySwing(prefix_ids=ids, factor=factor),)))
    return plans


def test_ten_step_churn_under_35pct_of_fresh(tmp_path_factory):
    config = ScenarioConfig.small(seed=SEED)
    scenario = build_scenario(config)
    root = tmp_path_factory.mktemp("delta-churn")
    ckpt = root / "delta"
    MapBuilder(scenario, checkpoint_dir=ckpt).build()

    fresh_wall = 0.0
    delta_wall = 0.0
    reused_total = 0
    recomputed_total = 0
    builder = None
    applied = []
    for step, plan in enumerate(churn_plans(scenario)):
        applied.append(plan)

        # Fresh pipeline: config + mutation log is all it has.
        start = time.perf_counter()
        replayed = build_scenario(config)
        for past in applied:
            apply_mutation_plan(replayed, past)
        fresh_map = MapBuilder(
            replayed, checkpoint_dir=root / f"fresh-{step}").build()
        fresh_wall += time.perf_counter() - start

        # Delta pipeline: live world + this step's plan.
        recorder = Recorder()
        start = time.perf_counter()
        apply_mutation_plan(scenario, plan)
        builder = MapBuilder(scenario, recorder=recorder,
                             checkpoint_dir=ckpt, delta=True,
                             delta_plan=plan)
        delta_map = builder.build()
        delta_wall += time.perf_counter() - start

        assert map_to_json(delta_map) == map_to_json(fresh_map), \
            f"delta rebuild diverged from fresh rebuild at step {step}"
        lineage = builder.ckpt_lineage
        assert lineage.stages_reused, "no reuse: delta means fresh"
        reused_total += len(lineage.stages_reused)
        recomputed_total += len(lineage.stages_recomputed)

    ratio = delta_wall / fresh_wall
    print(f"\n{STEPS}-step churn: fresh {fresh_wall:.2f}s, delta "
          f"{delta_wall:.2f}s ({ratio:.0%}); reused "
          f"{reused_total}/{reused_total + recomputed_total} "
          f"stage visits")
    assert ratio < 0.35, (
        f"{STEPS} delta rebuilds cost {ratio:.0%} of fresh rebuilds "
        f"(gate: 35%)")

    # Deterministic churn outcome, folded into the final-step manifest
    # as gauges so the committed baseline locks it.
    recorder.gauge("delta.churn.steps", STEPS)
    recorder.gauge("delta.churn.stages_reused_total", reused_total)
    recorder.gauge("delta.churn.stages_recomputed_total",
                   recomputed_total)
    manifest = builder.manifest(command="bench-delta", scale="small")

    if os.environ.get("REPRO_UPDATE_BASELINES"):
        DELTA_BASELINE.write_text(
            json.dumps(manifest.to_dict(), indent=2) + "\n")
        print(f"baseline rewritten: {DELTA_BASELINE}")
        return

    baseline = RunManifest.from_json(DELTA_BASELINE.read_text())
    diff = diff_manifests(baseline, manifest, ignore=("wall",))
    regressions = [f for f in diff.findings
                   if f.status == STATUS_REGRESSION]
    assert not regressions, (
        "delta churn regressed vs committed baseline:\n" +
        "\n".join(f"  {f.category} {f.metric}: {f.detail}"
                  for f in regressions))
