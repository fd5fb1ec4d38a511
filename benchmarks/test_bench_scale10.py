"""A serial build at 10x substrate scale.

One acceptance gate: a scale10 build stays within the committed memory
baseline (``benchmarks/baselines/scale10-summary.json``), classified by
the same :func:`repro.obs.diff_manifests` thresholds the CLI gate uses.

Regenerate the baseline after an intentional change with::

    python -m repro --scale scale10 --profile-memory \
        --metrics benchmarks/baselines/scale10-summary.json summary
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import ScenarioConfig, build_scenario
from repro.core.builder import BuilderOptions, MapBuilder
from repro.obs import (Recorder, RunManifest, STATUS_REGRESSION,
                       diff_manifests)

SCALE10_BASELINE = Path(__file__).parent / "baselines" / \
    "scale10-summary.json"


@pytest.fixture(scope="module")
def scale10_scenario():
    return build_scenario(ScenarioConfig.scale10())


def test_scale10_serial_build_within_memory_baseline(scale10_scenario):
    """Acceptance gate: scale10 peak memory holds the committed line.

    Wall findings are ignored (cross-machine); the ``memory`` category
    — ``mem.*.peak_bytes`` growth beyond the diff thresholds — and the
    seed-deterministic counters must classify clean.
    """
    baseline = RunManifest.from_json(SCALE10_BASELINE.read_text())
    recorder = Recorder()
    builder = MapBuilder(
        scale10_scenario,
        options=BuilderOptions(run_auxiliary_campaigns=True,
                               profile_memory=True),
        recorder=recorder)
    builder.build()
    manifest = builder.manifest(command="summary", scale="scale10")
    diff = diff_manifests(baseline, manifest, ignore=("wall",))
    regressions = [f for f in diff.findings
                   if f.status == STATUS_REGRESSION]
    assert not regressions, (
        "scale10 regressed vs committed baseline:\n" +
        "\n".join(f"  {f.category} {f.metric}: {f.detail}"
                  for f in regressions))
