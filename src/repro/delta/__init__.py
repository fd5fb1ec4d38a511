"""Incremental delta builds: mutate the substrate, rebuild only what moved.

The paper frames the traffic map as a *living* artifact tracking a
changing Internet (§5) — BGP links churn, activity swings diurnally,
serving sites come and go. This package makes those changes first-class:

* :mod:`repro.delta.mutations` — the :class:`WorldMutation` operations
  (:class:`LinkChurn`, :class:`ActivitySwing`, :class:`SiteTurnover`),
  the JSON-serializable :class:`MutationPlan` composing them, every one
  exactly invertible, and :func:`apply_mutation_plan`, which applies the
  raw substrate edits to a built :class:`repro.scenario.Scenario` and
  re-derives every affected surface through
  :func:`repro.scenario.derive_surfaces` — the code generation runs —
  so a mutated world is bit-identical to one generated mutated;
* :mod:`repro.delta.digests` — per-aspect substrate digests and the
  per-stage *input digests* a :class:`repro.core.builder.MapBuilder`
  with reuse on compares against checkpoint snapshots to decide which
  stages are dirty.

The hard guarantee, regression-locked by ``tests/test_delta_identity.py``:
``delta_build(mutations)`` is bit-identical — map JSON, campaign
records, coverage provenance — to ``fresh_build(mutated_world)``.
See ``docs/delta.md``.
"""

from .digests import (ASPECTS, STAGE_INPUTS, SubstrateDigests,
                      stage_input_digest)
from .mutations import (MUTATION_KINDS, ActivitySwing, LinkChurn,
                        MutationPlan, SiteTurnover, WorldMutation,
                        apply_mutation_plan, mutation_from_dict)

__all__ = [
    "ASPECTS",
    "MUTATION_KINDS",
    "STAGE_INPUTS",
    "ActivitySwing",
    "LinkChurn",
    "MutationPlan",
    "SiteTurnover",
    "SubstrateDigests",
    "WorldMutation",
    "apply_mutation_plan",
    "mutation_from_dict",
    "stage_input_digest",
]
