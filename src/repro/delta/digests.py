"""Substrate aspect digests and per-stage input digests.

Dirty-stage selection needs to answer one question per builder stage:
*did anything this stage reads change since the snapshot was written?*
The substrate is carved into four **aspects**
(:data:`repro.scenario.ASPECTS`) — independent surfaces a
:class:`repro.delta.mutations.WorldMutation` can dirty:

* ``routing`` — the actual AS graph's annotated link set (and with it
  every routing-derived surface: collector view, catchments, paths);
* ``activity`` — the ground-truth traffic matrix (queries and bytes);
* ``population`` — per-prefix user counts (no current mutation touches
  it, but the digest keeps the wiring honest);
* ``serving`` — the CDN deployment: site list, host ASes, serving
  prefixes and stub hosting.

:class:`SubstrateDigests` hashes each aspect's *content* (never object
identity or epoch counters, which differ between a mutated world and a
freshly-generated equal one). :func:`stage_input_digest` reads a
stage's row of :data:`repro.core.builder.STAGES` — the aspects it reads
plus its upstream stages — and chains the aspect digests with the
upstream stages' snapshot *body* digests, so a change anywhere upstream
— in the substrate or in a recomputed predecessor — cascades, and an
unchanged input set short-circuits to snapshot reuse (early cutoff).

The table's invariants (known aspects, upstreams earlier, every stage
reads something) are checked in ``tests/test_delta.py``; the guarantee
that the rows capture *everything* each stage reads is locked
end-to-end by the reuse identity matrix in
``tests/test_delta_identity.py``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping

import numpy as np

from ..core.builder import STAGE_BY_NAME
from ..errors import ValidationError
from ..scenario import ASPECTS


def _sha256(*chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class SubstrateDigests:
    """Content digests of a scenario's mutable substrate aspects.

    Computed lazily and memoised per aspect: a builder hashes each
    aspect at most once per build (the substrate is immutable while a
    build runs). Two scenarios with equal substrate *content* — however
    they got there, generation or mutation round-trip — produce equal
    digests.
    """

    def __init__(self, scenario) -> None:
        self._scenario = scenario
        self._cache: Dict[str, str] = {}

    def aspect(self, name: str) -> str:
        """The named aspect's content digest (memoised)."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        if name == "routing":
            value = self._routing()
        elif name == "activity":
            value = self._activity()
        elif name == "population":
            value = self._population()
        elif name == "serving":
            value = self._serving()
        else:
            raise ValidationError(f"unknown substrate aspect {name!r}")
        self._cache[name] = value
        return value

    def all(self) -> Dict[str, str]:
        """Every aspect digest, in canonical order."""
        return {name: self.aspect(name) for name in ASPECTS}

    # -- per-aspect content hashes ----------------------------------------

    def _routing(self) -> str:
        graph = self._scenario.graph
        lines = sorted(f"{a} {b} {rel.value}"
                       for a, b, rel in graph.edges())
        return _sha256("\n".join(lines).encode())

    def _activity(self) -> str:
        traffic = self._scenario.traffic
        # hashlib reads each contiguous array's buffer in place, with
        # no copy of the matrices.
        return _sha256(np.ascontiguousarray(traffic.queries_per_day),
                       np.ascontiguousarray(traffic.bytes_per_day))

    def _population(self) -> str:
        users = self._scenario.population.users_per_prefix
        return _sha256(np.ascontiguousarray(users))

    def _serving(self) -> str:
        deployment = self._scenario.deployment
        record = {
            key: [[site.site_id, site.kind.value, site.host_asn,
                   site.city.country_code, site.city.name,
                   list(site.prefix_ids)]
                  for site in sites]
            for key, sites in sorted(
                deployment.sites_by_hypergiant.items())
        }
        record["__stub_hosting__"] = sorted(
            deployment.stub_hosting.items())
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":"))
        return _sha256(payload.encode())


def stage_input_digest(stage: str, substrate: SubstrateDigests,
                       upstream_digests: Mapping[str, str]) -> str:
    """One stage's input digest: aspects + upstream snapshot digests.

    ``upstream_digests`` maps already-processed stage names to their
    snapshot *body* digests (reused or freshly saved — either way the
    digest covers the exact payload the downstream stage consumes).
    Raises :class:`ValidationError` for an unknown stage or a missing
    upstream digest — stages must be processed in builder order.
    """
    row = STAGE_BY_NAME.get(stage)
    if row is None:
        raise ValidationError(f"no input-digest table for stage "
                              f"{stage!r}")
    parts = [f"stage={stage}"]
    for aspect in row.aspects:
        parts.append(f"{aspect}={substrate.aspect(aspect)}")
    for name in row.upstream:
        digest = upstream_digests.get(name)
        if digest is None:
            raise ValidationError(
                f"stage {stage!r} needs upstream {name!r} digest "
                f"before its own (builder order violated)")
        parts.append(f"{name}={digest}")
    return _sha256("\n".join(parts).encode())
