"""Substrate mutations: typed, validated, exactly invertible world edits.

Three mutation kinds cover the churn the paper's continuously-rebuilt
map must absorb (§5): BGP link churn, per-prefix activity swings and
serving-site turnover. Each is a frozen dataclass with a JSON form, and
each has an *exact* inverse — applying a mutation and then its inverse
restores the substrate bit-for-bit, a property the delta-build identity
tests lean on:

* :class:`LinkChurn` adds or removes one annotated AS link; the inverse
  flips the operation (the relationship annotation rides along, so
  removing a link remembers what to put back).
* :class:`ActivitySwing` scales the demand of a prefix set by a
  **power of two**. Restricting factors to exact binary scales makes
  ``x * f * (1/f) == x`` hold exactly in IEEE-754 (only the exponent
  moves), which is what makes the swing invertible bit-for-bit.
* :class:`SiteTurnover` retires or revives one serving site. Retirement
  is modelled as *filtering* the pristine deployment (never rebuilding
  it), so a revive restores the original site objects exactly.

A :class:`MutationPlan` strings mutations into an ordered sequence with
a canonical JSON encoding and a content digest; ``plan.inverse()``
reverses the sequence with every step inverted. The JSON schema is
documented in ``docs/delta.md``. :func:`apply_mutation_plan` applies a
plan to a built scenario and re-derives the surfaces it dirtied through
:func:`repro.scenario.derive_surfaces`, the same code generation runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Type

from ..errors import ValidationError
from ..scenario import ASPECTS, derive_surfaces


class WorldMutation:
    """Base class of all substrate mutations.

    Subclasses are frozen dataclasses carrying a ``kind`` class
    attribute (the JSON discriminator) and implementing
    :meth:`validate`, :meth:`aspects`, :meth:`apply` and
    :meth:`inverse`. ``apply`` performs only the *raw* substrate edit;
    re-deriving the public surfaces that depend on it is
    :func:`apply_mutation_plan`'s job.
    """

    kind: str = ""

    def validate(self) -> None:
        """Raise :class:`ValidationError` if the mutation is malformed."""
        raise NotImplementedError

    def aspects(self) -> Tuple[str, ...]:
        """The substrate aspects this mutation dirties."""
        raise NotImplementedError

    def apply(self, scenario) -> None:
        """Perform the raw substrate edit on a built scenario."""
        raise NotImplementedError

    def inverse(self) -> "WorldMutation":
        """The mutation that exactly undoes this one."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form, ``kind`` discriminator included."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinkChurn(WorldMutation):
    """Add or remove one AS-graph link (BGP churn).

    For ``relationship="c2p"`` the orientation is ``a`` = customer,
    ``b`` = provider; ``"p2p"`` is symmetric. Removing a link requires
    it to exist *with this exact relationship and orientation* — the
    annotation is what lets :meth:`inverse` re-add it faithfully.
    """

    op: str                    # "add" | "remove"
    a: int
    b: int
    relationship: str          # "c2p" | "p2p"

    kind = "link-churn"

    def validate(self) -> None:
        """Check operation, relationship and endpoint sanity."""
        if self.op not in ("add", "remove"):
            raise ValidationError(f"link-churn op must be add/remove, "
                                  f"got {self.op!r}")
        if self.relationship not in ("c2p", "p2p"):
            raise ValidationError(
                f"link-churn relationship must be c2p/p2p, "
                f"got {self.relationship!r}")
        if self.a == self.b:
            raise ValidationError(f"link-churn self-link on ASN {self.a}")

    def aspects(self) -> Tuple[str, ...]:
        """Link churn dirties routing only."""
        return ("routing",)

    def apply(self, scenario) -> None:
        """Edit the actual AS graph (epoch bumps automatically)."""
        from ..net.relationships import Relationship
        graph = scenario.graph
        for asn in (self.a, self.b):
            if asn not in graph:
                raise ValidationError(
                    f"link-churn references unknown ASN {asn}")
        existing = graph.relationship_of(self.a, self.b)
        if self.op == "add":
            if existing is not None:
                raise ValidationError(
                    f"link-churn add: link {self.a}-{self.b} already "
                    f"exists ({existing.value})")
            if self.relationship == "c2p":
                graph.add_c2p(self.a, self.b)
            else:
                graph.add_p2p(self.a, self.b)
            return
        want = (Relationship.C2P if self.relationship == "c2p"
                else Relationship.P2P)
        if existing is not want:
            raise ValidationError(
                f"link-churn remove: link {self.a}-{self.b} is "
                f"{existing.value if existing else 'absent'}, "
                f"expected {self.relationship}")
        if want is Relationship.C2P \
                and not graph.is_provider_of(self.b, self.a):
            raise ValidationError(
                f"link-churn remove: {self.b} is not a provider of "
                f"{self.a}")
        graph.remove_link(self.a, self.b)

    def inverse(self) -> "LinkChurn":
        """Adding undoes removing and vice versa."""
        flipped = "remove" if self.op == "add" else "add"
        return LinkChurn(op=flipped, a=self.a, b=self.b,
                         relationship=self.relationship)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return {"kind": self.kind, "op": self.op, "a": self.a,
                "b": self.b, "relationship": self.relationship}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LinkChurn":
        """Decode the JSON form (schema errors raise ValidationError)."""
        try:
            return cls(op=str(payload["op"]), a=int(payload["a"]),
                       b=int(payload["b"]),
                       relationship=str(payload["relationship"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad link-churn entry: {exc}") from None


def _is_power_of_two(value: float) -> bool:
    """True iff ``value`` is a positive power of two (exact float)."""
    if not isinstance(value, (int, float)) or value <= 0 \
            or not math.isfinite(value):
        return False
    mantissa, _ = math.frexp(float(value))
    return mantissa == 0.5


@dataclass(frozen=True)
class ActivitySwing(WorldMutation):
    """Scale the demand of a prefix set by an exact power of two.

    Scales both ``queries_per_day`` and ``bytes_per_day`` columns of the
    ground-truth traffic matrix — a diurnal swing moves resolutions and
    bytes together. The power-of-two restriction keeps the scaling
    exact (exponent-only), so ``inverse()`` restores the matrix
    bit-for-bit.
    """

    prefix_ids: Tuple[int, ...]
    factor: float

    kind = "activity-swing"

    def validate(self) -> None:
        """Check the factor is a power of two and the prefix set sane."""
        if not _is_power_of_two(self.factor):
            raise ValidationError(
                f"activity-swing factor must be a positive power of two "
                f"(exactly invertible), got {self.factor!r}")
        if not self.prefix_ids:
            raise ValidationError("activity-swing needs >= 1 prefix id")
        if len(set(self.prefix_ids)) != len(self.prefix_ids):
            raise ValidationError("activity-swing prefix ids must be "
                                  "unique")
        if any(int(p) < 0 for p in self.prefix_ids):
            raise ValidationError("activity-swing prefix ids must be "
                                  ">= 0")

    def aspects(self) -> Tuple[str, ...]:
        """Activity swings dirty the demand aspect only."""
        return ("activity",)

    def apply(self, scenario) -> None:
        """Scale the traffic-matrix columns of the chosen prefixes."""
        traffic = scenario.traffic
        n = traffic.queries_per_day.shape[1]
        bad = [p for p in self.prefix_ids if p >= n]
        if bad:
            raise ValidationError(
                f"activity-swing references prefix ids {bad} outside "
                f"the table (size {n})")
        ids = list(self.prefix_ids)
        traffic.queries_per_day[:, ids] *= self.factor
        traffic.bytes_per_day[:, ids] *= self.factor

    def inverse(self) -> "ActivitySwing":
        """Scale back by the reciprocal power of two (exact)."""
        return ActivitySwing(prefix_ids=self.prefix_ids,
                             factor=1.0 / self.factor)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return {"kind": self.kind,
                "prefix_ids": list(self.prefix_ids),
                "factor": self.factor}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ActivitySwing":
        """Decode the JSON form (schema errors raise ValidationError)."""
        try:
            return cls(prefix_ids=tuple(int(p)
                                        for p in payload["prefix_ids"]),
                       factor=float(payload["factor"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"bad activity-swing entry: {exc}") from None


@dataclass(frozen=True)
class SiteTurnover(WorldMutation):
    """Retire or revive one serving site of a hypergiant.

    ``site_id`` names the site in the *pristine* (as-generated)
    deployment — a stable handle that survives any retire/revive
    sequence. The active deployment is always re-filtered from the
    pristine one (see :func:`repro.services.cdn.filtered_deployment`),
    so reviving restores the original site exactly. A hypergiant must
    keep at least one active site (anycast catchments and the
    ground-truth mapping need a non-empty site list).
    """

    hypergiant_key: str
    site_id: int
    op: str                    # "retire" | "revive"

    kind = "site-turnover"

    def validate(self) -> None:
        """Check the operation and handle shape."""
        if self.op not in ("retire", "revive"):
            raise ValidationError(
                f"site-turnover op must be retire/revive, got "
                f"{self.op!r}")
        if self.site_id < 0:
            raise ValidationError("site-turnover site_id must be >= 0")
        if not self.hypergiant_key:
            raise ValidationError("site-turnover needs a hypergiant key")

    def aspects(self) -> Tuple[str, ...]:
        """Site turnover dirties the serving aspect only."""
        return ("serving",)

    def apply(self, scenario) -> None:
        """Flip the site's membership in the retired set.

        Only ``scenario.retired_sites`` changes; the active deployment
        is re-filtered once, after the whole plan applied.
        """
        sites = scenario.pristine_deployment.sites_by_hypergiant.get(
            self.hypergiant_key)
        if sites is None:
            raise ValidationError(
                f"site-turnover references unknown hypergiant "
                f"{self.hypergiant_key!r}")
        if self.site_id >= len(sites):
            raise ValidationError(
                f"site-turnover: {self.hypergiant_key!r} has no site "
                f"{self.site_id} (only {len(sites)})")
        handle = (self.hypergiant_key, self.site_id)
        retired = scenario.retired_sites
        if self.op == "retire":
            if handle in retired:
                raise ValidationError(
                    f"site-turnover: site {handle} is already retired")
            active = sum(1 for s in sites
                         if (self.hypergiant_key, s.site_id)
                         not in retired)
            if active <= 1:
                raise ValidationError(
                    f"site-turnover: cannot retire the last active "
                    f"site of {self.hypergiant_key!r}")
            retired.add(handle)
        else:
            if handle not in retired:
                raise ValidationError(
                    f"site-turnover: site {handle} is not retired")
            retired.discard(handle)

    def inverse(self) -> "SiteTurnover":
        """Reviving undoes retiring and vice versa."""
        flipped = "revive" if self.op == "retire" else "retire"
        return SiteTurnover(hypergiant_key=self.hypergiant_key,
                            site_id=self.site_id, op=flipped)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return {"kind": self.kind,
                "hypergiant_key": self.hypergiant_key,
                "site_id": self.site_id, "op": self.op}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SiteTurnover":
        """Decode the JSON form (schema errors raise ValidationError)."""
        try:
            return cls(hypergiant_key=str(payload["hypergiant_key"]),
                       site_id=int(payload["site_id"]),
                       op=str(payload["op"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"bad site-turnover entry: {exc}") from None


_MUTATION_TYPES: Dict[str, Type[WorldMutation]] = {
    LinkChurn.kind: LinkChurn,
    ActivitySwing.kind: ActivitySwing,
    SiteTurnover.kind: SiteTurnover,
}

#: Every mutation kind, in canonical order (the JSON discriminators).
MUTATION_KINDS = tuple(_MUTATION_TYPES)


def mutation_from_dict(payload: Dict[str, object]) -> WorldMutation:
    """Decode one mutation from its JSON form via the ``kind`` field."""
    if not isinstance(payload, dict):
        raise ValidationError("mutation entry must be an object")
    kind = payload.get("kind")
    mutation_type = _MUTATION_TYPES.get(kind)
    if mutation_type is None:
        raise ValidationError(
            f"unknown mutation kind {kind!r} (known: "
            f"{', '.join(MUTATION_KINDS)})")
    mutation = mutation_type.from_dict(payload)
    mutation.validate()
    return mutation


@dataclass(frozen=True)
class MutationPlan:
    """An ordered, JSON-serializable sequence of substrate mutations.

    The canonical JSON form is ``{"format_version": 1, "mutations":
    [...]}`` (see ``docs/delta.md`` for the per-kind schemas);
    :meth:`digest` hashes that canonical form, giving every plan a
    stable identity that the delta-lineage manifest section records.
    """

    mutations: Tuple[WorldMutation, ...] = ()

    #: Plan JSON schema version.
    FORMAT_VERSION = 1

    def __len__(self) -> int:
        return len(self.mutations)

    def __iter__(self) -> Iterator[WorldMutation]:
        return iter(self.mutations)

    def validate(self) -> None:
        """Validate every step (shape only — apply-time checks are
        scenario-dependent)."""
        for mutation in self.mutations:
            mutation.validate()

    def aspects(self) -> Tuple[str, ...]:
        """Union of the aspects the steps dirty, in canonical order."""
        touched = {a for m in self.mutations for a in m.aspects()}
        return tuple(a for a in ASPECTS if a in touched)

    def kinds(self) -> Tuple[str, ...]:
        """Distinct mutation kinds in the plan, in canonical order."""
        present = {m.kind for m in self.mutations}
        return tuple(k for k in MUTATION_KINDS if k in present)

    def inverse(self) -> "MutationPlan":
        """The plan that exactly undoes this one (reversed inverses)."""
        return MutationPlan(tuple(m.inverse()
                                  for m in reversed(self.mutations)))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-JSON form."""
        return {"format_version": self.FORMAT_VERSION,
                "mutations": [m.to_dict() for m in self.mutations]}

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def digest(self) -> str:
        """Stable content hash of the canonical JSON form."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MutationPlan":
        """Decode and validate a plan from its JSON form."""
        if not isinstance(payload, dict):
            raise ValidationError("mutation plan must be a JSON object")
        version = payload.get("format_version")
        if version != cls.FORMAT_VERSION:
            raise ValidationError(
                f"mutation plan format_version must be "
                f"{cls.FORMAT_VERSION}, got {version!r}")
        entries = payload.get("mutations")
        if not isinstance(entries, list):
            raise ValidationError("mutation plan needs a mutations list")
        return cls(tuple(mutation_from_dict(e) for e in entries))

    @classmethod
    def from_json(cls, text: str) -> "MutationPlan":
        """Decode a plan from JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"mutation plan is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path) -> "MutationPlan":
        """Read and decode a plan file."""
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ValidationError(
                f"cannot read mutation plan {path}: {exc}") from None
        return cls.from_json(text)

    def save(self, path) -> None:
        """Write the canonical JSON form to a file."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def apply_mutation_plan(scenario, plan: MutationPlan) -> Tuple[str, ...]:
    """Mutate a built scenario in place; returns the dirtied aspects.

    Applies every step in plan order (validating each against the
    current substrate — a bad step raises :class:`ValidationError`
    after earlier steps already applied, so validate plans against a
    scratch scenario when atomicity matters), then re-derives the
    surfaces the dirtied aspects feed. An empty plan is a no-op.
    """
    plan.validate()
    for mutation in plan.mutations:
        mutation.apply(scenario)
    aspects = plan.aspects()
    derive_surfaces(scenario, aspects)
    return aspects
