"""Fault plans: what can go wrong during a measurement campaign (§3, §4.2).

The paper's map is assembled from *unreliable, partial* vantage points:
open resolvers churn, root-log access is intermittent, ECS answers are
rate-limited, collectors serve stale snapshots. A :class:`FaultPlan`
describes one such weather system — a per-kind failure rate plus the
retry/backoff policy campaigns apply before giving up — and is fully
deterministic in its seed: two contexts built from the same plan inject
bit-identical drop schedules.

Fault kinds and the campaigns they bite:

* ``probe_loss``          — individual probes dropped in flight (cache
                            probing rounds, Verfploeter/ICMP catchment
                            probes, IP-ID pings, traceroutes);
* ``vantage_churn``       — scanning/probing vantage points disappear
                            mid-campaign (TLS scan shards, Atlas probes);
* ``resolver_timeout``    — the public resolver times out for a client
                            prefix (cache probing columns, page-view
                            sampling);
* ``ecs_rate_limit``      — ECS queries answered with REFUSED once the
                            authoritative rate-limits the prefix sweep;
* ``sni_rate_limit``      — SNI scan connections rejected by rate
                            limiting at candidate endpoints;
* ``rootlog_truncation``  — a usable root's log feed is truncated or
                            temporarily withdrawn;
* ``stale_collector``     — the collector snapshot is stale: visible
                            links missing from the downloaded feed;

Serve-side kinds (``SERVE_KINDS``) extend the same model to the query
service (PR 9): they bite the serving path rather than the build
campaigns, and are drawn from the same seed-substreamed machinery so a
chaos run is bit-reproducible for a fixed ``--chaos-seed``:

* ``slow_handler``        — a handler stalls mid-computation (injected
                            virtual-time delay before answering);
* ``artefact_corruption`` — a hot-swap rewrite lands a corrupt artefact
                            on disk, tripping the watcher;
* ``cache_eviction_storm``— the answer cache is flushed under a request,
                            forcing recomputation of warm entries;
* ``client_disconnect``   — the client tears the connection down before
                            the response body is written;
* ``crash``               — the build *process itself* dies at a stage
                            boundary. Unlike the rate-based kinds above,
                            a crash is targeted: ``FaultPlan.crash_at``
                            names the builder stage after which a
                            :class:`SimulatedCrash` is raised. Pair it
                            with ``repro.ckpt`` checkpointing so the
                            next run can resume instead of starting
                            over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ConfigError, ReproError


class FaultKind(enum.Enum):
    """One class of measurement failure a plan can inject."""

    PROBE_LOSS = "probe_loss"
    VANTAGE_CHURN = "vantage_churn"
    RESOLVER_TIMEOUT = "resolver_timeout"
    ECS_RATE_LIMIT = "ecs_rate_limit"
    SNI_RATE_LIMIT = "sni_rate_limit"
    ROOTLOG_TRUNCATION = "rootlog_truncation"
    STALE_COLLECTOR = "stale_collector"
    # Serve-side kinds: chaos injected into the query service rather
    # than the build campaigns (see repro.serve.chaos).
    SLOW_HANDLER = "slow_handler"
    ARTEFACT_CORRUPTION = "artefact_corruption"
    CACHE_EVICTION_STORM = "cache_eviction_storm"
    CLIENT_DISCONNECT = "client_disconnect"
    # Process death at a stage boundary. Targeted (``crash_at`` names the
    # stage), not rate-based: RATE_KINDS below excludes it.
    CRASH = "crash"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The kinds a per-operation failure *rate* makes sense for — every kind
# except the targeted CRASH. ``FaultPlan.uniform`` and ``rates()`` cover
# exactly this set.
RATE_KINDS: Tuple[FaultKind, ...] = tuple(
    k for k in FaultKind if k is not FaultKind.CRASH)

# The kinds that bite the serving path (repro.serve.chaos) rather than
# the build campaigns. A subset of RATE_KINDS; build campaigns never
# draw from these streams, so arming them cannot perturb a build.
SERVE_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.SLOW_HANDLER,
    FaultKind.ARTEFACT_CORRUPTION,
    FaultKind.CACHE_EVICTION_STORM,
    FaultKind.CLIENT_DISCONNECT,
)


class SimulatedCrash(ReproError):
    """The build died at a stage boundary (``FaultPlan.crash_at``).

    Raised by :meth:`repro.core.builder.MapBuilder.build` right after the
    named stage completes (and, when checkpointing, after its snapshot is
    durably on disk) — the worst-case interruption point. A resumed build
    reuses the stage's snapshot instead of recomputing it, so the crash
    does not re-fire; without checkpoints the crash reproduces every run,
    which is exactly the pain the ``repro.ckpt`` subsystem exists to fix.
    """

    def __init__(self, stage: str) -> None:
        self.stage = stage
        super().__init__(
            f"simulated crash at stage boundary after {stage!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """How often a campaign re-issues a failed operation before giving up.

    Backoff is *simulated* time: the context accounts for it (so reports
    can say how much wall-clock a degraded campaign would have burned)
    without ever sleeping.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")

    def backoff_before_attempt(self, attempt: int) -> float:
        """Simulated seconds waited before retry number ``attempt`` (the
        first retry is attempt 2)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_base_s * self.backoff_factor ** (attempt - 2)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seed-driven schedule of measurement failures.

    Rates are per-operation failure probabilities in ``[0, 1]``; a rate of
    0 means the kind never fires (and consumes no randomness, so a
    zero-rate plan builds a map bit-identical to a no-faults build).
    """

    seed: int = 0
    probe_loss: float = 0.0
    vantage_churn: float = 0.0
    resolver_timeout: float = 0.0
    ecs_rate_limit: float = 0.0
    sni_rate_limit: float = 0.0
    rootlog_truncation: float = 0.0
    stale_collector: float = 0.0
    # Serve-side chaos rates (repro.serve.chaos); inert during builds.
    slow_handler: float = 0.0
    artefact_corruption: float = 0.0
    cache_eviction_storm: float = 0.0
    client_disconnect: float = 0.0
    # Stage boundary after which the build dies with SimulatedCrash
    # (None = never). Stage names are the builder's checkpoint stages,
    # e.g. "users" or "services"; see repro.ckpt.
    crash_at: Optional[str] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def validate(self) -> None:
        for kind in RATE_KINDS:
            rate = self.rate_of(kind)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"{kind.value} rate must be in [0, 1], got {rate!r}")
        if self.crash_at is not None and (
                not isinstance(self.crash_at, str) or not self.crash_at):
            raise ConfigError(
                f"crash_at must be a stage name, got {self.crash_at!r}")
        self.retry.validate()

    def rate_of(self, kind: FaultKind) -> float:
        """Per-operation failure probability of a kind.

        CRASH is targeted rather than rate-based: its "rate" is 1.0 when
        a ``crash_at`` stage is armed and 0.0 otherwise.
        """
        if kind is FaultKind.CRASH:
            return 1.0 if self.crash_at is not None else 0.0
        return float(getattr(self, kind.value))

    def rates(self) -> Dict[FaultKind, float]:
        """Per-kind rates for the rate-based kinds (CRASH excluded)."""
        return {kind: self.rate_of(kind) for kind in RATE_KINDS}

    def active_kinds(self) -> Tuple[FaultKind, ...]:
        return tuple(k for k in FaultKind if self.rate_of(k) > 0.0)

    @property
    def is_null(self) -> bool:
        """True when no fault kind can ever fire."""
        return not self.active_kinds()

    def with_seed(self, seed: int) -> "FaultPlan":
        """Same weather, different draw."""
        return replace(self, seed=seed)

    def with_crash_at(self, stage: Optional[str]) -> "FaultPlan":
        """Same weather, armed to die after ``stage`` (None disarms)."""
        return replace(self, crash_at=stage)

    # -- construction -----------------------------------------------------

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The fair-weather plan: every rate zero."""
        return cls(seed=seed)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0,
                retry: Optional[RetryPolicy] = None) -> "FaultPlan":
        """Every rate-based fault kind at the same rate (stress plans).

        CRASH is excluded — it is armed per stage via ``crash_at``, not
        by a rate.
        """
        plan = cls(seed=seed,
                   **{kind.value: rate for kind in RATE_KINDS},
                   retry=retry or RetryPolicy())
        plan.validate()
        return plan

    @classmethod
    def serve_chaos(cls, rate: float = 0.05, seed: int = 0,
                    retry: Optional[RetryPolicy] = None) -> "FaultPlan":
        """Every serve-side kind at the same rate, build kinds at zero.

        The default plan behind ``repro serve --chaos``: enough weather
        to exercise the resilience machinery without drowning the run.
        """
        plan = cls(seed=seed,
                   **{kind.value: rate for kind in SERVE_KINDS},
                   retry=retry or RetryPolicy())
        plan.validate()
        return plan

    @classmethod
    def parse(cls, spec: str, seed: int = 0,
              retry: Optional[RetryPolicy] = None,
              kinds: Sequence[FaultKind] = tuple(FaultKind)) -> "FaultPlan":
        """Parse a CLI-style plan spec.

        ``spec`` is a comma-separated list of ``kind=rate`` entries, e.g.
        ``"probe_loss=0.2,rootlog_truncation=0.5"``, over the ``kinds``
        it may name (every kind by default; ``SERVE_KINDS`` for
        ``repro serve --chaos``). The pseudo-kind ``all`` sets every
        rate-based kind of ``kinds`` at once (later entries override
        it); ``crash_at=<stage>`` arms a targeted crash at a builder
        stage boundary instead of a rate, when ``kinds`` has CRASH.

        >>> FaultPlan.parse("probe_loss=0.2").probe_loss
        0.2
        """
        rate_kinds = [kind for kind in kinds if kind in RATE_KINDS]
        names = [kind.value for kind in rate_kinds]
        crash = FaultKind.CRASH in kinds
        known = ", ".join(["all"] + ["crash_at"] * crash + names)
        values: Dict[str, object] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, raw = token.partition("=")
            if not sep:
                raise ConfigError(
                    f"bad fault spec entry {token!r}: expected kind=rate")
            name = name.strip()
            if crash and name == "crash_at":
                values["crash_at"] = raw.strip()
                continue
            if crash and name == FaultKind.CRASH.value:
                raise ConfigError(
                    "crash takes a stage name: use crash_at=<stage>")
            if name != "all" and name not in names:
                raise ConfigError(
                    f"unknown fault kind {name!r} (known: {known})")
            try:
                rate = float(raw)
            except ValueError:
                raise ConfigError(
                    f"bad fault rate {raw!r} for {name!r}") from None
            for kind in (rate_kinds if name == "all"
                         else [FaultKind(name)]):
                values[kind.value] = rate
        plan = cls(seed=seed, retry=retry or RetryPolicy(), **values)
        plan.validate()
        return plan

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``probe_loss=0.20``."""
        parts = [f"{k.value}={self.rate_of(k):.2f}"
                 for k in self.active_kinds() if k is not FaultKind.CRASH]
        if self.crash_at is not None:
            parts.append(f"crash_at={self.crash_at}")
        if not parts:
            return "no faults"
        return ", ".join(parts)
