"""Shared fault-injection state threaded through measurement campaigns.

A :class:`FaultContext` is built from one :class:`FaultPlan` and handed to
every campaign of a map build. Campaigns ask it whether individual
operations survive (:meth:`CampaignFaultScope.survive_mask`), retrying per
the plan's policy, and it keeps per-campaign attempt/drop/giveup counters
that the builder later folds into the map's coverage report.

Determinism: each (campaign, kind) pair draws from its own named
substream of the plan seed, so the drop schedule is a pure function of
the plan — independent of the campaign's own randomness, and stable when
unrelated campaigns are added or removed (same property the scenario
builder gets from :func:`repro.rand.substream`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..rand import substream
from .plan import FaultKind, FaultPlan, RetryPolicy


@dataclass
class FaultCounters:
    """Per-campaign bookkeeping of injected faults.

    ``units`` are logical operations (a probe, a query, a feed fetch);
    ``attempts`` counts every try including retries; ``drops`` counts
    transient failures (whether or not a retry recovered them);
    ``giveups`` counts units permanently lost after exhausting the retry
    budget. ``backoff_s`` is the simulated time spent waiting between
    retries.
    """

    units: int = 0
    attempts: int = 0
    drops: int = 0
    retries: int = 0
    giveups: int = 0
    backoff_s: float = 0.0

    @property
    def delivered(self) -> int:
        return self.units - self.giveups

    @property
    def coverage(self) -> float:
        """Fraction of units that ultimately succeeded (1.0 if idle)."""
        if self.units <= 0:
            return 1.0
        return self.delivered / self.units

    def merge(self, other: "FaultCounters") -> None:
        self.units += other.units
        self.attempts += other.attempts
        self.drops += other.drops
        self.retries += other.retries
        self.giveups += other.giveups
        self.backoff_s += other.backoff_s


def _check_scope_state(name: str, state: object) -> None:
    """Raise :class:`ValidationError` unless ``state`` has the shape
    :meth:`CampaignFaultScope.export_state` writes."""
    fields = {f.name for f in dataclasses.fields(FaultCounters)}
    kinds = {kind.value for kind in FaultKind}

    def counters_ok(counters: object) -> bool:
        return isinstance(counters, dict) and set(counters) == fields \
            and all(type(v) in (int, float) for v in counters.values())

    if not (isinstance(state, dict)
            and set(state) == {"counters", "by_kind", "failed",
                               "failure_reason"}
            and counters_ok(state["counters"])
            and isinstance(state["by_kind"], dict)
            and all(kind in kinds and counters_ok(counters)
                    for kind, counters in state["by_kind"].items())
            and isinstance(state["failed"], bool)
            and isinstance(state["failure_reason"], (str, type(None)))):
        raise ValidationError(
            f"fault scope {name!r} is not an exported scope state: "
            f"{state!r}")


class CampaignFaultScope:
    """One campaign's window onto the shared fault context."""

    def __init__(self, name: str, context: "FaultContext") -> None:
        self.name = name
        self._context = context
        self.counters = FaultCounters()
        self.by_kind: Dict[FaultKind, FaultCounters] = {}
        self.failed = False
        self.failure_reason: Optional[str] = None

    # -- queries ----------------------------------------------------------

    def active(self, kind: FaultKind) -> bool:
        return self._context.active(kind)

    def rate_of(self, kind: FaultKind) -> float:
        return self._context.rate_of(kind)

    @property
    def coverage(self) -> float:
        """Delivered fraction for this campaign (0.0 once marked failed)."""
        if self.failed:
            return 0.0
        return self.counters.coverage

    # -- fault injection --------------------------------------------------

    def survive_mask(self, kind: FaultKind, n: int) -> np.ndarray:
        """Which of ``n`` operations ultimately succeed.

        Each operation fails with the plan's rate per attempt and is
        retried up to the policy's budget; the returned boolean mask marks
        operations that succeeded on *some* attempt. Counters are updated
        as a side effect. With the kind inactive, all-True is returned
        without consuming randomness.
        """
        mask = np.ones(int(n), dtype=bool)
        if n <= 0:
            return mask
        rate = self.rate_of(kind)
        self._bump(kind, units=int(n))
        if rate <= 0.0:
            self._bump(kind, attempts=int(n))
            return mask
        rng = self._context.stream(self.name, kind)
        policy = self._context.retry
        pending = int(n)                 # operations still being tried
        pending_idx = np.arange(int(n))
        for attempt in range(1, policy.max_attempts + 1):
            if pending == 0:
                break
            if attempt > 1:
                self._bump(kind, retries=pending,
                           backoff_s=pending *
                           policy.backoff_before_attempt(attempt))
            self._bump(kind, attempts=pending)
            failed = rng.random(pending) < rate
            self._bump(kind, drops=int(failed.sum()))
            pending_idx = pending_idx[failed]
            pending = len(pending_idx)
        mask[pending_idx] = False        # exhausted the retry budget
        self._bump(kind, giveups=pending)
        return mask

    def survive(self, kind: FaultKind) -> bool:
        """Scalar convenience: does a single operation survive?"""
        return bool(self.survive_mask(kind, 1)[0])

    def inject(self, kind: FaultKind) -> bool:
        """Single-shot chaos draw: does this fault fire right now?

        Unlike :meth:`survive_mask` there is no retry ladder — an injected
        fault *is* the event (a stalled handler, a torn connection), and
        the serving path's own resilience machinery deals with the
        aftermath. Counts one unit and one attempt always, plus one drop
        when the fault fires; with the kind inactive no randomness is
        consumed, so arming an unrelated kind never shifts the schedule.
        """
        self._bump(kind, units=1, attempts=1)
        rate = self.rate_of(kind)
        if rate <= 0.0:
            return False
        rng = self._context.stream(self.name, kind)
        fired = bool(rng.random() < rate)
        if fired:
            self._bump(kind, drops=1)
        return fired

    def draw(self, kind: FaultKind) -> float:
        """A uniform [0, 1) draw from this (campaign, kind) substream.

        For chaos parameters that need a magnitude, not just a yes/no —
        e.g. how long a slow handler stalls. Deterministic for the plan
        seed and independent of other kinds' schedules.
        """
        return float(self._context.stream(self.name, kind).random())

    def thin_rounds(self, kind: FaultKind, rounds: int,
                    shape: Tuple[int, ...]) -> np.ndarray:
        """Per-cell surviving repetition counts for ``rounds`` probes.

        Models ``rounds`` independent probe repetitions per cell (e.g. the
        (domain, prefix) grid of a cache-probing day) without
        materialising rounds x cells individual draws: per retry attempt
        the still-failed count per cell is redrawn binomially.
        """
        total = int(np.prod(shape)) * int(rounds)
        self._bump(kind, units=total)
        rate = self.rate_of(kind)
        if rate <= 0.0 or total == 0:
            self._bump(kind, attempts=total)
            return np.full(shape, int(rounds), dtype=np.int64)
        rng = self._context.stream(self.name, kind)
        policy = self._context.retry
        pending = np.full(shape, int(rounds), dtype=np.int64)
        for attempt in range(1, policy.max_attempts + 1):
            in_flight = int(pending.sum())
            if in_flight == 0:
                break
            if attempt > 1:
                self._bump(kind, retries=in_flight,
                           backoff_s=in_flight *
                           policy.backoff_before_attempt(attempt))
            self._bump(kind, attempts=in_flight)
            pending = rng.binomial(pending, rate)
            self._bump(kind, drops=int(pending.sum()))
        giveups = int(pending.sum())
        self._bump(kind, giveups=giveups)
        return np.full(shape, int(rounds), dtype=np.int64) - pending

    def mark_failed(self, reason: str) -> None:
        """Record that the whole campaign delivered nothing usable."""
        self.failed = True
        self.failure_reason = reason
        # A failure before any attempt still represents lost work.
        if self.counters.units == 0:
            self.counters.units = 1
            self.counters.giveups = 1
        self._context.recorder.count(f"faults.{self.name}.failures")

    # -- checkpoint support -----------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """JSON-serializable snapshot of this scope's counters/failure.

        Together with :meth:`restore_state` this is what lets
        ``repro.ckpt`` skip a campaign on resume while keeping the
        coverage report (and ``FaultContext.totals()``) bit-identical to
        an uninterrupted build.
        """
        return {
            "counters": dataclasses.asdict(self.counters),
            "by_kind": {kind.value: dataclasses.asdict(c)
                        for kind, c in self.by_kind.items()},
            "failed": self.failed,
            "failure_reason": self.failure_reason,
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold one shard's exported scope into this (parent) scope.

        The parallel executor hands each shard an isolated
        :meth:`FaultContext.shard_context` clone; the worker returns the
        shard scope's :meth:`export_state` and the parent merges the
        snapshots back *in shard order*, so counters (and their recorder
        mirror) are identical no matter how shards were scheduled. The
        aggregate tally is reconstructed through :meth:`_bump`, keeping
        the aggregate == sum-over-kinds invariant.
        """
        for kind_value, counters in state["by_kind"].items():
            self._bump(FaultKind(kind_value), **counters)
        if state["failed"] and not self.failed:
            self.mark_failed(str(state["failure_reason"]))

    def restore_state(self, state: Dict[str, object]) -> None:
        """Overwrite this scope with an :meth:`export_state` snapshot.

        Counter *deltas* relative to the current state are mirrored onto
        an attached recorder, so a resumed instrumented run still
        reports the ``faults.<campaign>.*`` counter namespace.
        """
        new = FaultCounters(**state["counters"])
        recorder = self._context.recorder
        if recorder.enabled:
            for name in ("units", "attempts", "drops", "retries",
                         "giveups", "backoff_s"):
                delta = getattr(new, name) - getattr(self.counters, name)
                if delta:
                    recorder.count(f"faults.{self.name}.{name}", delta)
            if state["failed"] and not self.failed:
                recorder.count(f"faults.{self.name}.failures")
        self.counters = new
        self.by_kind = {FaultKind(kind): FaultCounters(**c)
                        for kind, c in state["by_kind"].items()}
        self.failed = bool(state["failed"])
        self.failure_reason = state["failure_reason"]

    # -- internals --------------------------------------------------------

    def _bump(self, kind: FaultKind, **deltas) -> None:
        """Add counter deltas to both the aggregate and per-kind tallies.

        With a recorder attached to the context, every delta is mirrored
        onto ``faults.<campaign>.<counter>`` recorder counters as well.
        """
        per_kind = self.by_kind.setdefault(kind, FaultCounters())
        recorder = self._context.recorder
        for name, delta in deltas.items():
            for counters in (self.counters, per_kind):
                setattr(counters, name, getattr(counters, name) + delta)
            if recorder.enabled:
                recorder.count(f"faults.{self.name}.{name}", delta)


class FaultContext:
    """Shared fault state for one map build.

    Holds the plan, the resolved retry policy, the per-(campaign, kind)
    random streams, and every campaign's counters.
    """

    def __init__(self, plan: FaultPlan,
                 retry: Optional[RetryPolicy] = None) -> None:
        plan.validate()
        self.plan = plan
        self.retry = retry or plan.retry
        self.retry.validate()
        self.recorder: Recorder = NULL_RECORDER
        self._scopes: Dict[str, CampaignFaultScope] = {}
        self._streams: Dict[Tuple[str, FaultKind], np.random.Generator] = {}
        # Set on shard_context() clones: appended to every stream name so
        # each shard's drop schedule is its own pure function of the plan.
        self._shard: Optional[str] = None

    def attach_recorder(self, recorder: Recorder) -> None:
        """Mirror all subsequent counter updates onto a recorder.

        Observation only — the recorder never influences which units
        survive, so attaching one cannot change a build's output.
        """
        self.recorder = recorder

    @classmethod
    def null(cls) -> "FaultContext":
        """An inactive context: nothing ever fails."""
        return cls(FaultPlan.none())

    # -- queries ----------------------------------------------------------

    @property
    def is_null(self) -> bool:
        return self.plan.is_null

    def active(self, kind: FaultKind) -> bool:
        return self.plan.rate_of(kind) > 0.0

    def rate_of(self, kind: FaultKind) -> float:
        return self.plan.rate_of(kind)

    # -- scopes and streams -----------------------------------------------

    def campaign(self, name: str) -> CampaignFaultScope:
        """The (created-on-first-use) scope for one named campaign."""
        scope = self._scopes.get(name)
        if scope is None:
            scope = CampaignFaultScope(name, self)
            self._scopes[name] = scope
        return scope

    def scopes(self) -> Dict[str, CampaignFaultScope]:
        return dict(self._scopes)

    def export_scopes(self, names: Iterable[str]) -> Dict[str, Dict]:
        """Exported state of the named campaigns that have a scope."""
        return {name: self._scopes[name].export_state()
                for name in names if name in self._scopes}

    def restore_scopes(self, states: Dict[str, Dict]) -> None:
        """Restore campaign scopes from :meth:`export_scopes` output,
        creating scopes that do not exist yet.

        Every state is checked (:func:`_check_scope_state`) before any
        is restored, so a malformed one raises :class:`ValidationError`
        and leaves the context untouched.
        """
        if not isinstance(states, dict):
            raise ValidationError("fault scopes must be an object")
        for name, state in states.items():
            _check_scope_state(name, state)
        for name, state in states.items():
            self.campaign(name).restore_state(state)

    def shard_context(self, label: str) -> "FaultContext":
        """An isolated clone whose streams carry a shard label.

        Sharded campaigns give every shard its own context so fault draws
        bind to the shard (``substream(seed, "faults", campaign, kind,
        "shard", label)``), not to execution order — the precondition for
        parallel builds matching serial ones bit-for-bit. The clone has no
        recorder attached: its counters travel back to the parent scope
        via :meth:`CampaignFaultScope.merge_state`, which does the
        mirroring exactly once.
        """
        clone = FaultContext(self.plan, self.retry)
        clone._shard = str(label)
        return clone

    def stream(self, campaign: str, kind: FaultKind) -> np.random.Generator:
        key = (campaign, kind)
        rng = self._streams.get(key)
        if rng is None:
            names = (campaign, kind.value)
            if self._shard is not None:
                names += ("shard", self._shard)
            rng = substream(self.plan.seed, "faults", *names)
            self._streams[key] = rng
        return rng

    # -- reporting --------------------------------------------------------

    def totals(self) -> FaultCounters:
        total = FaultCounters()
        for scope in self._scopes.values():
            total.merge(scope.counters)
        return total

    def coverage_of(self, campaigns: Iterable[str]) -> float:
        """Joint delivered fraction over a set of campaigns (1.0 if none
        of them recorded any units)."""
        units = 0
        delivered = 0
        for name in campaigns:
            scope = self._scopes.get(name)
            if scope is None:
                continue
            if scope.failed:
                units += max(scope.counters.units, 1)
                continue
            units += scope.counters.units
            delivered += scope.counters.delivered
        if units == 0:
            return 1.0
        return delivered / units
