"""Content-addressed stage snapshots with atomic writes and quarantine.

A :class:`CheckpointStore` owns one ``--checkpoint-dir``. Each builder
stage saves its output as a JSON snapshot whose *body* (payload +
fault-scope states + builder notes) is digested with SHA-256; the digest
rides in the envelope and — truncated — in the filename, so a snapshot
is content-addressed and self-verifying. Writes are atomic (temp file in
the same directory, then ``os.replace``) so a crash mid-save can never
leave a half-written snapshot where a resume would trust it.

On load the store verifies, in order: the file parses, the envelope
schema version and stage name match, the config / fault-plan / options
digests match the current build, and the body digest equals the
recorded one. The body rides as the envelope's last member, stored as
the exact bytes the digest covers — so the cheap meta checks (and the
input-digest staleness check) run off a few hundred bytes of prefix,
and integrity is one hash over the raw body slice, never a
multi-megabyte re-encode. Any verification failure *quarantines* the
snapshot (moves it to ``quarantine/`` and records the reason in the
lineage) and reports a miss, so the builder recomputes the stage
instead of trusting bad data — a wrong map is strictly worse than a
slow one. A snapshot whose recorded input digest differs from the
stage's current one is *stale*: it describes another world, not a
damaged file, so it is left in place (the recompute overwrites it)
and reported as a miss.

Layout under the checkpoint dir::

    snapshots/<stage>.<digest12>.json   one per stage, newest wins
    quarantine/<n>-<original name>      failed verification, kept for
                                        post-mortems

Determinism note: nothing here depends on wall-clock or randomness; the
envelope records ``created_unix`` for humans only, and it is excluded
from the digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ReproError
from ..obs.recorder import NULL_RECORDER, Recorder

try:  # Optional accelerator for the multi-megabyte snapshot bodies.
    # Safe because a load hashes the body bytes as stored, never a
    # re-encode: the digest verified is the one save computed over the
    # exact bytes it wrote, whichever encoder wrote them.
    import orjson as _orjson

    def _json_loads(data):
        return _orjson.loads(data)

    def _body_encode(body) -> bytes:
        # OPT_NON_STR_KEYS mirrors json.dumps coercing int keys to str;
        # OPT_SERIALIZE_NUMPY covers the numpy scalars stage payloads
        # carry (stdlib json takes them as float/int subclasses).
        return _orjson.dumps(
            body,
            option=_orjson.OPT_NON_STR_KEYS | _orjson.OPT_SERIALIZE_NUMPY)
except ImportError:  # pragma: no cover - depends on the environment
    _json_loads = json.loads

    def _body_encode(body) -> bytes:
        return json.dumps(body, separators=(",", ":")).encode()

#: Snapshot envelope schema version; bump on incompatible layout change.
CKPT_FORMAT_VERSION = 2

#: Hex digits of the body digest carried in the snapshot filename.
_NAME_DIGEST_LEN = 12

#: Byte sequence introducing the body member in a snapshot written by
#: :meth:`CheckpointStore.save`. The body is always the envelope's last
#: member and is stored as the exact bytes its digest covers, so a load
#: can (a) parse just the meta prefix to reject a mismatched or stale
#: snapshot without decoding megabytes of payload, and (b) verify
#: integrity by hashing the raw slice instead of re-encoding the parsed
#: body. A file not laid out this way was not written by ``save`` and
#: is quarantined, never parsed some other way.
_BODY_MARKER = b',"body":'

#: The members of every body :meth:`CheckpointStore.save` writes.
_BODY_KEYS = {"payload", "scopes", "notes"}


class CheckpointError(ReproError):
    """A checkpoint operation failed unrecoverably (I/O, bad root)."""


@dataclass
class LoadedSnapshot:
    """A verified snapshot, ready for the builder to apply.

    ``payload`` is still in its serialized (plain-JSON) form — the
    builder decodes it with :func:`repro.core.serialize.
    stage_payload_from_dict`; ``scopes`` / ``notes`` are the absolute
    post-stage fault-scope states and note lists the stage recorded.
    """

    stage: str
    payload: object
    scopes: Dict[str, Dict]
    notes: Dict[str, List[str]]
    #: The snapshot body's SHA-256 — downstream stages chain it into
    #: their own input digests (delta builds).
    digest: str = ""


@dataclass
class CheckpointLineage:
    """What a checkpointed build reused, recomputed and quarantined.

    Feeds the :class:`repro.obs.RunManifest` ``checkpoint`` section;
    ``validate_manifest`` holds ``len(stages_reused) +
    len(stages_recomputed) == stages_total``.
    """

    checkpoint_dir: str
    resumed: bool
    stages_total: int = 0
    stages_reused: List[str] = field(default_factory=list)
    stages_recomputed: List[str] = field(default_factory=list)
    quarantined: List[Dict[str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the manifest section verbatim)."""
        return dataclasses.asdict(self)


class CheckpointStore:
    """Atomic, verified stage snapshots under one checkpoint directory.

    The three digests pin snapshot compatibility: a snapshot satisfies a
    resume only if the scenario config, the fault plan (crash schedule
    excluded — see :func:`repro.obs.manifest.fault_plan_digest`) and the
    builder options all match the run that wrote it.
    """

    def __init__(self, root, *, config_digest: str,
                 fault_plan_digest: str, options_digest: str,
                 recorder: Optional[Recorder] = None) -> None:
        self.root = Path(root)
        self.snapshot_dir = self.root / "snapshots"
        self.quarantine_dir = self.root / "quarantine"
        self.config_digest = config_digest
        self.fault_plan_digest = fault_plan_digest
        self.options_digest = options_digest
        #: Body digest of the most recent :meth:`save` (delta chaining).
        self.last_saved_digest: Optional[str] = None
        self._recorder = recorder or NULL_RECORDER
        try:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint dir {self.root}: {exc}") \
                from None

    # -- paths ------------------------------------------------------------

    def snapshot_paths(self, stage: str) -> List[Path]:
        """Existing snapshot files for a stage (normally zero or one)."""
        return sorted(self.snapshot_dir.glob(f"{stage}.*.json"))

    # -- save -------------------------------------------------------------

    def save(self, stage: str, payload: object,
             scopes: Dict[str, Dict],
             notes: Dict[str, List[str]],
             input_digest: str) -> Path:
        """Atomically persist one stage's snapshot; returns its path.

        Any older snapshot of the same stage is removed after the new
        one is durably in place, so a reader never sees zero snapshots
        where one existed. ``input_digest`` records what the stage's
        inputs hashed to at save time; :meth:`load` compares it. The
        saved body's digest is exposed as :attr:`last_saved_digest`.
        """
        rec = self._recorder
        with rec.span("ckpt.save"):
            # Compact, order-preserving: dict insertion order is
            # meaningful (see repro.core.serialize) so the body is NOT
            # key-sorted. The digest covers the exact order a resume
            # will see.
            body_bytes = _body_encode(
                {"payload": payload, "scopes": scopes, "notes": notes})
            digest = hashlib.sha256(body_bytes).hexdigest()
            self.last_saved_digest = digest
            meta = {
                "format_version": CKPT_FORMAT_VERSION,
                "stage": stage,
                "config_digest": self.config_digest,
                "fault_plan_digest": self.fault_plan_digest,
                "options_digest": self.options_digest,
                "payload_sha256": digest,
                "input_digest": input_digest,
                "created_unix": time.time(),
            }
            final = self.snapshot_dir / (
                f"{stage}.{digest[:_NAME_DIGEST_LEN]}.json")
            tmp = self.snapshot_dir / f".{final.name}.tmp"
            try:
                # Snapshots are megabytes; the body is encoded exactly
                # once (the same bytes the digest covers) and spliced
                # into the envelope as its *last* member, so a load can
                # verify and stale-check the small meta prefix without
                # decoding the body at all. Compact on purpose — the
                # pretty-printed incremental dump this replaces cost
                # ~20x the wall time and a third more disk.
                meta_bytes = json.dumps(
                    meta, separators=(",", ":")).encode()
                with open(tmp, "wb") as handle:
                    handle.write(meta_bytes[:-1])
                    handle.write(_BODY_MARKER)
                    handle.write(body_bytes)
                    handle.write(b"}\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, final)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot write snapshot for stage {stage!r}: {exc}") \
                    from None
            for stale in self.snapshot_paths(stage):
                if stale != final:
                    stale.unlink(missing_ok=True)
            rec.count("ckpt.saves")
        return final

    # -- load -------------------------------------------------------------

    def load(self, stage: str, lineage: Optional[CheckpointLineage],
             input_digest: str) -> Optional[LoadedSnapshot]:
        """Verified, current snapshot for a stage, or None (a miss).

        A missing snapshot is a plain miss. A snapshot that fails
        verification is moved to ``quarantine/`` (reason recorded on
        ``lineage``) and also reported as a miss, so the caller
        recomputes. A verified snapshot whose recorded input digest
        differs from ``input_digest`` is *stale*, not corrupt: it is
        left in place (the recompute will overwrite it) and reported as
        a miss.
        """
        rec = self._recorder
        paths = self.snapshot_paths(stage)
        if not paths:
            rec.count("ckpt.misses")
            return None
        # Newest (and normally only) candidate last; older leftovers are
        # quarantined rather than silently ignored.
        for path in paths[:-1]:
            self._quarantine(path, stage, "superseded duplicate snapshot",
                             lineage)
        path = paths[-1]
        with rec.span("ckpt.verify"):
            rec.count("ckpt.verifies")
            reason, stale, body = self._read_verified(
                path, stage, input_digest)
        if reason is not None:
            self._quarantine(path, stage, reason, lineage)
            rec.count("ckpt.misses")
            return None
        if stale:
            rec.count("ckpt.stale")
            rec.count("ckpt.misses")
            return None
        digest, body_obj = body
        with rec.span("ckpt.load"):
            rec.count("ckpt.loads")
            return LoadedSnapshot(
                stage=stage,
                payload=body_obj["payload"],
                scopes=body_obj["scopes"],
                notes=body_obj["notes"],
                digest=digest)

    def _read_verified(self, path: Path, stage: str, input_digest: str):
        """Read + verify one snapshot file.

        Returns ``(quarantine_reason, is_stale, (digest, body))`` with
        exactly one of the three "set": a reason string (quarantine),
        ``is_stale`` True (input-digest mismatch — leave in place), or
        the verified body. Only the layout :meth:`save` writes is read:
        the meta prefix (everything before ``_BODY_MARKER``) is parsed
        alone, so compatibility and staleness are decided before the
        megabytes of body are ever decoded, and integrity is a hash of
        the raw body slice — the exact bytes :meth:`save` digested.
        """
        try:
            raw = path.read_bytes()
        except OSError as exc:
            return f"unreadable snapshot: {exc}", False, None

        marker = raw.find(_BODY_MARKER)
        trimmed = raw.rstrip()
        if marker == -1 or not trimmed.endswith(b"}"):
            return ("not the layout save writes (re-dumped or "
                    "hand-edited)", False, None)
        try:
            meta = _json_loads(raw[:marker] + b"}")
        except ValueError as exc:
            return f"unreadable snapshot: {exc}", False, None
        reason = self._verify_meta(stage, meta)
        if reason is not None:
            return reason, False, None
        if meta.get("input_digest") != input_digest:
            return None, True, None
        body_bytes = trimmed[marker + len(_BODY_MARKER):-1]
        digest = hashlib.sha256(body_bytes).hexdigest()
        if digest != meta.get("payload_sha256"):
            return ("payload digest mismatch (corrupt snapshot)",
                    False, None)
        try:
            body = _json_loads(body_bytes)
        except ValueError as exc:
            return f"unreadable snapshot body: {exc}", False, None
        if not isinstance(body, dict) or body.keys() != _BODY_KEYS:
            return "snapshot body is malformed", False, None
        return None, False, (digest, body)

    def _verify_meta(self, stage: str, meta: object) -> Optional[str]:
        """Reason the envelope meta is unusable, or None if compatible."""
        if not isinstance(meta, dict):
            return "snapshot is not a JSON object"
        if meta.get("format_version") != CKPT_FORMAT_VERSION:
            return (f"schema version "
                    f"{meta.get('format_version')!r} != "
                    f"{CKPT_FORMAT_VERSION}")
        if meta.get("stage") != stage:
            return f"stage mismatch: {meta.get('stage')!r}"
        for key, want in (("config_digest", self.config_digest),
                          ("fault_plan_digest", self.fault_plan_digest),
                          ("options_digest", self.options_digest)):
            if meta.get(key) != want:
                return (f"{key} mismatch: snapshot "
                        f"{meta.get(key)!r} != current {want!r}")
        return None

    # -- quarantine -------------------------------------------------------

    def _quarantine(self, path: Path, stage: str, reason: str,
                    lineage: Optional[CheckpointLineage]) -> None:
        """Move a bad snapshot aside and record why."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{n}-{path.name}"
        try:
            os.replace(path, target)
        except OSError:
            # Losing the post-mortem copy is acceptable; trusting the
            # snapshot is not. Best effort removal instead.
            try:
                path.unlink()
            except OSError:
                pass
            target = path
        self._recorder.count("ckpt.quarantined")
        if lineage is not None:
            lineage.quarantined.append({
                "stage": stage,
                "reason": reason,
                "path": str(target),
            })
