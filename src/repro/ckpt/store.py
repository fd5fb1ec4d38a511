"""Content-addressed stage snapshots with atomic writes and quarantine.

A :class:`CheckpointStore` owns one ``--checkpoint-dir``. Each builder
stage saves its output as a snapshot whose *body* (payload + fault-scope
states + builder notes) is compact JSON, except that every numeric
ndarray in it is stored as raw little-endian bytes in one *blob* after
the JSON and referenced from the body as ``{dtype, shape, offset}``.
Body and blob are digested together with SHA-256; the digest rides in
the envelope and — truncated — in the filename, so a snapshot is
content-addressed and self-verifying. Writes are atomic (temp file in
the same directory, then ``os.replace``) so a crash mid-save can never
leave a half-written snapshot where a resume would trust it.

Envelope version 4 is laid out as::

    {<meta>,"body":<body_bytes of JSON body>}\n<array blob>

On load the store verifies, in order: the meta prefix parses, the
envelope schema version and stage name match, the config / fault-plan /
options digests match the current build, and the digest of body and
blob equals the recorded one. The cheap meta checks (and the
input-digest staleness check) read a few hundred bytes; integrity is
one hash over the bytes as stored, never a re-encode. The body is then
parsed, each array reference becoming a writable ndarray over the blob;
only numeric dtypes inside the blob are accepted, and nothing is ever
unpickled. An array object that appears in several places of a body
is written once and every place references the same bytes; on load
each distinct reference becomes one array object, so the sharing
survives a round trip. A body that references each occurrence
separately decodes the same way, one object per reference.

Any verification failure *quarantines* the snapshot (moves
it to ``quarantine/`` and records the reason in the lineage) and
reports a miss, so the builder recomputes the stage instead of trusting
bad data — a wrong map is strictly worse than a slow one. An older
snapshot is quarantined the same way and recomputed once: version 3
had this layout but held ``user_to_host`` as dicts, version 2 was JSON
only. A snapshot whose recorded input digest differs from
the stage's current one is *stale*: it describes another world, not a
damaged file, so it is left in place (the recompute overwrites it) and
reported as a miss.

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
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..obs.recorder import NULL_RECORDER, Recorder

#: Snapshot envelope schema version; bump on incompatible layout change.
CKPT_FORMAT_VERSION = 4

#: Hex digits of the body digest carried in the snapshot filename.
_NAME_DIGEST_LEN = 12

#: Byte sequence introducing the body member in a snapshot written by
#: :meth:`CheckpointStore.save`. The JSON body is always the envelope's
#: last member, ``body_bytes`` long (the meta records it), followed by
#: :data:`_JSON_END` and the array blob. So a load can (a) parse just
#: the meta prefix to reject a mismatched or stale snapshot without
#: reading megabytes of payload, and (b) verify integrity by hashing
#: the body and blob as stored instead of re-encoding anything. A file
#: not laid out this way was not written by ``save`` and is
#: quarantined, never parsed some other way.
_BODY_MARKER = b',"body":'

#: Closes the JSON envelope; the raw array blob follows it.
_JSON_END = b"}\n"

#: Upper bound on the meta prefix (a few hundred bytes in practice).
_META_MAX = 1 << 16

#: The members of every body :meth:`CheckpointStore.save` writes.
_BODY_KEYS = {"payload", "scopes", "notes"}

#: The object that stands in for an ndarray in the JSON body.
_ARRAY_REF_KEYS = {"dtype", "shape", "offset"}

#: Array dtype kinds a snapshot holds: bool, signed, unsigned, float.
_ARRAY_KINDS = "biuf"

#: Blob offsets are multiples of this, so decoded arrays are aligned.
_ALIGN = 8


def _encode_body(body: object) -> Tuple[bytes, List[object]]:
    """``body`` as compact JSON, plus the blob chunks of its arrays.

    ``json.dumps`` hands each ndarray to ``default``, which appends its
    little-endian bytes (zero-padded to :data:`_ALIGN`) to the blob and
    writes a ``{dtype, shape, offset}`` reference in its place. An array
    object met again reuses the reference of its first write, so an
    array shared between several places in the body is stored once.
    """
    chunks: List[object] = []
    size = 0
    # id(array) -> (array, ref). Holding the array keeps its id from
    # being handed to a later object while the encode runs.
    written: Dict[int, Tuple[np.ndarray, Dict[str, object]]] = {}

    def array_ref(value):
        nonlocal size
        seen = written.get(id(value))
        if seen is not None:
            return seen[1]
        if type(value) is not np.ndarray \
                or value.dtype.kind not in _ARRAY_KINDS:
            raise TypeError(f"cannot snapshot {value!r:.60}")
        array = value.astype(value.dtype.newbyteorder("<"), order="C",
                             copy=False)
        ref = {"dtype": array.dtype.str, "shape": list(array.shape),
               "offset": size}
        chunks.append(array.reshape(-1).view(np.uint8))
        pad = -array.nbytes % _ALIGN
        chunks.append(bytes(pad))
        size += array.nbytes + pad
        written[id(value)] = (value, ref)
        return ref

    # Compact and order-preserving: dict insertion order is meaningful
    # (see repro.core.serialize), so the body is NOT key-sorted.
    text = json.dumps(body, separators=(",", ":"), default=array_ref)
    return text.encode(), chunks


def _array_at(blob: bytearray, ref: Dict[str, object]) -> np.ndarray:
    """The array an ``{dtype, shape, offset}`` reference names: a
    writable view of blob bytes, of a numeric dtype only (never
    ``object``). ``np.frombuffer`` refuses offsets and sizes past the
    blob end."""
    dtype, shape = np.dtype(ref["dtype"]), ref["shape"]
    if dtype.kind not in _ARRAY_KINDS or type(shape) is not list \
            or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"not a numeric array reference: {ref!r}")
    return np.frombuffer(blob, dtype=dtype, count=math.prod(shape),
                         offset=ref["offset"]).reshape(shape)


class CheckpointError(ReproError):
    """A checkpoint operation failed unrecoverably (I/O, bad root)."""


@dataclass
class LoadedSnapshot:
    """A verified snapshot, ready for the builder to apply.

    ``payload`` is the body's JSON with every array reference already
    resolved to a writable ndarray over the blob — the form
    :func:`repro.core.serialize.stage_payload_to_dict` wrote, which the
    builder decodes with :func:`repro.core.serialize.
    stage_payload_from_dict`; ``scopes`` / ``notes`` are the absolute
    post-stage fault-scope states and note lists the stage recorded.
    """

    stage: str
    payload: object
    scopes: Dict[str, Dict]
    notes: Dict[str, List[str]]
    #: The SHA-256 of the snapshot's body and blob — downstream stages
    #: chain it into their own input digests (delta builds).
    digest: str = ""
    #: The file it was read from (quarantined if it fails to decode).
    path: Optional[Path] = None


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
            body_bytes, chunks = _encode_body(
                {"payload": payload, "scopes": scopes, "notes": notes})
            hasher = hashlib.sha256(body_bytes)
            for chunk in chunks:
                hasher.update(chunk)
            digest = hasher.hexdigest()
            self.last_saved_digest = digest
            meta = {
                "format_version": CKPT_FORMAT_VERSION,
                "stage": stage,
                "config_digest": self.config_digest,
                "fault_plan_digest": self.fault_plan_digest,
                "options_digest": self.options_digest,
                "payload_sha256": digest,
                "input_digest": input_digest,
                "body_bytes": len(body_bytes),
                "created_unix": time.time(),
            }
            final = self.snapshot_dir / (
                f"{stage}.{digest[:_NAME_DIGEST_LEN]}.json")
            tmp = self.snapshot_dir / f".{final.name}.tmp"
            try:
                # The body is encoded exactly once (the bytes the digest
                # covers) and spliced into the envelope as its *last*
                # member, so a load can verify and stale-check the small
                # meta prefix without reading the body at all.
                meta_bytes = json.dumps(
                    meta, separators=(",", ":")).encode()
                with open(tmp, "wb") as handle:
                    handle.write(meta_bytes[:-1])
                    handle.write(_BODY_MARKER)
                    handle.write(body_bytes)
                    handle.write(_JSON_END)
                    for chunk in chunks:
                        handle.write(chunk)
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
            self.quarantine(path, stage, "superseded duplicate snapshot",
                            lineage)
        path = paths[-1]
        with rec.span("ckpt.verify"):
            rec.count("ckpt.verifies")
            reason, stale, body = self._read_verified(
                path, stage, input_digest)
        if reason is not None:
            self.quarantine(path, stage, reason, lineage)
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
                digest=digest,
                path=path)

    def _read_verified(self, path: Path, stage: str, input_digest: str):
        """Read + verify one snapshot file.

        Returns ``(quarantine_reason, is_stale, (digest, body))`` with
        exactly one of the three "set": a reason string (quarantine),
        ``is_stale`` True (input-digest mismatch — leave in place), or
        the verified body. Only the layout :meth:`save` writes is read:
        the meta prefix (everything before ``_BODY_MARKER``) is parsed
        alone, so compatibility and staleness are decided before the
        megabytes of body and blob are ever read, and integrity is a
        hash of the body and blob as stored — the exact bytes
        :meth:`save` digested.
        """
        layout = "not the layout save writes (re-dumped or hand-edited)"
        try:
            with open(path, "rb") as handle:
                head = handle.read(_META_MAX)
                marker = head.find(_BODY_MARKER)
                if marker == -1:
                    return layout, False, None
                try:
                    meta = json.loads(head[:marker] + b"}")
                except ValueError as exc:
                    return f"unreadable snapshot: {exc}", False, None
                reason = self._verify_meta(stage, meta)
                if reason is not None:
                    return reason, False, None
                if meta.get("input_digest") != input_digest:
                    return None, True, None
                size = meta.get("body_bytes")
                if type(size) is not int or size < 0:
                    return layout, False, None
                handle.seek(marker + len(_BODY_MARKER))
                body_bytes = handle.read(size)
                if len(body_bytes) != size \
                        or handle.read(len(_JSON_END)) != _JSON_END:
                    return layout, False, None
                # A fresh bytearray: aligned, and the arrays decoded
                # from it are writable views rather than copies.
                blob = bytearray(
                    os.fstat(handle.fileno()).st_size - handle.tell())
                if handle.readinto(blob) != len(blob):
                    return "snapshot changed while read", False, None
        except OSError as exc:
            return f"unreadable snapshot: {exc}", False, None
        hasher = hashlib.sha256(body_bytes)
        hasher.update(blob)
        digest = hasher.hexdigest()
        if digest != meta.get("payload_sha256"):
            return ("payload digest mismatch (corrupt snapshot)",
                    False, None)

        # One array object per distinct reference, so an array the
        # encoder wrote once for several places is shared again.
        arrays: Dict[str, np.ndarray] = {}

        def resolve_arrays(obj):
            if obj.keys() != _ARRAY_REF_KEYS:
                return obj
            key = repr((obj["dtype"], obj["shape"], obj["offset"]))
            array = arrays.get(key)
            if array is None:
                array = arrays[key] = _array_at(blob, obj)
            return array

        try:
            body = json.loads(body_bytes, object_hook=resolve_arrays)
        except (ValueError, TypeError, RecursionError) as exc:
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

    def quarantine(self, path: Path, stage: str, reason: str,
                   lineage: Optional[CheckpointLineage]) -> None:
        """Move a bad snapshot aside and record why.

        :meth:`load` calls it for a snapshot that fails verification;
        the builder calls it for a verified one whose payload then fails
        to decode.
        """
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
