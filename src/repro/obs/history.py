"""Append-only run-history registry: the time series of build manifests.

Longitudinal measurement platforms (RIPE Atlas, the hypergiant off-net
tracking of Gigis et al.) live on their time series — a single
:class:`repro.obs.RunManifest` says what one build did, but the *drift*
between builds is where the findings are. A :class:`RunHistory` is a
JSONL file of schema-validated manifests, one entry per line, keyed by
the digests that decide comparability (config, fault plan, builder
options), so ``python -m repro compare`` and CI gates can pull any two
comparable runs out of it.

Durability discipline (shared with :mod:`repro.ckpt`): every append
rewrites the registry through a same-directory temp file with
``fsync`` + ``os.replace``, under an exclusive ``flock`` on a sidecar
lock file, so a crash mid-append leaves the previous registry intact
and concurrent appends serialize instead of clobbering each other. The
reader side is tolerant by construction: unparseable lines (e.g. a torn
append from a pre-lock writer) are skipped and reported, never fatal —
losing one entry is acceptable, losing the registry is not.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ValidationError
from .manifest import RunManifest, validate_manifest

try:                                    # POSIX only; harmless to miss.
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    fcntl = None

#: Entry envelope schema; bump on incompatible layout change.
HISTORY_SCHEMA_VERSION = 1

#: Default registry filename (the CLI's --history default).
DEFAULT_HISTORY_PATH = "run-history.jsonl"


@dataclass(frozen=True)
class RunKey:
    """The digests that decide whether two runs are comparable.

    ``fault_plan`` and ``options`` are None when unknown (a clean build,
    or a manifest recorded from a file without the builder at hand); two
    keys compare equal field-by-field, None included — an unknown
    options digest is only comparable with another unknown one.
    """

    config: str
    fault_plan: Optional[str] = None
    options: Optional[str] = None

    def describe(self) -> str:
        """Compact ``config/fault/options`` rendering for listings."""
        return (f"{self.config}/{self.fault_plan or '-'}"
                f"/{self.options or '-'}")


@dataclass(frozen=True)
class HistoryEntry:
    """One recorded run: envelope metadata plus the manifest payload."""

    index: int
    recorded_unix: float
    key: RunKey
    manifest: Dict[str, object]
    label: Optional[str] = None

    def load_manifest(self) -> RunManifest:
        """The entry's manifest as a validated :class:`RunManifest`."""
        return RunManifest.from_dict(self.manifest)


def run_key_of(manifest: Union[RunManifest, Dict[str, object]],
               options_digest: Optional[str] = None) -> RunKey:
    """The comparability key a manifest implies.

    ``options_digest`` comes from the builder when recording in-process
    (:func:`repro.obs.manifest.options_digest`); it stays None when a
    manifest is recorded from a file.
    """
    if isinstance(manifest, RunManifest):
        payload = manifest.to_dict()
    else:
        payload = manifest
    fault_plan = payload.get("fault_plan") or None
    fault_digest = fault_plan.get("digest") if fault_plan else None
    return RunKey(config=str(payload["config_hash"]),
                  fault_plan=fault_digest, options=options_digest)


class RunHistory:
    """An append-only JSONL registry of run manifests.

    ``RunHistory(path)`` never touches the filesystem until the first
    :meth:`record`; a missing file reads as an empty registry.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    # -- locking ----------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock serializing appenders (POSIX flock).

        Each call opens its own descriptor, so concurrent threads of one
        process serialize exactly like separate processes do. On
        platforms without ``fcntl`` the lock degrades to a no-op; the
        temp+rename append then still cannot corrupt the registry, it
        can only lose the race's earlier entry.
        """
        if fcntl is None:               # pragma: no cover - non-POSIX
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- read -------------------------------------------------------------

    def scan(self) -> Tuple[List[HistoryEntry], List[int]]:
        """All readable entries plus the 1-based numbers of bad lines.

        A line is bad when it fails to parse, has the wrong envelope
        schema, or carries a manifest that fails
        :func:`validate_manifest` — e.g. the torn tail of an append that
        died before this registry's locking discipline existed. Bad
        lines are preserved on disk (the registry is append-only) but
        never surface as entries.
        """
        if not self.path.exists():
            return [], []
        entries: List[HistoryEntry] = []
        bad: List[int] = []
        with open(self.path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict) or \
                            payload.get("schema") != HISTORY_SCHEMA_VERSION:
                        raise ValidationError("bad envelope")
                    manifest = payload["manifest"]
                    validate_manifest(manifest)
                    key_fields = payload.get("key", {})
                    key = RunKey(
                        config=str(key_fields["config"]),
                        fault_plan=key_fields.get("fault_plan"),
                        options=key_fields.get("options"))
                except (ValidationError, KeyError, TypeError,
                        json.JSONDecodeError):
                    bad.append(lineno)
                    continue
                entries.append(HistoryEntry(
                    index=len(entries),
                    recorded_unix=float(payload.get("recorded_unix", 0.0)),
                    key=key,
                    manifest=manifest,
                    label=payload.get("label")))
        return entries, bad

    def entries(self) -> List[HistoryEntry]:
        """All readable entries, oldest first (bad lines skipped)."""
        return self.scan()[0]

    def __len__(self) -> int:
        return len(self.entries())

    def get(self, index: int) -> HistoryEntry:
        """Entry by listing index (negative indexes count from the end)."""
        entries = self.entries()
        try:
            return entries[index]
        except IndexError:
            raise ValidationError(
                f"history {self.path} has {len(entries)} entries; "
                f"no entry {index}") from None

    def latest(self, key: Optional[RunKey] = None
               ) -> Optional[HistoryEntry]:
        """The newest entry (optionally: newest with a matching key)."""
        for entry in reversed(self.entries()):
            if key is None or entry.key == key:
                return entry
        return None

    # -- append -----------------------------------------------------------

    def record(self, manifest: Union[RunManifest, Dict[str, object]], *,
               options_digest: Optional[str] = None,
               label: Optional[str] = None,
               require_same_key: bool = False) -> HistoryEntry:
        """Validate and atomically append one run; returns its entry.

        Raises :class:`ValidationError` when the manifest fails schema
        validation (an invalid manifest is never persisted), or — with
        ``require_same_key`` — when the registry already holds runs
        whose digests make this one incomparable with the latest entry.
        """
        payload = (manifest.to_dict() if isinstance(manifest, RunManifest)
                   else manifest)
        validate_manifest(payload)
        key = run_key_of(payload, options_digest)
        envelope = {
            "schema": HISTORY_SCHEMA_VERSION,
            "recorded_unix": time.time(),
            "label": label,
            "key": {"config": key.config, "fault_plan": key.fault_plan,
                    "options": key.options},
            "manifest": payload,
        }
        line = json.dumps(envelope, sort_keys=True,
                          separators=(",", ":"))
        with self._locked():
            entries = self.entries()
            if require_same_key and entries \
                    and entries[-1].key != key:
                raise ValidationError(
                    f"run is not comparable with the registry's latest "
                    f"entry: {key.describe()} vs "
                    f"{entries[-1].key.describe()}")
            self._append_line(line)
            return HistoryEntry(
                index=len(entries),
                recorded_unix=float(envelope["recorded_unix"]),
                key=key, manifest=payload, label=label)

    def _append_line(self, line: str) -> None:
        """Temp + fsync + rename append (the repro.ckpt discipline).

        The whole registry (existing bytes verbatim, bad lines included,
        plus the new line) lands in a same-directory temp file which
        replaces the original only after an fsync — an interrupted
        append therefore leaves the previous registry byte-identical,
        never truncated or half-written.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = b""
        if self.path.exists():
            existing = self.path.read_bytes()
            if existing and not existing.endswith(b"\n"):
                existing += b"\n"
        tmp = self.path.with_name("." + self.path.name + ".tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(existing)
                handle.write(line.encode())
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise ValidationError(
                f"cannot append to run history {self.path}: {exc}") \
                from None
