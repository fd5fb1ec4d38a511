"""Crash-recoverable builds: stage checkpoints, verified resume.

Each :class:`repro.core.builder.MapBuilder` stage can snapshot its
output to a :class:`CheckpointStore` (content-addressed, atomically
written); a build started with ``resume=True`` loads every snapshot
that verifies and whose recorded inputs match the stage's current ones,
quarantines anything corrupt or incompatible, recomputes the rest, and
— the subsystem's hard guarantee — produces a map bit-identical to a
fresh uninterrupted build of the current world. :func:`run_supervised` wraps the
build/crash/resume loop; see ``docs/checkpointing.md``.
"""

from .store import (CKPT_FORMAT_VERSION, CheckpointError,
                    CheckpointLineage, CheckpointStore, LoadedSnapshot)
from .supervisor import SupervisedRun, SupervisionReport, run_supervised

__all__ = [
    "CKPT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointLineage",
    "CheckpointStore",
    "LoadedSnapshot",
    "SupervisedRun",
    "SupervisionReport",
    "run_supervised",
]
