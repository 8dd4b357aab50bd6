"""Checkpoint/recovery subsystem for the native backend.

CANONICALMERGESORT's defining property — runs are *globally sorted but
stored locally*, and every later phase is a deterministic function of
durable local state — makes phase-boundary checkpointing nearly free.
This package supplies the durable state machinery:

* :mod:`repro.recovery.manifest` — the per-rank manifest journal each
  worker writes into its spill directory (fsynced JSON records: job
  fingerprint, completed phases, run inventory with block CRCs, chosen
  splitters, segment extent table, merge output offset) and the
  :class:`~repro.recovery.manifest.ResumeState` a restarted worker
  rebuilds from it;
* :mod:`repro.recovery.supervisor` — the driver-side restart policy:
  how many epochs a job may burn, which ranks are suspect, and the
  recovery event log that surfaces in ``--json`` reports.

See ``docs/RECOVERY.md`` for the full design: what is and is not redone
per phase, the epoch fencing of stale frames, and the o(N) recovery
I/O bound.
"""

from .manifest import (
    CorruptManifest,
    ManifestMismatch,
    RankJournal,
    ResumeState,
    job_fingerprint,
)
from .supervisor import RestartEvent, RestartPolicy

__all__ = [
    "CorruptManifest",
    "ManifestMismatch",
    "RankJournal",
    "ResumeState",
    "job_fingerprint",
    "RestartEvent",
    "RestartPolicy",
]
