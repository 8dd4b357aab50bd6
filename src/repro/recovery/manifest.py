"""Per-rank manifest journal: the durable half of checkpoint/recovery.

Each native worker appends fsynced JSON records to
``manifest_<rank>.jsonl`` inside its spill directory.  The journal is a
write-ahead log of *completed deterministic facts*: which phases
finished, the run inventory (with the per-block CRCs and first keys
of the locally stored piece files), the chosen splitters, the
segment extent table with the merge's guide keys, and the merge output
offset.  An interrupted phase restarts at its boundary (run formation
at its first run not every rank finished).  A record is always
written *before* the barrier that lets peers advance past the same
point, so the invariant holds: if any rank passed the barrier after
phase X, every rank has durably recorded X.

On restart the worker replays the journal into a :class:`ResumeState`.
A torn final line (the process died mid-append) is expected and
silently dropped; corruption anywhere else raises
:class:`CorruptManifest`.  The journal opens with the job fingerprint —
a digest of every input that shapes the deterministic computation — so
a stale manifest from a different job can never poison a resume
(:class:`ManifestMismatch`).

The journal does not know what a key is: every key field holds the
JSON value of the job's record model
(:meth:`~repro.native.records.RecordModel.key_to_json` — an int for
fixed16, hex for strings), stored and replayed as is.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

MANIFEST_VERSION = 5

#: Phase indices used for the "highest completed phase" agreement.
PHASE_INDEX = {
    "generate": 0,
    "run_formation": 1,
    "selection": 2,
    "all_to_all": 3,
    "merge": 4,
}


class CorruptManifest(RuntimeError):
    """The manifest is damaged somewhere other than its final line."""


class ManifestMismatch(RuntimeError):
    """The manifest on disk belongs to a different job fingerprint."""


def job_fingerprint(job) -> str:
    """Digest of everything that shapes the deterministic computation.

    Execution knobs (transport, timeouts, pipelining depth, pending
    sends) are deliberately excluded: they change *how* the job runs,
    never *what* it computes, so a resume may legally alter them.  So
    is ``config.selection``, which only the simulator reads.  The record
    model is included: it decides what every journaled key means.  So is
    the run length, ``chunk_records``: it fixes the chunk schedule, and
    it follows from M, B and the model only as the sizing rule of the
    code that wrote the journal does.
    """
    config = job.config
    ident = {
        "version": MANIFEST_VERSION,
        "n_workers": int(job.n_workers),
        "skew": bool(getattr(job, "skew", False)),
        "generate": bool(getattr(job, "generate", True)),
        "data_per_node_bytes": int(config.data_per_node_bytes),
        "memory_bytes": None if config.memory_bytes is None else int(config.memory_bytes),
        "block_bytes": int(config.block_bytes),
        "randomize": bool(config.randomize),
        "seed": int(config.seed),
        "records": str(job.records),
        "chunk_records": int(job.chunk_records),
    }
    blob = json.dumps(ident, sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def _run_record(rec: dict) -> dict:
    """One run's piece inventory, as ``rf_run`` / ``rf_done`` carry it."""
    return {
        "run": int(rec["run"]),
        "n": int(rec["n"]),
        "crcs": [int(c) for c in rec["crcs"]],
        "first_keys": list(rec["first_keys"]),
        "checksum": int(rec.get("checksum", 0)),
    }


@dataclass
class ResumeState:
    """Everything a restarted rank can restore without re-reading data."""

    fingerprint: Optional[str] = None
    last_epoch: int = 0
    generate_done: bool = False
    #: run_id -> {"n", "crcs", "first_keys", "checksum"} for runs whose
    #: piece file is durably on disk (mid-run-formation resume);
    #: ``first_keys`` are the piece's block-first keys: phase 2's sample
    #: and the merge's guide over the ranges it keeps.
    rf_runs: Dict[int, dict] = field(default_factory=dict)
    rf_done: bool = False
    rf_checksum: int = 0
    selection_splits: Optional[List[List[int]]] = None
    #: Per run ``[lower, keep_start, kept, upper]`` — the extent table
    #: (``repro.native.phases.SegmentLayout``) of this rank's segments.
    a2a_layout: Optional[List[List[int]]] = None
    #: Per run, the first key of every merge read unit (None = unknown,
    #: re-probed by the merge under its index tag).
    a2a_unit_first_keys: Optional[List[list]] = None
    merge_records_out: int = 0
    merge_meta: Optional[dict] = None

    @property
    def completed_index(self) -> int:
        """Highest fully-completed phase index, or -1 for none."""
        if self.merge_meta is not None:
            return PHASE_INDEX["merge"]
        if self.a2a_layout is not None:
            return PHASE_INDEX["all_to_all"]
        if self.selection_splits is not None:
            return PHASE_INDEX["selection"]
        if self.rf_done:
            return PHASE_INDEX["run_formation"]
        if self.generate_done:
            return PHASE_INDEX["generate"]
        return -1

    def contiguous_rf_runs(self) -> int:
        """Longest durable prefix of completed runs (0, 1, ..., k-1)."""
        k = 0
        while k in self.rf_runs:
            k += 1
        return k

    @classmethod
    def from_records(cls, records: List[dict]) -> "ResumeState":
        state = cls()
        for rec in records:
            kind = rec.get("t")
            if kind == "attempt":
                if int(rec.get("epoch", 0)) == 0:
                    # Epoch 0 means a fresh job overwrote this path; any
                    # earlier records belong to a dead lineage.
                    state = cls()
                state.fingerprint = rec.get("fp")
                state.last_epoch = int(rec.get("epoch", 0))
            elif kind == "generate":
                state.generate_done = True
            elif kind == "rf_run":
                state.rf_runs[int(rec["run"])] = _run_record(rec)
            elif kind == "rf_done":
                state.rf_done = True
                state.rf_checksum = int(rec["checksum"])
                for run in rec["runs"]:
                    state.rf_runs[int(run["run"])] = _run_record(run)
            elif kind == "selection":
                state.selection_splits = [
                    [int(x) for x in row] for row in rec["splits"]
                ]
            elif kind == "a2a_done":
                state.a2a_layout = [
                    [int(x) for x in row] for row in rec["layout"]
                ]
                state.a2a_unit_first_keys = [
                    list(run_keys) for run_keys in rec["first_keys"]
                ]
            elif kind == "merge_mark":
                state.merge_records_out = int(rec["records"])
            elif kind == "merge":
                state.merge_meta = {
                    "rank": int(rec["rank"]),
                    "path": rec["path"],
                    "n_records": int(rec["n_records"]),
                    "first_key": rec["first_key"],
                    "last_key": rec["last_key"],
                    "checksum": int(rec["checksum"]),
                    "sorted_ok": bool(rec["sorted_ok"]),
                }
        return state


class RankJournal:
    """Append-only fsynced JSONL journal for one rank's manifest."""

    def __init__(self, path: str, fingerprint: str, rank: int):
        self.path = path
        self.fingerprint = fingerprint
        self.rank = rank
        self._handle = None

    # -- lifecycle ----------------------------------------------------

    def begin_epoch(self, epoch: int) -> None:
        """Open the journal: epoch 0 truncates, later epochs append."""
        mode = "w" if epoch == 0 else "a"
        self._handle = open(self.path, mode, encoding="ascii")
        self.append(
            {"t": "attempt", "fp": self.fingerprint, "rank": self.rank,
             "epoch": int(epoch)}
        )

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def append(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- typed record writers ----------------------------------------

    def generate_done(self) -> None:
        self.append({"t": "generate"})

    def rf_run_done(self, run: dict) -> None:
        self.append({"t": "rf_run", **_run_record(run)})

    def rf_done(self, runs: List[dict], checksum: int) -> None:
        self.append({"t": "rf_done", "checksum": int(checksum), "runs": runs})

    def selection_done(self, splits) -> None:
        self.append({
            "t": "selection",
            "splits": [[int(x) for x in row] for row in splits],
        })

    def a2a_done(self, layout, unit_first_keys) -> None:
        self.append({
            "t": "a2a_done",
            "layout": [[int(x) for x in row] for row in layout],
            "first_keys": [list(run_keys) for run_keys in unit_first_keys],
        })

    def merge_mark(self, records_out: int) -> None:
        self.append({"t": "merge_mark", "records": int(records_out)})

    def merge_done(self, meta: dict) -> None:
        self.append({
            "t": "merge", "rank": int(meta["rank"]), "path": meta["path"],
            "n_records": int(meta["n_records"]),
            "first_key": meta["first_key"],
            "last_key": meta["last_key"],
            "checksum": int(meta["checksum"]),
            "sorted_ok": bool(meta["sorted_ok"]),
        })

    # -- replay -------------------------------------------------------

    @staticmethod
    def load_records(path: str) -> List[dict]:
        """Parse the journal, tolerating only a torn final line."""
        with open(path, "rb") as handle:
            raw_lines = handle.read().split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()
        records = []
        for idx, raw in enumerate(raw_lines):
            try:
                records.append(json.loads(raw))
            except (ValueError, UnicodeDecodeError):
                if idx == len(raw_lines) - 1:
                    break  # torn tail: the append died with the process
                raise CorruptManifest(
                    f"{path}: unreadable record at line {idx + 1} "
                    "(not the final line, so this is corruption, not a crash)"
                )
        return records

    def load_resume(self) -> Optional[ResumeState]:
        """Rebuild resume state, or None when no manifest exists yet."""
        if not os.path.exists(self.path):
            return None
        records = self.load_records(self.path)
        if not records:
            return None
        state = ResumeState.from_records(records)
        if state.fingerprint != self.fingerprint:
            raise ManifestMismatch(
                f"{self.path}: manifest fingerprint {state.fingerprint!r} "
                f"does not match this job ({self.fingerprint!r}); refusing "
                "to resume from another job's spill directory"
            )
        return state
