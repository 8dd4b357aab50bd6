"""Native job parameters: a :class:`~repro.core.config.SortConfig` bound
to real processes and a real spill directory.

The simulator interprets ``SortConfig`` through the scaling discipline
(simulated keys *represent* paper-scale bytes); the native backend
interprets the same fields literally:

``data_per_node_bytes``
    real bytes of 16-byte records generated and sorted per worker;
``memory_bytes``
    the per-worker record-memory budget M.  Run formation keeps its
    working set within M by sizing one run chunk at M/3 (chunk + sorted
    permutation + received exchange slice — three live copies at the
    phase's peak);
``block_bytes``
    the unit of every file read/write and of every pipe chunk;
``selection`` / ``sample_every`` / ``randomize`` / ``seed``
    exactly as in the simulator.

``n_runs`` therefore lands at about ``3·N/M`` — the price of honoring M
as a *process* budget rather than a bare data volume.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

from ..core.config import ConfigError, SortConfig
from .comm_api import DEFAULT_PENDING_SENDS
from .records import RECORD_BYTES

__all__ = ["NativeJob", "SORT_WORKING_COPIES", "TRANSPORTS"]

#: Interconnect substrates the driver can wire up (see docs/TRANSPORT.md).
TRANSPORTS = ("pipe", "tcp", "shm")

#: Live record-array copies at run formation's memory peak (input chunk,
#: sorted copy during the permutation, received exchange slice).
SORT_WORKING_COPIES = 3

#: Fallback per-worker memory when the config leaves it to the machine
#: spec (the simulator would use the paper machine's RAM — meaningless
#: for worker processes on one host).
DEFAULT_MEMORY_BYTES = 64 * 2**20


@dataclass
class NativeJob:
    """Everything a native worker needs to know (picklable)."""

    config: SortConfig
    n_workers: int
    spill_dir: str
    #: Duplicate-heavy gensort keys (the Daytona-like distribution).
    skew: bool = False
    #: Generate the input files inside the workers before sorting.
    generate: bool = True
    #: Per-message receive timeout for the interconnect mesh.
    timeout: float = 300.0
    #: Which interconnect carries the mesh: ``"pipe"`` (multiprocessing
    #: pipes, single host) or ``"tcp"`` (real sockets via
    #: :mod:`repro.net`, loopback or multi-host).
    transport: str = "pipe"
    #: Exchange backpressure bound: at most this many chunks parked in
    #: the send queue before the producer is throttled (both transports).
    pending_sends: int = DEFAULT_PENDING_SENDS
    #: TCP only: rendezvous endpoint the driver listens on
    #: (``"host:port"``; port 0 picks an ephemeral port).
    listen: str = "127.0.0.1:0"
    #: TCP only: when False the driver spawns no worker processes and
    #: waits for externally launched ``python -m repro worker`` PEs to
    #: connect to the rendezvous endpoint instead.
    spawn_workers: bool = True
    #: TCP only: sender-idle seconds between heartbeat frames.
    heartbeat_s: float = 5.0
    #: Read-ahead budget W in blocks (0 = synchronous reads).  When > 0,
    #: the merge and all-to-all phases fetch blocks on background threads
    #: in the order of the paper's optimal prefetch schedule (Appendix A),
    #: keeping at most W fetched-but-unconsumed blocks.  These buffers
    #: are *additional* to M (the paper folds its prefetch pool into M;
    #: we keep M's meaning from PR 1 and account the pool separately).
    prefetch_blocks: int = 0
    #: Write-behind budget in blocks (0 = synchronous writes).  When > 0,
    #: spill writes of run formation, all-to-all and the merge are queued
    #: to one background writer thread per phase, parking at most this
    #: many blocks' worth of record bytes in user space.
    write_behind_blocks: int = 0
    #: Optional fault-injection spec (see :mod:`repro.testing.chaos`).
    #: Duck-typed so the native backend never imports the testing
    #: subsystem: anything with ``at_point`` / ``on_recv_poll`` /
    #: ``clip_write`` hooks works.  Must be picklable.
    chaos: Optional[object] = None
    #: How many times the driver's supervisor may restart the job after
    #: a failed attempt (dead/severed/wedged rank).  > 0 implies
    #: checkpointing.
    max_restarts: int = 0
    #: Journal per-rank manifests even when restarts are disabled (lets
    #: a later invocation resume by setting ``epoch`` > 0 itself).
    checkpoint: bool = False
    #: Restart attempt number.  0 = fresh job (manifests truncated);
    #: > 0 = resume from the manifests in ``spill_dir``.  Stamped by the
    #: supervisor, fences stale interconnect frames.
    epoch: int = 0
    #: Ranks implicated in the failure that caused this epoch; they
    #: CRC-verify their retained piece blocks against the manifest
    #: before resuming (bounded, o(N) work).
    suspect_ranks: tuple = ()
    #: All-to-all watermark cadence: journal delivered-chunk marks every
    #: this many chunk arrivals (only while write-behind is off).
    a2a_checkpoint_chunks: int = 8
    #: Best-effort removal of the spill directory when the job aborts
    #: for good (all restarts exhausted).  Off by default: a populated
    #: spill dir is evidence, and chaos tests assert on its contents.
    cleanup_on_abort: bool = False
    #: Numeric job identity on the wire (service multiplexing): stamped
    #: into every frame's fence alongside the epoch so one job's frames
    #: can never be delivered to another.  0 for single-shot runs.
    job_tag: int = 0
    #: Spill-file namespace: when non-empty, every block-store file name
    #: is prefixed ``<namespace>_`` so concurrent jobs sharing one spill
    #: directory cannot collide, and cleanup of one job (abort included)
    #: can only ever touch that job's files.  Empty for single-shot
    #: runs, which keep the historic flat layout.
    spill_namespace: str = ""
    #: Record model: ``"fixed16"`` (the paper's 16-byte element) or
    #: ``"string"`` (length-prefixed variable records with byte-string
    #: keys, sorted byte-lexicographically; see docs/NATIVE.md).  The
    #: string model sizes itself by the same nominal 16 bytes/record, so
    #: a given data volume sorts the same record count either way.
    records: str = "fixed16"
    #: Sort algorithm backend: ``"canonical"`` (CANONICALMERGESORT, the
    #: default) or ``"striped"`` (mergesort with global striping — paper
    #: Section III's baseline).  See docs/NATIVE.md for the decision
    #: matrix; both backends produce the identical canonical output.
    algo: str = "canonical"
    #: Shared-memory transport only: data capacity of each directed ring
    #: in KiB.  ``None`` keeps the transport default
    #: (:data:`~repro.native.shm.DEFAULT_RING_BYTES`).  Messages larger
    #: than the ring stream through in pieces, so any positive size is
    #: correct — smaller rings just park the producer more often (see
    #: docs/TRANSPORT.md).
    shm_ring_kib: Optional[int] = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise ConfigError(f"need at least one worker, got {self.n_workers}")
        if self.block_records < 1:
            raise ConfigError(
                f"block_bytes {self.config.block_bytes:.0f} holds no whole "
                f"{RECORD_BYTES}-byte record"
            )
        if self.records_per_worker < 1:
            raise ConfigError("data_per_node_bytes holds no whole record")
        if self.config.selection not in ("sampled", "basic", "bisect"):
            raise ConfigError(f"unknown selection strategy {self.config.selection!r}")
        if self.prefetch_blocks < 0:
            raise ConfigError(
                f"prefetch_blocks must be >= 0, got {self.prefetch_blocks}"
            )
        if self.write_behind_blocks < 0:
            raise ConfigError(
                f"write_behind_blocks must be >= 0, got {self.write_behind_blocks}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )
        if self.shm_ring_kib is not None:
            if self.shm_ring_kib < 1:
                raise ConfigError(
                    f"shm_ring_kib must be >= 1, got {self.shm_ring_kib}"
                )
            if self.transport != "shm":
                raise ConfigError(
                    "shm_ring_kib only applies to transport='shm', "
                    f"got transport={self.transport!r}"
                )
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        if self.pending_sends < 1:
            raise ConfigError(
                f"pending_sends must be >= 1, got {self.pending_sends}"
            )
        if self.heartbeat_s <= 0:
            raise ConfigError(f"heartbeat_s must be > 0, got {self.heartbeat_s}")
        if not self.spawn_workers and self.transport != "tcp":
            raise ConfigError(
                "spawn_workers=False (externally launched PEs) requires "
                "transport='tcp'"
            )
        if self.max_restarts < 0:
            raise ConfigError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.epoch < 0:
            raise ConfigError(f"epoch must be >= 0, got {self.epoch}")
        if self.epoch > 0 and not self.checkpointing:
            raise ConfigError(
                "epoch > 0 (resume) requires checkpointing "
                "(checkpoint=True or max_restarts > 0)"
            )
        if self.a2a_checkpoint_chunks < 1:
            raise ConfigError(
                "a2a_checkpoint_chunks must be >= 1, got "
                f"{self.a2a_checkpoint_chunks}"
            )
        if not 0 <= self.job_tag < 2**32:
            raise ConfigError(
                f"job_tag must fit a u32, got {self.job_tag}"
            )
        if self.spill_namespace and not all(
            c.isalnum() or c in "._-" for c in self.spill_namespace
        ):
            raise ConfigError(
                f"spill_namespace {self.spill_namespace!r} may only use "
                "alphanumerics, '.', '_' and '-' (it prefixes file names)"
            )
        from .records import MODELS

        if self.records not in MODELS:
            raise ConfigError(
                f"unknown record model {self.records!r}; choose from "
                f"{tuple(sorted(MODELS))}"
            )
        if self.varlen:
            # Follow-ups tracked in ROADMAP: the recovery journal, the
            # pipelined I/O layer and the chaos write gate are all
            # slot-addressed today.
            if self.checkpointing or self.epoch > 0:
                raise ConfigError(
                    "records='string' does not support checkpoint/resume yet"
                )
            if self.pipelined:
                raise ConfigError(
                    "records='string' does not support pipelined I/O yet"
                )
            if self.chaos is not None:
                raise ConfigError(
                    "records='string' does not support chaos injection yet"
                )
        from .algos import ALGORITHMS

        if self.algo not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algo!r}; choose from {ALGORITHMS}"
            )
        if self.algo != "canonical":
            # The new backends run the paper's fixed element only, and
            # (like the string model before them) the recovery journal,
            # the pipelined I/O layer and the chaos write gate are
            # canonical-phase-addressed today (ROADMAP follow-ups).
            if self.varlen:
                raise ConfigError(
                    f"algo={self.algo!r} only supports records='fixed16' yet"
                )
            if self.checkpointing or self.epoch > 0:
                raise ConfigError(
                    f"algo={self.algo!r} does not support checkpoint/resume yet"
                )
            if self.pipelined:
                raise ConfigError(
                    f"algo={self.algo!r} does not support pipelined I/O yet"
                )
            if self.chaos is not None:
                raise ConfigError(
                    f"algo={self.algo!r} does not support chaos injection yet"
                )
        merge_working = (self.n_runs * 2 + 4) * self.block_records * RECORD_BYTES
        if merge_working > self.memory_bytes + self.chunk_records * RECORD_BYTES:
            raise ConfigError(
                f"merge phase needs ~{merge_working} B of buffers for "
                f"R = {self.n_runs} runs but M = {self.memory_bytes:.0f}; "
                "raise memory_bytes or block granularity (the paper's "
                "N = O(M^2/(P B)) two-pass limit)"
            )

    # -- derived sizes (all in records unless noted) --------------------------

    @property
    def record_bytes(self) -> int:
        """Nominal bytes per record (sizing; exact only for fixed16)."""
        return RECORD_BYTES

    @property
    def varlen(self) -> bool:
        """Whether this job sorts variable-length records."""
        return self.records != "fixed16"

    @property
    def model(self):
        """The resolved :class:`~repro.native.records.RecordModel`."""
        from .records import resolve_model

        return resolve_model(self.records)

    @property
    def memory_bytes(self) -> int:
        mem = self.config.memory_bytes
        return int(mem) if mem is not None else DEFAULT_MEMORY_BYTES

    @property
    def block_records(self) -> int:
        return int(self.config.block_bytes) // RECORD_BYTES

    @property
    def records_per_worker(self) -> int:
        return int(self.config.data_per_node_bytes) // RECORD_BYTES

    @property
    def total_records(self) -> int:
        return self.records_per_worker * self.n_workers

    @property
    def input_blocks(self) -> int:
        return math.ceil(self.records_per_worker / self.block_records)

    @property
    def piece_blocks(self) -> int:
        """Input blocks per run chunk: M / 3 worth of blocks, at least one."""
        budget = self.memory_bytes // SORT_WORKING_COPIES
        return max(1, int(budget) // (self.block_records * RECORD_BYTES))

    @property
    def chunk_records(self) -> int:
        return self.piece_blocks * self.block_records

    @property
    def n_runs(self) -> int:
        return max(1, math.ceil(self.input_blocks / self.piece_blocks))

    @property
    def sample_every(self) -> int:
        """Sampling period K in records (default: one sample per block)."""
        k = self.config.sample_every
        return max(1, int(k) if k is not None else self.block_records)

    @property
    def selection_cache_blocks(self) -> int:
        """Probe-cache capacity: the configured LRU, bounded by memory."""
        by_memory = max(
            4, self.memory_bytes // (4 * self.block_records * RECORD_BYTES)
        )
        return int(min(self.config.selection_cache_blocks, by_memory))

    @property
    def ring_bytes(self) -> int:
        """Shm ring data capacity in bytes (transport default when unset)."""
        if self.shm_ring_kib is not None:
            return self.shm_ring_kib * 1024
        from .shm import DEFAULT_RING_BYTES

        return DEFAULT_RING_BYTES

    @property
    def checkpointing(self) -> bool:
        """Whether workers journal manifests for phase-boundary resume."""
        return self.checkpoint or self.max_restarts > 0

    @property
    def pipelined(self) -> bool:
        """Whether any part of the pipelined I/O layer is enabled."""
        return self.prefetch_blocks > 0 or self.write_behind_blocks > 0

    @property
    def write_behind_bytes(self) -> int:
        """Write-behind byte budget (0 when write-behind is off)."""
        return self.write_behind_blocks * self.block_records * RECORD_BYTES

    def worker_start(self, rank: int) -> int:
        """Global index of worker ``rank``'s first input record."""
        return rank * self.records_per_worker

    def describe(self) -> dict:
        """Config snapshot for JSON reports."""
        return {
            "n_workers": self.n_workers,
            "spill_dir": os.path.abspath(self.spill_dir),
            "record_bytes": RECORD_BYTES,
            "records_per_worker": self.records_per_worker,
            "total_records": self.total_records,
            "data_per_worker_bytes": self.records_per_worker * RECORD_BYTES,
            "memory_bytes": self.memory_bytes,
            "block_bytes": self.block_records * RECORD_BYTES,
            "block_records": self.block_records,
            "chunk_records": self.chunk_records,
            "n_runs": self.n_runs,
            "sample_every": self.sample_every,
            "selection": self.config.selection,
            "randomize": self.config.randomize,
            "seed": self.config.seed,
            "skew": self.skew,
            "transport": self.transport,
            "pending_sends": self.pending_sends,
            "timeout": self.timeout,
            "prefetch_blocks": self.prefetch_blocks,
            "write_behind_blocks": self.write_behind_blocks,
            "chaos": self.chaos is not None,
            "checkpoint": self.checkpointing,
            "max_restarts": self.max_restarts,
            "epoch": self.epoch,
            "job_tag": self.job_tag,
            "spill_namespace": self.spill_namespace,
            "records": self.records,
            "algo": self.algo,
            "shm_ring_kib": self.shm_ring_kib,
        }
