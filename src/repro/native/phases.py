"""The four CANONICALMERGESORT phases, executed on real files.

Each function here is the native twin of a module in :mod:`repro.core`
and reuses its backend-agnostic kernels:

=====================  ===================================  =========================
native phase           simulator twin                       shared kernels
=====================  ===================================  =========================
:func:`run_formation`  ``core.run_formation`` +             ``algos.multiway_selection
                       ``core.internal_sort``               .select_coroutine``,
                                                            ``sample_initial_positions``
:func:`selection`      ``core.selection_phase``             ``select_coroutine``,
                                                            ``select_bisect_coroutine``,
                                                            ``warm_start_from_samples``,
                                                            ``em.cache.LRUCache``
:func:`all_to_all`     ``core.all_to_all``                  (layout arithmetic only)
:func:`merge`          ``core.merge_phase``                 prediction sequence of
                                                            ``em.prefetch``
=====================  ===================================  =========================

The phase contracts are identical to the simulator's: globally sorted
runs with one local piece per PE after phase 1, an exact (P+1) × R
splitter matrix after phase 2, one sorted segment per run after phase 3
— an extent list over the rank's own piece file plus what its peers
sent it, see :class:`SegmentLayout` — and the canonical balanced output
after phase 4.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..algos.multiway_selection import (
    sample_initial_positions,
    select_bisect_coroutine,
    select_coroutine,
)
from ..core.selection_phase import _run_samples, warm_start_from_samples
from .blockstore import INDEX_TAG_SUFFIX, FileBlockStore
from .comm_api import Comm
from .job import NativeJob
from .pipeline import Prefetcher, WriteBehind, sequential_fetch_order
from .records import (
    RECORD_BYTES,
    bytes_view,
    concat_records,
    generate_records,
    merge_record_arrays,
    records_from_bytes,
    sort_records,
)
from .stats import WorkerStats

__all__ = [
    "NativeContext",
    "PieceMeta",
    "NativeRun",
    "OutputMeta",
    "generate_input",
    "run_formation",
    "restore_runs",
    "verify_restored_pieces",
    "selection",
    "Extent",
    "SegmentLayout",
    "segment_layouts",
    "piece_slice",
    "read_units",
    "reclaim_segments",
    "all_to_all",
    "merge",
]

_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass
class NativeContext:
    """Everything one worker's phases share."""

    rank: int
    job: NativeJob
    comm: Comm
    store: FileBlockStore
    stats: WorkerStats
    #: Order-independent checksum of this worker's input keys, accumulated
    #: while run formation streams the input (each record is read once).
    input_checksum: int = 0
    #: Recovery journal (:class:`repro.recovery.manifest.RankJournal`)
    #: when the job checkpoints; phases append durable records to it at
    #: their boundaries and at intra-phase watermarks.
    journal: Optional[object] = None
    #: Replayed manifest state (:class:`~repro.recovery.manifest.ResumeState`)
    #: when resuming an epoch > 0 attempt; None on a fresh run.
    resume: Optional[object] = None
    #: Per run, the first key of every block of this rank's piece file.
    #: Run formation holds each piece in memory when it writes it, so the
    #: merge's guide over the ranges that never leave the piece is free.
    piece_first_keys: List[np.ndarray] = field(default_factory=list)

    def _add_checksum(self, keys: np.ndarray) -> None:
        if len(keys):
            with np.errstate(over="ignore"):
                self.input_checksum = (
                    self.input_checksum + int(np.add.reduce(keys))
                ) & _MASK


@dataclass
class PieceMeta:
    """Descriptor of one worker's on-disk piece of one run.

    Attribute-compatible with the simulator's ``LocalRunPiece`` where the
    selection-phase helpers care (``sample_keys``, ``sample_every``,
    ``n_keys``), so ``core.selection_phase`` logic applies unchanged.
    """

    run: int
    rank: int
    n_records: int
    sample_keys: np.ndarray
    sample_every: int

    @property
    def n_keys(self) -> int:
        return self.n_records


class NativeRun:
    """A globally sorted run: one piece per worker, in rank order."""

    def __init__(self, run_id: int, pieces: List[PieceMeta]):
        self.run_id = run_id
        self.pieces = pieces
        self.offsets: List[int] = []
        acc = 0
        for piece in pieces:
            self.offsets.append(acc)
            acc += piece.n_records
        self.n_records = acc

    def locate(self, gpos: int) -> Tuple[int, int]:
        """Map a run-global record position to (rank, piece-local position)."""
        from bisect import bisect_right

        if not 0 <= gpos < self.n_records:
            raise IndexError(f"position {gpos} outside run of {self.n_records}")
        rank = bisect_right(self.offsets, gpos) - 1
        return rank, gpos - self.offsets[rank]

    def __len__(self) -> int:
        return self.n_records


@dataclass
class OutputMeta:
    """Streaming verification data of one rank's sorted output file."""

    rank: int
    path: str
    n_records: int
    first_key: Optional[int]
    last_key: Optional[int]
    checksum: int
    sorted_ok: bool


# --------------------------------------------------------------- phase 0


def generate_input(ctx: NativeContext) -> None:
    """Write this worker's gensort-style input slice (index order)."""
    job = ctx.job
    start = job.worker_start(ctx.rank)
    n = job.records_per_worker
    batch = max(job.block_records, job.chunk_records)
    path = ctx.store.input_path()
    with open(path, "wb") as handle:
        for s in range(0, n, batch):
            count = min(batch, n - s)
            records = generate_records(
                start + s, count, seed=job.config.seed, skew=job.skew
            )
            ctx.store.append_records(handle, records, tag="generate")


# --------------------------------------------------------------- phase 1

TAG_RF = "run_formation"

#: I/O issued only while re-validating state on a resume: bounded by the
#: suspect ranks' retained pieces, never a pass over the data.
TAG_RECOVERY = "recovery"


def _block_crcs(records: np.ndarray, block_records: int) -> List[int]:
    """CRC-32 of each block of an in-memory record array."""
    view = memoryview(np.ascontiguousarray(records)).cast("B")
    step = block_records * RECORD_BYTES
    return [
        zlib.crc32(view[s : s + step]) for s in range(0, len(view), step)
    ] if len(view) else []


def _meta_from_record(rec: dict, rank: int) -> PieceMeta:
    """Rebuild a PieceMeta from its manifest ``rf_run`` record."""
    return PieceMeta(
        run=int(rec["run"]),
        rank=rank,
        n_records=int(rec["n"]),
        sample_keys=np.asarray(rec["samples"], dtype=np.uint64),
        sample_every=int(rec["every"]),
    )


def _first_keys_from_record(rec: dict) -> np.ndarray:
    return np.asarray(rec["first_keys"], dtype=np.uint64)


def verify_restored_pieces(ctx: NativeContext, run_records: List[dict]) -> None:
    """CRC-check retained piece files against the manifest (suspects only).

    Raises :class:`IOError` on any damaged block — a suspect rank whose
    durable state did not survive its failure must not resume from it.
    """
    checked = 0
    for rec in run_records:
        path = ctx.store.piece_path(rec["run"])
        bad = ctx.store.verify_block_crcs(path, rec["crcs"], tag=TAG_RECOVERY)
        checked += len(rec["crcs"])
        if bad:
            raise IOError(
                f"rank {ctx.rank}: resume CRC mismatch in {path} at blocks "
                f"{bad[:8]}: the failure damaged this piece; cannot resume "
                "from it"
            )
    ctx.stats.add_counter("recovery_crc_blocks_verified", float(checked))


def restore_runs(ctx: NativeContext, resume) -> List[NativeRun]:
    """Rebuild the full run inventory from the manifest — zero data I/O.

    Every rank durably recorded ``rf_done`` before any rank passed the
    run-formation barrier, so on a resume past that barrier the piece
    metadata (and the input checksum) comes straight from the journal;
    the only communication is the same metadata allgather a fresh run
    formation ends with.
    """
    recs = [resume.rf_runs[r] for r in range(len(resume.rf_runs))]
    metas = [_meta_from_record(rec, ctx.rank) for rec in recs]
    all_metas: List[List[PieceMeta]] = ctx.comm.allgather(metas)
    ctx.input_checksum = resume.rf_checksum
    ctx.piece_first_keys = [_first_keys_from_record(rec) for rec in recs]
    ctx.stats.add_counter("recovery_phases_restored")
    ctx.stats.add_counter("recovery_rf_blocks_reread", 0.0)
    return [
        NativeRun(r, [all_metas[j][r] for j in range(ctx.job.n_workers)])
        for r in range(len(metas))
    ]


def _chunk_schedule(ctx: NativeContext) -> List[List[int]]:
    """Input block IDs per run chunk (randomized, elevator order within)."""
    job = ctx.job
    order = list(range(job.input_blocks))
    if job.config.randomize:
        rng = np.random.default_rng((job.config.seed, ctx.rank))
        rng.shuffle(order)
    piece = job.piece_blocks
    return [
        sorted(order[s : s + piece]) for s in range(0, len(order), piece)
    ]


def _distributed_sort_run(
    ctx: NativeContext, records: np.ndarray, run_id: int
) -> np.ndarray:
    """Globally sort one run; returns this rank's exact-quantile piece.

    The native execution of ``core.internal_sort.distributed_sort_run``:
    local sort (already done by the caller), exact splitting at the P
    quantiles via the paper's probe-based multiway selection running
    *between* the worker processes, a chunked all-to-all over the pipes,
    and a final P-way batch merge.
    """
    job, comm, rank = ctx.job, ctx.comm, ctx.rank
    n_workers = job.n_workers
    if n_workers == 1:
        return records

    keys = records["key"]
    lengths: List[int] = comm.allgather(len(records))
    total = sum(lengths)
    target = rank * total // n_workers

    # Sample warm start (Appendix B), then the exact probe selection.
    samples = [np.asarray(s) for s in comm.allgather(keys[:: job.sample_every].copy())]
    init_pos, init_step = sample_initial_positions(
        samples, job.sample_every, target, lengths
    )
    gen = select_coroutine(
        lengths, target, init_positions=init_pos, init_step=init_step
    )
    result = comm.selection_round(
        gen,
        local_lookup=lambda pos: int(keys[pos]),
        owner_of=lambda seq: seq,
    )
    ctx.stats.add_counter("internal_selection_touches", result.touches)

    positions: List[List[int]] = comm.allgather(result.positions)
    positions.append(list(lengths))

    # Chunked all-to-all: slice [positions[d][rank], positions[d+1][rank])
    # goes to destination d, in block-sized chunks.
    block = job.block_records
    received: Dict[int, List[Tuple[int, bytes]]] = {
        j: [] for j in range(n_workers)
    }
    recv_bytes = 0

    def outgoing():
        for dest in range(n_workers):
            lo = positions[dest][rank]
            hi = positions[dest + 1][rank]
            for k, s in enumerate(range(lo, hi, block)):
                # A view, not a copy: the exchange's final flush+barrier
                # keeps ``records`` alive until every chunk is on the
                # wire, so shm and TCP sends stay zero-copy end to end.
                chunk = records[s : min(s + block, hi)]
                yield dest, ("rfx", run_id, k, bytes_view(chunk))

    def on_chunk(peer: int, payload: tuple) -> None:
        nonlocal recv_bytes
        kind, rid, k, buf = payload
        assert kind == "rfx" and rid == run_id
        received[peer].append((k, buf))
        recv_bytes += len(buf)

    comm.exchange(outgoing(), on_chunk)
    ctx.stats.note_resident(records.nbytes + recv_bytes)
    del records, keys  # the chunk's memory is no longer needed

    parts = []
    for sender in range(n_workers):
        bufs = [buf for _k, buf in sorted(received[sender])]
        received[sender] = []
        if bufs:
            parts.append(
                concat_records([records_from_bytes(b) for b in bufs])
                if len(bufs) > 1
                else records_from_bytes(bufs[0])
            )
    merged = merge_record_arrays(parts)
    ctx.stats.note_resident(2 * merged.nbytes)
    ctx.stats.add_counter("internal_sort_sent_records", sum(lengths) // n_workers)
    return merged


def run_formation(ctx: NativeContext) -> List[NativeRun]:
    """Phase 1: form R globally sorted runs, one local piece file each.

    With write-behind enabled, the spill of each finished piece file is
    handed to a background writer so the next chunk's read + sort overlap
    the previous piece's write — the paper's overlapping of run formation
    I/O with internal work.  The buffer is flushed (and any deferred
    write error raised here) *before* the piece metadata is allgathered:
    peers read the piece files during selection, so a piece must be
    durable before its existence is announced.
    """
    job, comm, store = ctx.job, ctx.comm, ctx.store
    chunks = _chunk_schedule(ctx)
    n_runs = comm.allreduce(len(chunks), max)
    input_path = store.input_path()

    # Mid-phase resume: agree on the longest run prefix *every* rank has
    # durably completed, restore those runs from the manifest (no input
    # re-reads), and redo only the tail.  The reread counter is honest:
    # it counts input blocks this rank reads again for runs it had
    # already finished but a slower rank had not.
    journal = ctx.journal
    restored: Dict[int, dict] = {}
    k = 0
    if journal is not None and job.epoch > 0:
        if ctx.resume is not None:
            restored = ctx.resume.rf_runs
        own = 0
        while own in restored:
            own += 1
        k = min(comm.allgather(own))
        reread = sum(len(chunks[r]) for r in range(k, min(own, len(chunks))))
        ctx.stats.add_counter("recovery_rf_blocks_reread", float(reread))

    metas: List[PieceMeta] = []
    run_records: List[dict] = []
    ctx.piece_first_keys = []
    for r in range(k):
        metas.append(_meta_from_record(restored[r], ctx.rank))
        run_records.append(restored[r])
        ctx.input_checksum = restored[r]["checksum"]
        ctx.piece_first_keys.append(_first_keys_from_record(restored[r]))
    if k:
        ctx.stats.add_counter("recovery_runs_restored", float(k))
        if ctx.rank in getattr(job, "suspect_ranks", ()):
            verify_restored_pieces(ctx, run_records)

    wb: Optional[WriteBehind] = None
    if job.write_behind_blocks > 0:
        wb = WriteBehind(
            store, TAG_RF, max(job.write_behind_bytes, 1), stats=ctx.stats
        )
    try:
        for r in range(k, n_runs):
            block_ids = chunks[r] if r < len(chunks) else []
            # Scatter read: every block lands directly in its slice of
            # the chunk's sort buffer (no per-block arrays, no
            # concatenate) — one coalesced positioned read per run of
            # consecutive block IDs.
            records = store.read_blocks(input_path, block_ids, TAG_RF)
            ctx._add_checksum(records["key"])
            ctx.stats.note_resident(
                2 * records.nbytes + (wb.queued_bytes() if wb else 0)
            )
            records = sort_records(records)

            piece = _distributed_sort_run(ctx, records, run_id=r)
            del records

            if wb is not None:
                wb.write_file(store.piece_path(r), piece)
            else:
                store.write_file(store.piece_path(r), piece, TAG_RF)
            sample = np.ascontiguousarray(piece["key"][:: job.sample_every])
            first_keys = np.ascontiguousarray(piece["key"][:: job.block_records])
            ctx.piece_first_keys.append(first_keys)
            metas.append(
                PieceMeta(
                    run=r,
                    rank=ctx.rank,
                    n_records=len(piece),
                    sample_keys=sample,
                    sample_every=job.sample_every,
                )
            )
            if journal is not None:
                rec = {
                    "run": r,
                    "n": len(piece),
                    "samples": [int(s) for s in sample],
                    "every": job.sample_every,
                    "crcs": _block_crcs(piece, job.block_records),
                    "first_keys": [int(k) for k in first_keys],
                    "checksum": ctx.input_checksum,
                }
                run_records.append(rec)
                if wb is None:
                    # The piece hit the disk synchronously above, so its
                    # completion may be journaled now; under write-behind
                    # it is only durable after wb.close(), so per-run
                    # records are skipped and rf_done covers them all.
                    journal.rf_run_done(rec)
            del piece
        if wb is not None:
            wb.close()
            wb = None
    finally:
        if wb is not None:  # error path: stop the thread, keep the exception
            wb.close(raise_error=False)
    ctx.stats.add_counter("runs_formed", len(metas) - k)
    if journal is not None:
        journal.rf_done(run_records, ctx.input_checksum)

    all_metas: List[List[PieceMeta]] = comm.allgather(metas)
    return [
        NativeRun(r, [all_metas[j][r] for j in range(job.n_workers)])
        for r in range(n_runs)
    ]


# --------------------------------------------------------------- phase 2

TAG_SEL = "selection"


def selection(ctx: NativeContext, runs: List[NativeRun]) -> List[List[int]]:
    """Phase 2: exact splitters for this rank; returns the full matrix.

    Probes are answered by block reads against the piece *files* of any
    worker — the spill directory is the shared medium, so a remote probe
    is a real disk access exactly as in the paper, and the LRU cache
    removes the ``R log B`` re-touches.  Returns ``splits`` with P+1
    rows: row i is where rank i's output starts in every run, row P holds
    the run lengths.
    """
    job, comm, store = ctx.job, ctx.comm, ctx.store
    lengths = [run.n_records for run in runs]
    total = sum(lengths)
    target = ctx.rank * total // job.n_workers

    if job.config.selection == "sampled":
        init_pos, init_step = warm_start_from_samples(
            _run_samples(runs), target, lengths, job.sample_every
        )
        gen = select_coroutine(
            lengths, target, init_positions=init_pos, init_step=init_step
        )
    elif job.config.selection == "basic":
        gen = select_coroutine(lengths, target)
    else:
        gen = select_bisect_coroutine(lengths, target)

    cache = store.probe_cache(job.selection_cache_blocks)
    try:
        request = next(gen)
        while True:
            r, gpos = request
            owner, lpos = runs[r].locate(gpos)
            if owner != ctx.rank:
                ctx.stats.add_counter("selection_remote_probes")
            key = cache.key_at(store.piece_path(r, owner), lpos, TAG_SEL)
            request = gen.send(key)
    except StopIteration as stop:
        result = stop.value

    ctx.stats.add_counter("selection_touches", result.touches)
    ctx.stats.add_counter("selection_block_reads", cache.block_reads)
    ctx.stats.add_counter("selection_cache_hits", cache.hits)
    ctx.stats.add_counter(
        "selection_fixup_swaps", getattr(result, "fixup_swaps", 0)
    )

    all_positions: List[List[int]] = comm.allgather(list(result.positions))
    splits = [list(p) for p in all_positions]
    splits.append(list(lengths))
    if ctx.journal is not None:
        # The full matrix is deterministic and identical on every rank;
        # journaling it locally makes the phase restorable without any
        # re-probing (zero I/O on resume).
        ctx.journal.selection_done(splits)
    return splits


# --------------------------------------------------------------- phase 3

TAG_A2A = "all_to_all"


class Extent(NamedTuple):
    """``count`` records of file ``path``, from record ``start``."""

    path: str
    start: int
    count: int


class SegmentLayout(NamedTuple):
    """Where one rank's segment of one run lives after the all-to-all.

    The segment is the part of the run inside the rank's splitter span,
    in run order: what lower ranks sent (``lower`` records, at the front
    of the run's slab file), the range of the rank's *own piece file*
    inside the span (``kept`` records from record ``keep_start``; the
    all-to-all neither reads nor rewrites it), and what higher ranks
    sent (``upper`` records, behind the lower ones in the slab file).
    """

    lower: int
    keep_start: int
    kept: int
    upper: int

    @property
    def n_records(self) -> int:
        return self.lower + self.kept + self.upper

    def extents(self, store: FileBlockStore, run: int) -> List[Extent]:
        """The segment as its non-empty extents, in run order."""
        slab, piece = store.slab_path(run), store.piece_path(run)
        parts = (
            Extent(slab, 0, self.lower),
            Extent(piece, self.keep_start, self.kept),
            Extent(slab, self.lower, self.upper),
        )
        return [part for part in parts if part.count]


def piece_slice(
    run: NativeRun, splits: Sequence[Sequence[int]], r: int, sender: int,
    dest: int,
) -> Tuple[int, int]:
    """The part of ``sender``'s piece of run ``r`` inside ``dest``'s span.

    Returns ``(lo, hi)``, piece-local record positions, ``lo <= hi``.
    """
    offset = run.offsets[sender]
    n = run.pieces[sender].n_records
    lo = min(n, max(0, splits[dest][r] - offset))
    hi = max(lo, min(n, splits[dest + 1][r] - offset))
    return lo, hi


def segment_layouts(
    runs: List[NativeRun], splits: Sequence[Sequence[int]], rank: int
) -> Tuple[List[SegmentLayout], List[List[int]]]:
    """Where rank ``rank``'s segment of every run lives, from the splitters.

    Returns ``(layouts, slab_base)``: one :class:`SegmentLayout` per run,
    and per run the P + 1 record offsets at which the senders'
    contributions start in the run's slab file — rank order is run
    order, the own rank contributes nothing, the last entry is the
    slab's length.  Pure arithmetic on the run inventory and the
    splitter matrix — the one place both record models derive who keeps
    and who ships what.
    """
    n_workers = len(splits) - 1
    layouts: List[SegmentLayout] = []
    slab_base: List[List[int]] = []
    for r, run in enumerate(runs):
        counts = []
        for sender in range(n_workers):
            lo, hi = piece_slice(run, splits, r, sender, rank)
            counts.append(hi - lo)
            if sender == rank:
                keep_start = lo
        layout = SegmentLayout(
            lower=sum(counts[:rank]),
            keep_start=keep_start,
            kept=counts[rank],
            upper=sum(counts[rank + 1 :]),
        )
        span = splits[rank + 1][r] - splits[rank][r]
        if layout.n_records != span:
            raise AssertionError(
                f"run {r}: segment layout {layout.n_records} != splitter "
                f"span {span}"
            )
        counts[rank] = 0
        layouts.append(layout)
        slab_base.append([sum(counts[:j]) for j in range(n_workers + 1)])
    return layouts, slab_base


def read_units(extents: Sequence[Extent], block: int) -> List[Extent]:
    """Cut a segment's extents on their files' B-grids.

    These are the merge's read units: every unit lies inside one block
    of its file, so a kept range is cut exactly where run formation
    recorded block-first keys, and only its first unit can start off the
    grid.
    """
    units: List[Extent] = []
    for path, start, count in extents:
        stop = start + count
        while start < stop:
            nxt = min(stop, (start // block + 1) * block)
            units.append(Extent(path, start, nxt - start))
            start = nxt
    return units


def reclaim_segments(store: FileBlockStore, n_runs: int) -> None:
    """Delete the merge's input, pieces and slabs, once its output is durable.

    Idempotent: a resumed or rerun attempt may find some already gone.
    """
    for r in range(n_runs):
        store.remove(store.piece_path(r))
        store.remove(store.slab_path(r))


def all_to_all(
    ctx: NativeContext, runs: List[NativeRun], splits: List[List[int]]
) -> Tuple[List[List[Extent]], List[List[Optional[int]]]]:
    """Phase 3: the in-place external all-to-all (paper Section IV-C/E).

    After exact selection almost everything a rank has to merge already
    sits in its own piece files, so only what changes owner moves: each
    worker streams the ranges of its pieces that lie inside *another*
    rank's splitter span, in block-sized chunks, and places what it
    receives in one slab file per run (arrivals are written at
    precomputed record offsets, lower senders first, so a slab is sorted
    as it lands).  The range of a piece inside the rank's own span is
    not read, not sent to itself and not rewritten; the segment is the
    extent list of :meth:`SegmentLayout.extents`.  The phase's disk
    traffic is 2 x (bytes that change rank) — o(N) on randomized input,
    which is what makes the sort two passes, 4N + o(N).

    Returns ``(segments, first_keys)``: per run the segment's extents
    and the first key of every unit :func:`read_units` cuts them into —
    the merge's prediction sequence (Appendix A).  Slab units are
    harvested from the arriving chunks and kept units come from the
    block-first keys run formation recorded, both with zero I/O; only a
    kept range that starts inside a block leaves its first key unknown
    (``None``), for the merge to find with one single-record index read.

    With ``job.prefetch_blocks > 0`` the piece reads feeding the send
    stream run on background threads (the send order is the prediction
    sequence of this phase, so :func:`sequential_fetch_order` applies);
    with ``job.write_behind_blocks > 0`` the positioned slab writes are
    deferred to a writer thread and flushed before the phase ends.
    """
    job, comm, store, rank = ctx.job, ctx.comm, ctx.store, ctx.rank
    n_workers = job.n_workers
    block = job.block_records
    read_before = store.bytes_read.get(TAG_A2A, 0)
    written_before = store.bytes_written.get(TAG_A2A, 0)

    # Receiver side: sender j's records land in the run's slab behind
    # those of senders 0..j-1 (global order), own rank skipped.
    layouts, slab_base = segment_layouts(runs, splits, rank)

    # Resume bookkeeping: the contiguous chunk count already delivered
    # per (run, sender) channel, agreed across all ranks so every sender
    # can skip exactly the chunks its receiver durably holds.  The
    # allgather runs whenever a journal exists (it is a no-op list of
    # empties on a fresh epoch), keeping the collective schedule
    # identical on every rank.
    journal = ctx.journal
    marks: Dict[Tuple[int, int], int] = {}
    #: Per run, slab record position -> key of the record there, for the
    #: positions where a read unit of the slab starts.
    slab_keys: List[Dict[int, int]] = [dict() for _ in runs]
    if journal is not None and job.epoch > 0 and ctx.resume is not None:
        marks = dict(ctx.resume.a2a_marks)
        for (r, pos), key in ctx.resume.a2a_first_keys.items():
            if r < len(slab_keys):
                slab_keys[r][pos] = key
    all_marks: Optional[List[Dict[Tuple[int, int], int]]] = None
    if journal is not None:
        gathered = comm.allgather([[r, s, c] for (r, s), c in marks.items()])
        all_marks = [
            {(r, s): c for r, s, c in entry} for entry in gathered
        ]
    held = sum(
        min(chunks * block, slab_base[r][sender + 1] - slab_base[r][sender])
        for (r, sender), chunks in marks.items()
    )

    handles: Dict[int, object] = {}
    for r, layout in enumerate(layouts):
        if layout.lower + layout.upper:
            path = store.slab_path(r)
            # preallocate is size-idempotent: on resume the bytes
            # delivered before the restart survive in place.
            store.preallocate(path, layout.lower + layout.upper)
            handles[r] = open(path, "r+b")

    # The exact (run, piece-offset, count) read sequence of the send
    # stream, precomputed so a prefetcher can run ahead of the pipes.
    # Chunks a receiver already journaled are dropped here — the chunk
    # index k keeps its fresh-run numbering, so every surviving arrival
    # lands at the same absolute offset it would have on a clean run.
    send_plan: List[Tuple[int, int, int, int, int]] = []  # (dest, run, k, start, count)
    skipped = 0
    for r, run in enumerate(runs):
        for dest in range(n_workers):
            if dest == rank:
                continue
            lo, hi = piece_slice(run, splits, r, rank, dest)
            for chunk_k, s in enumerate(range(lo, hi, block)):
                if (
                    all_marks is not None
                    and chunk_k < all_marks[dest].get((r, rank), 0)
                ):
                    skipped += 1
                    continue
                send_plan.append((dest, r, chunk_k, s, min(block, hi - s)))
    if skipped:
        ctx.stats.add_counter("recovery_chunks_skipped", float(skipped))

    prefetcher: Optional[Prefetcher] = None
    if job.prefetch_blocks > 0 and send_plan:
        requests = [
            (store.piece_path(r), s, count) for _d, r, _k, s, count in send_plan
        ]
        order = sequential_fetch_order(
            [r for _d, r, _k, _s, _c in send_plan], job.prefetch_blocks
        )
        prefetcher = Prefetcher(
            store, requests, order, TAG_A2A, job.prefetch_blocks,
            stats=ctx.stats,
        )

    wb: Optional[WriteBehind] = None
    if job.write_behind_blocks > 0:
        wb = WriteBehind(
            store, TAG_A2A, max(job.write_behind_bytes, 1), stats=ctx.stats
        )

    # The chunk index k of each send rides in the plan (see above), so
    # the receiver's offset arithmetic is identical whether or not a
    # prefix of the stream was skipped on resume.
    def outgoing():
        for idx, (dest, r, chunk_k, s, count) in enumerate(send_plan):
            if prefetcher is not None:
                chunk = prefetcher.get(idx)
            else:
                chunk = store.read_range(store.piece_path(r), s, count, TAG_A2A)
            yield dest, ("a2a", r, chunk_k, bytes_view(chunk))

    # Harvest the merge's prediction sequence from the arriving bytes:
    # each chunk lands at a known record offset of the slab, so every
    # read-unit start it covers (the slab's block grid, plus the first
    # record from a higher rank) yields that unit's first key.
    # ``slab_keys`` was preloaded above with keys journaled before a
    # restart (their chunks are skipped and never re-arrive).
    chaos = getattr(job, "chaos", None)
    chunk_hook = getattr(chaos, "on_a2a_chunk", None)
    watermark_every = max(1, int(getattr(job, "a2a_checkpoint_chunks", 8)))
    new_keys: Dict[Tuple[int, int], int] = {}
    arrivals = 0
    received = 0

    def flush_watermark() -> None:
        # Durability order matters: slab bytes first, then the marks
        # that claim them.  A crash between the two only under-claims —
        # the unclaimed chunks are simply re-sent and rewritten in place.
        for handle in handles.values():
            handle.flush()
            os.fsync(handle.fileno())
        journal.a2a_mark(marks, new_keys)
        new_keys.clear()

    def on_chunk(peer: int, payload: tuple) -> None:
        nonlocal arrivals, received
        kind, r, k, buf = payload
        assert kind == "a2a" and peer != rank
        offset = slab_base[r][peer] + k * block
        n_recs = len(buf) // RECORD_BYTES
        starts = list(range(-(-offset // block) * block, offset + n_recs, block))
        if offset <= layouts[r].lower < offset + n_recs:
            starts.append(layouts[r].lower)
        for pos in starts:
            key = struct.unpack_from("<Q", buf, (pos - offset) * RECORD_BYTES)[0]
            slab_keys[r][pos] = key
            if journal is not None:
                new_keys[(r, pos)] = key
        if wb is not None:
            wb.write_at(handles[r], offset, buf)
        else:
            store.write_at(handles[r], offset, buf, TAG_A2A)
        arrivals += 1
        received += n_recs
        if journal is not None:
            # Per-channel FIFO + ascending k per (run, dest) make k+1 the
            # contiguous delivered count for this channel.
            marks[(r, peer)] = max(marks.get((r, peer), 0), k + 1)
            # Intra-phase watermarks need the bytes on disk before the
            # marks; under write-behind the writes are still in flight,
            # so watermarking is disabled and resume falls back to the
            # phase boundary (documented in docs/RECOVERY.md).
            if wb is None and arrivals % watermark_every == 0:
                flush_watermark()
        if chunk_hook is not None:
            chunk_hook(rank, arrivals)

    try:
        comm.exchange(outgoing(), on_chunk)
        if wb is not None:
            wb.close()
            wb = None
    finally:
        if prefetcher is not None:
            prefetcher.close()
        if wb is not None:  # error path
            wb.close(raise_error=False)
        for handle in handles.values():
            handle.close()

    # The volume identities, checked on every run, not only under the
    # conformance harness: everything this rank's spans need is either
    # kept or received, and the phase read exactly what it sent and
    # wrote exactly what arrived — the kept ranges were never touched.
    moved_in = sum(layout.lower + layout.upper for layout in layouts)
    sent = sum(count for _d, _r, _k, _s, count in send_plan)
    read = store.bytes_read.get(TAG_A2A, 0) - read_before
    written = store.bytes_written.get(TAG_A2A, 0) - written_before
    if (
        held + received != moved_in
        or read != sent * RECORD_BYTES
        or written != received * RECORD_BYTES
    ):
        raise AssertionError(
            f"rank {rank}: all-to-all volume identity broken: received "
            f"{received} (+{held} held from before a restart) of {moved_in} "
            f"records due; read {read} bytes for {sent} records sent, wrote "
            f"{written} bytes for {received} records received"
        )
    kept = sum(layout.kept for layout in layouts)
    ctx.stats.add_counter("a2a_kept_bytes", float(kept * RECORD_BYTES))

    segments = [layout.extents(store, r) for r, layout in enumerate(layouts)]
    first_keys: List[List[Optional[int]]] = []
    for r, extents in enumerate(segments):
        slab = store.slab_path(r)
        piece_keys = ctx.piece_first_keys[r]
        keys: List[Optional[int]] = []
        for path, start, _count in read_units(extents, block):
            if path == slab:
                if start not in slab_keys[r]:
                    raise AssertionError(
                        f"run {r}: no first key harvested for the slab "
                        f"unit at record {start}"
                    )
                keys.append(slab_keys[r][start])
            elif start % block == 0:
                keys.append(int(piece_keys[start // block]))
            else:
                keys.append(None)
        first_keys.append(keys)

    if journal is not None:
        journal.a2a_done(layouts, first_keys)

    ctx.stats.note_resident(
        (2 + 4 + job.prefetch_blocks + job.write_behind_blocks)
        * block
        * RECORD_BYTES
    )
    return segments, first_keys


# --------------------------------------------------------------- phase 4

TAG_MERGE = "merge"


def _coalesce(units: Sequence[Extent]) -> List[Extent]:
    """Join units that are adjacent in the same file into single reads."""
    spans: List[Extent] = []
    for unit in units:
        last = spans[-1] if spans else None
        if (
            last is not None
            and last.path == unit.path
            and last.start + last.count == unit.start
        ):
            spans[-1] = Extent(last.path, last.start, last.count + unit.count)
        else:
            spans.append(unit)
    return spans


def _read_exactly(store: FileBlockStore, span: Extent) -> np.ndarray:
    records = store.read_range(span.path, span.start, span.count, TAG_MERGE)
    if len(records) != span.count:
        raise IOError(
            f"{span.path}: short read at record {span.start} "
            f"({len(records)} of {span.count})"
        )
    return records


def merge(
    ctx: NativeContext,
    segments: List[List[Extent]],
    first_keys: Optional[List[List[Optional[int]]]] = None,
) -> OutputMeta:
    """Phase 4: R-way merge of the segments into the final output.

    A prediction-sequence batch merge (paper Section III / Appendix A;
    Hagerup's Guidesort is the same idea).  A segment is an extent list
    (:class:`SegmentLayout`); :func:`read_units` cuts it into units of at
    most one block, and the guide is every unit's ``(first_key, run,
    unit)`` triple in sorted order — the order the merge needs them in,
    known in advance because the all-to-all and run formation harvested
    the first keys for free.  Each round loads the next G units of the
    guide with one coalesced read per run and extent, cuts every run's
    buffered records against the first triple still on disk,
    ``(k*, r*, u*)``: runs ``r <= r*`` give up their keys ``<= k*``, runs
    ``r > r*`` their keys ``< k*`` — exactly the records that precede
    everything unread in (key, run, position) order.  The cuts are
    concatenated in run order, stable-sorted once and emitted once, so
    the output is the stable merge of the segments however they are cut
    into extents, blocks and batches.  What a run keeps (the carry) lies
    in its last loaded unit, because that unit's own triple already
    sorted below ``(k*, r*, u*)``.

    G is ``piece_blocks - R`` (at least one): batch plus carry never
    exceed the M/3 chunk run formation sorts.  Verification happens in
    stream: sortedness, count, first/last key and the valsort checksum
    are computed as the output is written.

    A first key the caller does not know (``None``; all of them when
    ``first_keys`` is omitted) is probed with a single-record read under
    the ``merge:index`` tag — bookkeeping, charged like a varlen index so
    the phase's data bytes stay exactly the segment bytes.  After a real
    all-to-all that is at most one probe per run: the kept range's first
    unit, when it starts inside a block.

    With ``job.prefetch_blocks > 0`` background threads fetch the guide's
    units ahead of the merge (the guide *is* the consumption order, so
    :func:`sequential_fetch_order` applies); output writes go through a
    bounded write-behind buffer when ``job.write_behind_blocks > 0``.
    Both layers are bitwise-transparent.
    """
    job, store, rank = ctx.job, ctx.store, ctx.rank
    block = job.block_records
    units = [read_units(extents, block) for extents in segments]
    guide = []
    for r, run_units in enumerate(units):
        for u, (path, start, _count) in enumerate(run_units):
            key = first_keys[r][u] if first_keys is not None else None
            if key is None:
                key = int(store.read_range(
                    path, start, 1, TAG_MERGE + INDEX_TAG_SUFFIX
                )["key"][0])
            guide.append((key, r, u))
    guide.sort()
    per_round = max(1, job.piece_blocks - len(segments))

    out_path = store.output_path()
    checksum = 0
    count = 0
    marked = 0
    first_key: Optional[int] = None
    last_key: Optional[int] = None
    sorted_ok = True
    prefetcher: Optional[Prefetcher] = None
    wb: Optional[WriteBehind] = None
    journal = ctx.journal

    try:
        if job.prefetch_blocks > 0 and guide:
            prefetcher = Prefetcher(
                store,
                [tuple(units[r][u]) for _key, r, u in guide],
                sequential_fetch_order(
                    [r for _key, r, _u in guide], job.prefetch_blocks
                ),
                TAG_MERGE, job.prefetch_blocks, stats=ctx.stats,
            )
        with open(out_path, "wb") as out:
            if job.write_behind_blocks > 0:
                wb = WriteBehind(
                    store, TAG_MERGE, job.write_behind_bytes, stats=ctx.stats
                )

            def emit(batch: np.ndarray) -> None:
                nonlocal checksum, count, marked, first_key, last_key, sorted_ok
                if not len(batch):
                    return
                keys = batch["key"]
                if len(keys) > 1 and not bool(np.all(keys[:-1] <= keys[1:])):
                    sorted_ok = False
                if last_key is not None and int(keys[0]) < last_key:
                    sorted_ok = False
                if first_key is None:
                    first_key = int(keys[0])
                last_key = int(keys[-1])
                with np.errstate(over="ignore"):
                    checksum = (checksum + int(np.add.reduce(keys))) & _MASK
                count += len(batch)
                if wb is not None:
                    # Budget-sized slices: the buffer's bound stays the
                    # knob's, not the batch's.
                    step = job.write_behind_blocks * block
                    for s in range(0, len(batch), step):
                        wb.append(out, batch[s : s + step])
                else:
                    store.append_records(out, batch, TAG_MERGE)
                if journal is not None and count - marked >= 128 * block:
                    # Output-offset watermark: pure observability (a
                    # resumed merge restarts from the segments, which is
                    # already o(N)); it shows how far a crashed merge got.
                    journal.merge_mark(count)
                    marked = count

            #: Loaded but not yet emittable records, per run (non-empty only).
            carry: Dict[int, np.ndarray] = {}
            for lo in range(0, len(guide), per_round):
                hi = min(lo + per_round, len(guide))
                fresh: Dict[int, List[np.ndarray]] = {}
                if prefetcher is not None:
                    for idx in range(lo, hi):
                        fresh.setdefault(guide[idx][1], []).append(
                            prefetcher.get(idx)
                        )
                else:
                    # First keys ascend within a run, so a run's units
                    # of this batch are consecutive: one coalesced read
                    # per extent they touch.
                    wanted: Dict[int, List[int]] = {}
                    for _key, r, u in guide[lo:hi]:
                        wanted.setdefault(r, []).append(u)
                    for r, ids in wanted.items():
                        fresh[r] = [
                            _read_exactly(store, span)
                            for span in _coalesce(units[r][ids[0] : ids[-1] + 1])
                        ]

                bound = guide[hi] if hi < len(guide) else None
                parts: List[np.ndarray] = []
                held = 0
                for r in sorted(carry.keys() | fresh.keys()):
                    pieces = fresh.get(r, [])
                    if r in carry:
                        pieces = [carry.pop(r)] + pieces
                    buf = pieces[0] if len(pieces) == 1 else concat_records(pieces)
                    held += len(buf)
                    cut = len(buf)
                    if bound is not None:
                        # The carry lies in the last loaded block: only
                        # that tail of the buffer needs searching.
                        tail = buf["key"][-block:]
                        cut += int(np.searchsorted(
                            tail, bound[0],
                            side="right" if r <= bound[1] else "left",
                        )) - len(tail)
                    if cut:
                        parts.append(buf[:cut])
                    if cut < len(buf):
                        # Copy out of a freshly loaded batch so the carry
                        # pins at most its own block, not the batch.
                        carry[r] = buf[cut:].copy() if r in fresh else buf[cut:]
                batch = merge_record_arrays(parts)
                ctx.stats.note_resident(
                    held * RECORD_BYTES
                    + 2 * batch.nbytes
                    + (prefetcher.buffered_bytes() if prefetcher else 0)
                    + (wb.queued_bytes() if wb else 0)
                )
                emit(batch)

            if wb is not None:
                wb.close()  # flush inside the with-block: out must stay open
                wb = None
    finally:
        if prefetcher is not None:
            prefetcher.close()
        if wb is not None:  # error path
            wb.close(raise_error=False)

    meta = OutputMeta(
        rank=rank,
        path=out_path,
        n_records=count,
        first_key=first_key,
        last_key=last_key,
        checksum=checksum & _MASK,
        sorted_ok=sorted_ok,
    )
    if journal is not None:
        # Journal completion before reclaiming the pieces and slabs: a
        # crash after this record restores the output metadata without
        # touching a byte; a crash before it still finds every extent
        # in place.
        journal.merge_done({
            "rank": meta.rank,
            "path": meta.path,
            "n_records": meta.n_records,
            "first_key": meta.first_key,
            "last_key": meta.last_key,
            "checksum": meta.checksum,
            "sorted_ok": meta.sorted_ok,
        })
    reclaim_segments(store, len(segments))
    return meta
