"""The four CANONICALMERGESORT phases, executed on real files.

Each function here is the native twin of a module in :mod:`repro.core`
and reuses its backend-agnostic kernels:

=====================  ===================================  =========================
native phase           simulator twin                       shared kernels
=====================  ===================================  =========================
:func:`run_formation`  ``core.run_formation`` +             ``algos.multiway_selection
                       ``core.internal_sort``               .sample_windows``,
                                                            ``select_in_windows``
:func:`selection`      ``core.selection_phase``             the same two, over the
                                                            R·P pieces (both phases
                                                            call :func:`exact_splits`)
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

The phases are written once for every record format: whatever depends on
the format (sorting and merging parts, their keys, the wire encoding,
the checksum) is a method of the job's
:class:`~repro.native.records.RecordModel`, ``ctx.model``, and parts
are read and written through ``ctx.store``, built with the same model.
Positions, splitters, segment layouts, read units and the merge's guide
are record counts for both models; bytes appear only where the store
reports them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..algos.multiway_selection import sample_windows, select_in_windows
from ..core.stats import WorkerStats
from .blockstore import INDEX_TAG_SUFFIX, FileBlockStore
from .comm_api import Comm
from .job import NativeJob
from .pipeline import Prefetcher, WriteBehind, sequential_fetch_order
from .records import RECORD_BYTES, RecordBuffers, RecordModel

__all__ = [
    "NativeContext",
    "PieceMeta",
    "NativeRun",
    "OutputMeta",
    "generate_input",
    "run_formation",
    "exact_splits",
    "restore_runs",
    "block_crcs",
    "damaged_blocks",
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
    #: their boundaries (and run formation once per run), every key as
    #: the model's ``key_to_json``.
    journal: Optional[object] = None
    #: Replayed manifest state (:class:`~repro.recovery.manifest.ResumeState`)
    #: when resuming an epoch > 0 attempt; None on a fresh run.
    resume: Optional[object] = None
    #: The fixed buffer set (:class:`~repro.native.records.RecordBuffers`)
    #: every run and every merge round reuses; allocated once, on first
    #: use (:meth:`buffers`).
    _buffers: Optional[RecordBuffers] = None

    def buffers(self) -> RecordBuffers:
        """The fixed set, ``chunk_records`` each — or the rank's share of
        the input when that is smaller: no run's read or piece and no
        merge round holds more, and a small job with a large M must not
        fault in M-sized buffers."""
        if self._buffers is None:
            job = self.job
            self._buffers = self.model.buffers(
                min(job.chunk_records, job.records_per_worker)
            )
        return self._buffers

    @property
    def model(self) -> RecordModel:
        return self.job.model

    def add_checksum(self, part) -> None:
        self.input_checksum = self.model.checksum(part, self.input_checksum)


@dataclass
class PieceMeta:
    """Descriptor of one worker's on-disk piece of one run.

    ``first_keys`` holds the first key of every block of the piece, in
    the record model's ``encode_keys`` form: a key array for fixed16, LCP
    front-coded bytes for strings.  The one list serves as both of the
    paper's per-block key lists: Appendix B's sample of every K-th key at
    K = B, which bounds phase 2's splits, and Appendix A's prediction
    sequence, the merge's guide over the ranges that never leave the
    piece.
    """

    run: int
    rank: int
    n_records: int
    first_keys: object


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
    first_key: Optional[object]
    last_key: Optional[object]
    checksum: int
    sorted_ok: bool


# --------------------------------------------------------------- phase 0


def generate_input(ctx: NativeContext) -> None:
    """Write this worker's gensort-style input slice (index order)."""
    job, model = ctx.job, ctx.model
    start = job.worker_start(ctx.rank)
    n = job.records_per_worker
    batch = max(job.block_records, job.chunk_records)
    out = ctx.store.appender(ctx.store.input_path(), "generate")
    try:
        for s in range(0, n, batch):
            out.append(model.generate(
                start + s, min(batch, n - s), job.config.seed, job.skew
            ))
    finally:
        out.close()


# --------------------------------------------------------------- phase 1

TAG_RF = "run_formation"

#: I/O issued only while re-validating state on a resume: bounded by the
#: suspect ranks' retained pieces, never a pass over the data.
TAG_RECOVERY = "recovery"


def block_crcs(model: RecordModel, part, block_records: int) -> List[int]:
    """CRC-32 of each block of a part, over its bytes as written."""
    # A string part in column form assembles its bytes here, once: the
    # blocks below are then views of them.
    model.bytes_view(part)
    return [
        zlib.crc32(model.bytes_view(model.slice(part, s, s + block_records)))
        for s in range(0, len(part), block_records)
    ]


def damaged_blocks(
    model: RecordModel, store: FileBlockStore, path: str, crcs: Sequence[int]
) -> List[int]:
    """Indices of the blocks of ``path`` whose CRC-32 is not ``crcs``'s.

    Each block is read on its own under the recovery tag; a short or
    failed read counts as damage.
    """
    block = store.block_records
    bad = []
    for idx, want in enumerate(crcs):
        try:
            part = store.read_range(path, idx * block, block, TAG_RECOVERY)
        except OSError:
            bad.append(idx)
            continue
        if block_crcs(model, part, block) != [want]:
            bad.append(idx)
    return bad


def _restore_piece(ctx: NativeContext, rec: dict) -> PieceMeta:
    """Rebuild a PieceMeta from its manifest ``rf_run`` record."""
    model = ctx.model
    return PieceMeta(
        run=int(rec["run"]),
        rank=ctx.rank,
        n_records=int(rec["n"]),
        first_keys=model.encode_keys(
            [model.key_from_json(k) for k in rec["first_keys"]]
        ),
    )


def verify_restored_pieces(ctx: NativeContext, run_records: List[dict]) -> None:
    """CRC-check retained piece files against the manifest (suspects only).

    Raises :class:`IOError` on any damaged block — a suspect rank whose
    durable state did not survive its failure must not resume from it.
    """
    checked = 0
    for rec in run_records:
        path = ctx.store.piece_path(rec["run"])
        bad = damaged_blocks(ctx.model, ctx.store, path, rec["crcs"])
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
    metas = [
        _restore_piece(ctx, resume.rf_runs[r])
        for r in range(len(resume.rf_runs))
    ]
    all_metas: List[List[PieceMeta]] = ctx.comm.allgather(metas)
    ctx.input_checksum = resume.rf_checksum
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


def _put(wb: Optional[WriteBehind], nbytes: int, write, *args) -> None:
    """``write(*args)`` now, or on the write-behind thread when there is one."""
    if wb is None:
        write(*args)
    else:
        wb.defer(write, *args, nbytes=nbytes)


def exact_splits(
    comm: Comm, samples, lengths: Sequence[int], sample_every: int,
    owner: Sequence[int], window,
) -> Tuple[List[List[int]], int]:
    """The exact P-quantile splits of sorted sequences, in one collective.

    Rank ``owner[j]`` holds sequence ``j`` and answers ``window(j, a, b)``
    with its keys ``[a, b)``; every rank knows ``samples[j]`` (every K-th
    key of sequence ``j``) and ``lengths[j]``.  Every rank bounds each
    split d·n/P to a window per sequence (:func:`sample_windows`), one
    allgather ships each rank's windows of its own sequences, and every
    rank selects all P−1 splits from them, identically.  A window is
    read and shipped one sample gap (K keys) at a time
    (:meth:`~repro.native.comm_api.MeshComm.allgather_parts`), so no
    buffer outgrows K records however many windows there are.  Returns
    the (P+1) × S matrix (row d: where rank d's part starts in each
    sequence) and the number of keys this rank shipped.
    """
    n_workers = comm.n_workers
    total = sum(lengths)
    targets = [d * total // n_workers for d in range(1, n_workers)]
    lo, hi = sample_windows(samples, sample_every, targets, lengths)
    # Per target, the window pieces (sequence, start, stop) in order.
    cuts = [
        [(j, s, min(s + sample_every, int(hi[d, j])))
         for j in range(len(lengths))
         for s in range(int(lo[d, j]), int(hi[d, j]), sample_every)]
        for d in range(len(targets))
    ]
    mine = [
        np.ascontiguousarray(window(j, a, b))
        for row in cuts for j, a, b in row if owner[j] == comm.rank
    ]
    # Every rank's pieces arrive in the order it cut them.
    arrivals = [iter(parts) for parts in comm.allgather_parts(mine)]
    positions = [[0] * len(lengths)]
    for d, target in enumerate(targets):
        keys = [next(arrivals[owner[j]]) for j, _a, _b in cuts[d]]
        split = [int(x) for x in lo[d]]
        taken = select_in_windows(keys, [0] * len(keys), target - sum(split))
        for (j, _a, _b), count in zip(cuts[d], taken):
            split[j] += count
        positions.append(split)
    positions.append(list(lengths))
    return positions, sum(len(w) for w in mine)


def _outside(bufs: RecordBuffers, model: RecordModel, parts=(), raw=()) -> int:
    """Bytes of ``parts`` (model parts) and ``raw`` (bytes-likes) that do
    not live in the fixed buffer set — what a step holds beyond it."""
    return sum(model.footprint(p) for p in parts if not bufs.holds(p)) + sum(
        len(b) for b in raw if not bufs.holds(b)
    )


def _distributed_sort_run(ctx: NativeContext, records):
    """Globally sort one run; returns this rank's exact-quantile piece.

    The native execution of ``core.internal_sort.distributed_sort_run``:
    local sort (already done by the caller), exact splitting at the P
    quantiles from the samples and one key-window allgather
    (:func:`exact_splits`), a one-round all-to-all of the in-memory
    slices, and a final P-way batch merge.  Three collective epochs per
    run: the fused length and sample allgather, the window allgather
    and the all-to-all.

    The exact splits fix every incoming slice's size, so each lands
    straight in its slot of the chunk buffer (``model.landing_slots``),
    back to back in rank order: the merge's concatenation, with nothing
    left to copy.  The outgoing fixed16 slices are views of the sorted
    buffer, so the sends are flushed before the merge gathers into it
    (string slices are front-coded copies).  Each
    rank's share of a run is at most ``ceil(total / P)`` records, and no
    rank reads more than the buffers' capacity (``read_blocks`` refuses
    a chunk that outgrows ``out``), so the share always fits.
    """
    job, comm, rank, model = ctx.job, ctx.comm, ctx.rank, ctx.model
    bufs = ctx.buffers()
    n_workers = job.n_workers
    if n_workers == 1:
        return records

    # One allgather carries what every rank needs before selecting: the
    # lengths and the samples that bound the splits (Appendix B, K = B).
    keys = model.keys(records)
    sample = model.encode_keys(
        keys[:: job.block_records], ctx.stats, "rf_sample"
    )
    gathered = comm.allgather((len(records), sample))
    lengths: List[int] = [n for n, _s in gathered]
    samples = [model.decode_keys(s) for _n, s in gathered]
    positions, shipped = exact_splits(
        comm, samples, lengths, job.block_records, range(n_workers),
        lambda _j, a, b: keys[a:b],
    )
    ctx.stats.add_counter("internal_selection_window_keys", shipped)

    # Slice [positions[d][rank], positions[d+1][rank]) goes to rank d as
    # one message.  Fixed16 wires are views of ``records``; the sender
    # thread holds them until they are on the wire.  Without landing
    # slots the own slice never takes the wire form: it is delivered,
    # and merged, as the part it is (strings skip the LCP codec).
    counts = [positions[rank + 1][d] - positions[rank][d] for d in range(n_workers)]
    slots = model.landing_slots(bufs, counts)
    own = model.slice(records, positions[rank][rank], positions[rank + 1][rank])
    wires = [
        own if d == rank and slots is None else model.encode(
            model.slice(records, positions[d][rank], positions[d + 1][rank]),
            ctx.stats, "rf_xchg",
        )
        for d in range(n_workers)
    ]
    received = comm.alltoall(wires, into=slots)
    if bufs.holds(records):
        # The sends are views of ``records``, and the merge below
        # gathers into its buffer.
        comm.flush()
    peers = [d for d in range(n_workers) if d != rank]
    ctx.stats.note_resident(
        bufs.nbytes + _outside(bufs, model, [records], [
            buf for d in peers for buf in (wires[d], received[d])
        ])
    )
    del records, keys, wires

    parts = [
        own if d == rank and slots is None else model.decode(buf)
        for d, buf in enumerate(received)
    ]
    del received, own
    merged = model.merge(parts, out=_fit(bufs.sorted, 0, sum(counts)),
                         scratch=bufs)
    ctx.stats.note_resident(bufs.nbytes + 2 * _outside(bufs, model, [merged]))
    ctx.stats.add_counter("internal_sort_sent_records", sum(
        positions[d + 1][rank] - positions[d][rank]
        for d in range(n_workers) if d != rank
    ))
    return merged


def run_formation(ctx: NativeContext) -> List[NativeRun]:
    """Phase 1: form R globally sorted runs, one local piece file each.

    With write-behind enabled, the spill of each finished piece file is
    handed to a background writer so the next chunk's read + sort overlap
    the previous piece's write — the paper's overlapping of run formation
    I/O with internal work.  The buffer is flushed (and any deferred
    write error raised here) *before* the piece metadata is allgathered:
    selection reads the piece files, so a piece must be durable before
    its existence is announced.
    """
    job, comm, store, model = ctx.job, ctx.comm, ctx.store, ctx.model
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
        own = 0
        if ctx.resume is not None:
            restored = ctx.resume.rf_runs
            own = ctx.resume.contiguous_rf_runs()
        k = min(comm.allgather(own))
        reread = sum(len(chunks[r]) for r in range(k, min(own, len(chunks))))
        ctx.stats.add_counter("recovery_rf_blocks_reread", float(reread))

    metas: List[PieceMeta] = []
    run_records: List[dict] = []
    for r in range(k):
        metas.append(_restore_piece(ctx, restored[r]))
        run_records.append(restored[r])
        ctx.input_checksum = restored[r]["checksum"]
    if k:
        ctx.stats.add_counter("recovery_runs_restored", float(k))
        if ctx.rank in job.suspect_ranks:
            verify_restored_pieces(ctx, run_records)

    bufs = ctx.buffers()
    wb: Optional[WriteBehind] = None
    if job.write_behind_blocks > 0:
        wb = WriteBehind(
            store, TAG_RF, max(job.write_behind_bytes, 1), stats=ctx.stats
        )
    try:
        for r in range(k, n_runs):
            block_ids = chunks[r] if r < len(chunks) else []
            # Scatter read: every block lands directly in its slice of
            # the chunk buffer (no per-block arrays, no concatenate) —
            # one coalesced positioned read per run of consecutive block
            # IDs.
            records = store.read_blocks(
                input_path, block_ids, TAG_RF, out=bufs.chunk
            )
            ctx.add_checksum(records)
            ctx.stats.note_resident(
                bufs.nbytes + 2 * _outside(bufs, model, [records])
                + (wb.queued_bytes() if wb else 0)
            )
            records = model.sort(records, out=bufs.sorted, scratch=bufs)

            piece = _distributed_sort_run(ctx, records)
            del records

            _put(wb, piece.nbytes, store.write_file,
                 store.piece_path(r), piece, TAG_RF)
            if wb is not None:
                # The writer owns the piece's buffer now.
                bufs.release(piece)
            # encode_keys copies: the piece's buffer is reused next run.
            first_keys = model.keys(piece)[:: job.block_records]
            metas.append(
                PieceMeta(
                    run=r,
                    rank=ctx.rank,
                    n_records=len(piece),
                    first_keys=model.encode_keys(first_keys),
                )
            )
            if journal is not None:
                rec = {
                    "run": r,
                    "n": len(piece),
                    "crcs": block_crcs(model, piece, job.block_records),
                    "first_keys": [
                        model.key_to_json(k) for k in first_keys.tolist()
                    ],
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
    """Phase 2: the exact (P+1) × R splitter matrix, in one collective.

    The sample-initialised selection of Appendix B over the R·P pieces,
    run as :func:`exact_splits`: the pieces' block-first keys (the sample
    at K = B) every rank received with the run-formation metadata bound
    each split i·N/P to a window per piece, each rank reads the windows
    of its *own* pieces (no other rank's file is opened), one allgather
    ships them, and every rank selects all P−1 splits locally.  Pieces are taken in (run, rank)
    order, so their (key, run, rank, position) order is the runs' (key,
    run, position) order and a run's split is the sum of its pieces'.
    Row i of the result is where rank i's output starts in every run,
    row P holds the run lengths.
    """
    job, store, model = ctx.job, ctx.store, ctx.model
    n_workers = job.n_workers
    pieces = [piece for run in runs for piece in run.pieces]

    def window(j: int, lo: int, hi: int):
        path = store.piece_path(pieces[j].run)
        return model.keys(store.read_range(path, lo, hi - lo, TAG_SEL))

    positions, shipped = exact_splits(
        ctx.comm, [model.decode_keys(p.first_keys) for p in pieces],
        [p.n_records for p in pieces], job.block_records,
        [p.rank for p in pieces], window,
    )
    ctx.stats.add_counter("selection_window_keys", shipped)
    splits = [
        [sum(row[r * n_workers : (r + 1) * n_workers]) for r in range(len(runs))]
        for row in positions
    ]
    if ctx.journal is not None:
        # The full matrix is deterministic and identical on every rank;
        # journaling it locally makes the phase restorable without
        # reading a window again (zero I/O on resume).
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
    precomputed offsets, lower senders first, so a slab is sorted as it
    lands; the model supplies the byte bases — fixed16 from the
    splitters, strings from one allgather of slice sizes).  The range of a piece inside the rank's own span is
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

    A journaling job records the extent table and the guide once the
    slabs are sealed (``a2a_done``).  An attempt that dies mid-exchange
    restarts the phase at its boundary: the pieces are untouched and the
    chunks land again at the same offsets of the same slabs.
    """
    job, comm, store, rank, model = ctx.job, ctx.comm, ctx.store, ctx.rank, ctx.model
    n_workers = job.n_workers
    block = job.block_records
    read_before = store.bytes_read.get(TAG_A2A, 0)
    written_before = store.bytes_written.get(TAG_A2A, 0)

    # Receiver side: sender j's records land in the run's slab behind
    # those of senders 0..j-1 (global order), own rank skipped.  The
    # record offsets follow from the splitters; the byte offsets are the
    # model's (``sizes[r][dest]``: this rank's slice of run r for dest).
    layouts, slab_base = segment_layouts(runs, splits, rank)
    sizes = [
        [
            store.nbytes(
                store.piece_path(r),
                *piece_slice(run, splits, r, rank, dest), TAG_A2A,
            )
            for dest in range(n_workers)
        ]
        for r, run in enumerate(runs)
    ]
    byte_base = model.slab_byte_bases(comm, sizes, rank, slab_base)

    handles: Dict[int, object] = {}
    slab_index: Dict[int, object] = {}
    for r, layout in enumerate(layouts):
        if layout.lower + layout.upper:
            path = store.slab_path(r)
            # preallocate is size-idempotent: a restarted exchange
            # rewrites every chunk in place.
            store.preallocate(path, byte_base[r][-1])
            handles[r] = open(path, "r+b")
            slab_index[r] = model.slab_index(layout.lower + layout.upper)

    # The exact (run, piece-offset, count) read sequence of the send
    # stream, precomputed so a prefetcher can run ahead of the pipes.
    #: (dest, run, k, piece-local start, count, byte offset in channel)
    send_plan: List[Tuple[int, int, int, int, int, int]] = []
    for r, run in enumerate(runs):
        for dest in range(n_workers):
            if dest == rank:
                continue
            lo, hi = piece_slice(run, splits, r, rank, dest)
            for chunk_k, s in enumerate(range(lo, hi, block)):
                byte_off = store.nbytes(store.piece_path(r), lo, s, TAG_A2A)
                send_plan.append(
                    (dest, r, chunk_k, s, min(block, hi - s), byte_off)
                )

    prefetcher: Optional[Prefetcher] = None
    if job.prefetch_blocks > 0 and send_plan:
        prefetcher = Prefetcher(
            store,
            [(store.piece_path(r), s, count) for _d, r, _k, s, count, _b in send_plan],
            sequential_fetch_order(
                [r for _d, r, _k, _s, _c, _b in send_plan], job.prefetch_blocks
            ),
            TAG_A2A, job.prefetch_blocks, stats=ctx.stats,
        )

    wb: Optional[WriteBehind] = None
    if job.write_behind_blocks > 0:
        wb = WriteBehind(
            store, TAG_A2A, max(job.write_behind_bytes, 1), stats=ctx.stats
        )

    sent_bytes = 0

    def outgoing():
        nonlocal sent_bytes
        for idx, (dest, r, chunk_k, s, count, byte_off) in enumerate(send_plan):
            if prefetcher is not None:
                chunk = prefetcher.get(idx)
            else:
                chunk = store.read_range(store.piece_path(r), s, count, TAG_A2A)
            sent_bytes += chunk.nbytes
            ctx.stats.note_resident(2 * model.footprint(chunk))
            yield dest, ("a2a", r, chunk_k, byte_off,
                         model.encode(chunk, ctx.stats, "a2a"))

    # Harvest the merge's prediction sequence from the arriving records:
    # each chunk lands at a known record offset of the slab, so every
    # read-unit start it covers (the slab's block grid, plus the first
    # record from a higher rank) yields that unit's first key.
    #: Per run, slab record position -> key of the record there, for the
    #: positions where a read unit of the slab starts.
    slab_keys: List[Dict[int, object]] = [dict() for _ in runs]
    chunk_hook = None if job.chaos is None else job.chaos.on_a2a_chunk
    arrivals = 0
    received = 0
    received_bytes = 0

    def on_chunk(peer: int, payload: tuple) -> None:
        nonlocal arrivals, received, received_bytes
        kind, r, k, byte_off, buf = payload
        assert kind == "a2a" and peer != rank
        part = model.decode(buf)
        offset = slab_base[r][peer] + k * block
        n_recs = len(part)
        starts = list(range(-(-offset // block) * block, offset + n_recs, block))
        if offset <= layouts[r].lower < offset + n_recs:
            starts.append(layouts[r].lower)
        for pos in starts:
            slab_keys[r][pos] = model.key_at(part, pos - offset)
        byte_pos = byte_base[r][peer] + byte_off
        model.note_arrival(slab_index[r], offset, byte_pos, part)
        view = model.bytes_view(part)
        _put(wb, len(view), store.write_at, handles[r], byte_pos, view, TAG_A2A)
        ctx.stats.note_resident(2 * model.footprint(part))
        arrivals += 1
        received += n_recs
        received_bytes += part.nbytes
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
    journal = ctx.journal
    for r, index in slab_index.items():
        model.seal_slab(store, store.slab_path(r), index, byte_base[r][-1],
                        TAG_A2A, durable=journal is not None)

    # The volume identities, checked on every run, not only under the
    # conformance harness: everything this rank's spans need is either
    # kept or received, and the phase read exactly what it sent and
    # wrote exactly what arrived — the kept ranges were never touched.
    moved_in = sum(layout.lower + layout.upper for layout in layouts)
    read = store.bytes_read.get(TAG_A2A, 0) - read_before
    written = store.bytes_written.get(TAG_A2A, 0) - written_before
    if received != moved_in or read != sent_bytes or written != received_bytes:
        raise AssertionError(
            f"rank {rank}: all-to-all volume identity broken: received "
            f"{received} of {moved_in} records due; read {read} bytes for "
            f"{sent_bytes} sent, wrote {written} bytes for {received_bytes} "
            "received"
        )
    ctx.stats.add_counter(
        "a2a_kept_bytes", float(sum(run_sizes[rank] for run_sizes in sizes))
    )

    segments = [layout.extents(store, r) for r, layout in enumerate(layouts)]
    first_keys: List[List[Optional[object]]] = []
    for r, extents in enumerate(segments):
        slab = store.slab_path(r)
        piece_keys = model.decode_keys(runs[r].pieces[rank].first_keys)
        keys: List[Optional[object]] = []
        for path, start, _count in read_units(extents, block):
            if path == slab:
                if start not in slab_keys[r]:
                    raise AssertionError(
                        f"run {r}: no first key harvested for the slab "
                        f"unit at record {start}"
                    )
                keys.append(slab_keys[r][start])
            elif start % block == 0:
                keys.append(piece_keys[start // block])
            else:
                keys.append(None)
        first_keys.append(keys)

    if journal is not None:
        journal.a2a_done(layouts, [
            [model.key_to_json(k) for k in keys] for keys in first_keys
        ])

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


def _fit(buf, at: int, n: int):
    """``buf[at:]`` when ``n`` records fit there, else ``None`` (the
    kernel allocates instead)."""
    return buf[at:] if at + n <= len(buf) else None


def _read_exactly(store: FileBlockStore, span: Extent, out=None):
    records = store.read_range(
        span.path, span.start, span.count, TAG_MERGE, out=out
    )
    if len(records) != span.count:
        raise IOError(
            f"{span.path}: short read at record {span.start} "
            f"({len(records)} of {span.count})"
        )
    return records


def merge(
    ctx: NativeContext,
    segments: List[List[Extent]],
    first_keys: Optional[List[List[Optional[object]]]] = None,
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

    G is ``piece_blocks - R`` (at least one): batch plus carry fit the
    chunk run formation sorts, so a round runs on run formation's fixed
    buffer set.  A round's units are read into the ``sorted`` buffer
    (the stage), run by run, each run's carry copied in front of its
    fresh units, so the stage is in (run, position) order.  The emitted
    records, ``(key, run) <= (k*, r*)``, are then a prefix of the
    stage's (key, run, position) order (Guidesort's leave to merge a
    prediction-ordered batch by sorting it): one stable sort of the
    whole stage into ``chunk`` orders them, and the round emits its
    first ``n = Σ cuts`` records.  The carries are copied out of their
    run regions into ``chunk`` behind those ``n``, where they wait for
    the next round's stage.  The job's gate keeps R + 1 blocks within
    the chunk, so a fixed16 stage always fits; a stage that does not
    fit its buffer — a string one, whose set is empty — is concatenated
    instead, so both models take the one path.  Verification happens in
    stream:
    sortedness, count, first/last key and the model's checksum are
    computed as the output is written.  Keys are the model's, so both
    record models get the same merge and the same tie order.

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
    job, store, rank, model = ctx.job, ctx.store, ctx.rank, ctx.model
    bufs = ctx.buffers()
    block = job.block_records
    units = [read_units(extents, block) for extents in segments]
    guide = []
    for r, run_units in enumerate(units):
        for u, (path, start, _count) in enumerate(run_units):
            key = first_keys[r][u] if first_keys is not None else None
            if key is None:
                key = model.key_at(store.read_range(
                    path, start, 1, TAG_MERGE + INDEX_TAG_SUFFIX
                ), 0)
            guide.append((key, r, u))
    guide.sort()
    per_round = max(1, job.piece_blocks - len(segments))

    out_path = store.output_path()
    checksum = 0
    count = 0
    marked = 0
    first_key = None
    last_key = None
    sorted_ok = True
    prefetcher: Optional[Prefetcher] = None
    wb: Optional[WriteBehind] = None
    journal = ctx.journal

    def emit(batch) -> None:
        nonlocal checksum, count, marked, first_key, last_key, sorted_ok
        if not len(batch):
            return
        head = model.key_at(batch, 0)
        if not model.is_sorted(batch) or (
            last_key is not None and head < last_key
        ):
            sorted_ok = False
        if first_key is None:
            first_key = head
        last_key = model.key_at(batch, -1)
        checksum = model.checksum(batch, checksum)
        count += len(batch)
        # Budget-sized slices under write-behind: the buffer's bound
        # stays the knob's, not the batch's.
        step = job.write_behind_blocks * block if wb is not None else len(batch)
        for s in range(0, len(batch), step):
            part = model.slice(batch, s, s + step)
            _put(wb, part.nbytes, out.append, part)
        if journal is not None and count - marked >= 128 * block:
            # Output-offset watermark: pure observability (a resumed
            # merge restarts from the segments, which is already o(N));
            # it shows how far a crashed merge got.
            journal.merge_mark(count)
            marked = count

    out = store.appender(out_path, TAG_MERGE)
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
        if job.write_behind_blocks > 0:
            wb = WriteBehind(
                store, TAG_MERGE, job.write_behind_bytes, stats=ctx.stats
            )

        #: Loaded but not yet emittable records, per run (non-empty only);
        #: between rounds they wait in the chunk buffer.
        carry: Dict[int, object] = {}
        stage = bufs.sorted
        for lo in range(0, len(guide), per_round):
            hi = min(lo + per_round, len(guide))
            # First keys ascend within a run, so a run's units of this
            # batch are consecutive: one coalesced read per extent they
            # touch, straight into the stage behind the run's carry.
            wanted: Dict[int, List[int]] = {}
            for idx in range(lo, hi):
                wanted.setdefault(guide[idx][1], []).append(idx)
            # Prefetched units are taken in guide order, the order the
            # schedule was planned for, and placed run by run below.
            fetched = {}
            if prefetcher is not None:
                fetched = {idx: prefetcher.get(idx) for idx in range(lo, hi)}

            # The stage, run by run: each run's carry, then its fresh
            # units — (run, position) order.
            pieces, regions = [], []
            at = 0
            placed = True  # every piece landed in the stage so far
            for r in sorted(carry.keys() | wanted.keys()):
                start = at
                if r in carry:
                    kept = carry.pop(r)
                    dest = _fit(stage, at, len(kept))
                    placed = placed and dest is not None
                    pieces.append(
                        kept if dest is None else model.copy(kept, out=dest)
                    )
                    at += len(kept)
                ids = wanted.get(r, [])
                if prefetcher is not None:
                    for idx in ids:
                        unit = fetched.pop(idx)
                        dest = _fit(stage, at, len(unit))
                        placed = placed and dest is not None
                        pieces.append(
                            unit if dest is None else model.copy(unit, out=dest)
                        )
                        at += len(unit)
                elif ids:
                    first, last = guide[ids[0]][2], guide[ids[-1]][2]
                    for span in _coalesce(units[r][first : last + 1]):
                        dest = _fit(stage, at, span.count)
                        placed = placed and dest is not None
                        pieces.append(_read_exactly(store, span, dest))
                        at += span.count
                regions.append((r, start, at))
            whole = model.slice(stage, 0, at) if placed else model.concat(pieces)
            held = 0 if placed else model.footprint(whole)
            del pieces

            # Cut every run against the first triple still on disk; the
            # carry lies in the run's last loaded block, so only that
            # tail of its region needs searching.
            bound = guide[hi] if hi < len(guide) else None
            n = 0
            tails = []
            for r, start, stop in regions:
                cut = stop
                if bound is not None:
                    cut = model.cut(
                        whole, bound[0], "right" if r <= bound[1] else "left",
                        lo=max(start, stop - block), hi=stop,
                    )
                n += cut - start
                if cut < stop:
                    tails.append((r, cut, stop))
            # The emitted set, (key, run) <= (k*, r*), is a prefix of the
            # stage's (key, run, position) order: one stable sort of the
            # whole stage orders it, and its first n records are the batch.
            ordered = model.sort(
                whole, out=_fit(bufs.chunk, 0, len(whole)), scratch=bufs
            )
            # The carries leave the stage, which the next round
            # overwrites, for the sorted copy's tail behind the batch.  A
            # carry pins at most its own block, never the batch it was
            # cut from.
            at = n
            for r, a, b in tails:
                carry[r] = model.copy(
                    model.slice(whole, a, b), out=_fit(bufs.chunk, at, b - a)
                )
                at += b - a
            batch = model.slice(ordered, 0, n)
            ctx.stats.note_resident(
                bufs.nbytes
                + held
                + _outside(bufs, model, [ordered])
                + (prefetcher.buffered_bytes() if prefetcher else 0)
                + (wb.queued_bytes() if wb else 0)
            )
            del whole, ordered
            emit(batch)
            if wb is not None:
                # The writer owns the batch's buffer now.
                bufs.release(batch)

        if wb is not None:
            wb.close()  # flush before the output file is closed
            wb = None
    finally:
        if prefetcher is not None:
            prefetcher.close()
        if wb is not None:  # error path
            wb.close(raise_error=False)
        out.close()

    meta = OutputMeta(
        rank=rank,
        path=out_path,
        n_records=count,
        first_key=first_key,
        last_key=last_key,
        checksum=checksum,
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
            "first_key": model.key_to_json(meta.first_key),
            "last_key": model.key_to_json(meta.last_key),
            "checksum": meta.checksum,
            "sorted_ok": meta.sorted_ok,
        })
    reclaim_segments(store, len(segments))
    return meta
