"""CANONICALMERGESORT over variable-length string records.

The string twins of the four fixed-record phases in
:mod:`repro.native.phases`, same contracts, generalized from slot
arithmetic to byte-lexicographic key ranks:

* records are the length-prefixed varlen layout of
  :class:`~repro.native.records.VarlenBatch`, stored as byte files with
  an ``.idx`` record-boundary sidecar (:mod:`repro.native.blockstore`);
* the exact multiway selection reuses the *unchanged* integer kernels of
  :mod:`repro.algos.multiway_selection` — NUL-free keys embed into
  integers preserving lexicographic order
  (:func:`~repro.native.records.embed_key`), with the pad width agreed
  globally from the maximum key length;
* every sorted key sequence that crosses the wire — the run-formation
  sample allgather, the internal-sort exchange, the all-to-all record
  chunks — travels LCP front-coded per *Communication-Efficient String
  Sorting* (Bingmann, Sanders, Schimek), and the trimmed bytes are
  counted so the volume accounting stays provable::

      <phase>_wire_bytes == <phase>_raw_bytes
                            + <phase>_overhead_bytes
                            - <phase>_trimmed_bytes

Splitter ranks stay *record-count* ranks (rank i owns records
``[i*N/P, (i+1)*N/P)`` of the sorted order, exactly the fixed-model
contract, so the oracle's exact-rank cut carries over); byte-rank
bookkeeping appears where the fixed code used ``pos * RECORD_BYTES`` —
slab placement, boundary harvesting, conservation — via the offset
arrays the senders ship along with each chunk.

String jobs do not (yet) support checkpoint/recovery, pipelined I/O, or
chaos injection; :class:`~repro.native.job.NativeJob` validation rejects
those combinations up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algos.multiway_selection import (
    select_bisect_coroutine,
    select_coroutine,
)
from .phases import (
    TAG_A2A,
    TAG_MERGE,
    TAG_RF,
    TAG_SEL,
    NativeContext,
    NativeRun,
    OutputMeta,
    _chunk_schedule,
    piece_slice,
    reclaim_segments,
    segment_layouts,
)
from .records import (
    VarlenBatch,
    embed_key,
    generate_string_batch,
    lcp_decode_batch,
    lcp_decode_keys,
    lcp_encode_batch,
    lcp_encode_keys,
    merge_varlen_batches,
    string_checksum,
)

__all__ = [
    "StrPieceMeta",
    "generate_input",
    "run_formation",
    "selection",
    "all_to_all",
    "merge",
]


@dataclass
class StrPieceMeta:
    """Descriptor of one worker's varlen piece of one run.

    Duck-typed where :class:`~repro.native.phases.NativeRun` cares
    (``n_records``); samples travel LCP front-coded in the metadata
    allgather and decode lazily on first use.
    """

    run: int
    rank: int
    n_records: int
    samples_wire: bytes
    sample_every: int
    max_key_len: int
    _samples: Optional[List[bytes]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def sample_keys(self) -> List[bytes]:
        if self._samples is None:
            self._samples = lcp_decode_keys(self.samples_wire)
        return self._samples

    @property
    def n_keys(self) -> int:
        return self.n_records


def _count_lcp(ctx: NativeContext, phase: str, raw: int, wire: int,
               overhead: int, trimmed: int) -> None:
    """Accumulate the provable LCP volume identity for one phase."""
    ctx.stats.add_counter(f"{phase}_raw_bytes", float(raw))
    ctx.stats.add_counter(f"{phase}_wire_bytes", float(wire))
    ctx.stats.add_counter(f"{phase}_overhead_bytes", float(overhead))
    ctx.stats.add_counter(f"{phase}_trimmed_bytes", float(trimmed))


# --------------------------------------------------------------- phase 0


def generate_input(ctx: NativeContext) -> None:
    """Write this worker's string input slice (index order)."""
    job = ctx.job
    start = job.worker_start(ctx.rank)
    n = job.records_per_worker
    batch_n = max(job.block_records, job.chunk_records)
    appender = ctx.store.varlen_appender(ctx.store.input_path(), "generate")
    try:
        for s in range(0, n, batch_n):
            count = min(batch_n, n - s)
            appender.append(
                generate_string_batch(
                    start + s, count, seed=job.config.seed, skew=job.skew
                )
            )
    finally:
        appender.close()


# --------------------------------------------------------------- phase 1


def _sample_warm_start(
    samples: List[List[bytes]],
    sample_every: int,
    rank: int,
    lengths: Sequence[int],
) -> Tuple[List[int], int]:
    """Pure-Python port of ``sample_initial_positions`` for bytes keys.

    ``samples[j][i]`` is the key at position ``i * sample_every`` of
    sequence ``j``; ties sort by (key, sequence, sample index), matching
    the numpy ``lexsort`` of the fixed kernel.
    """
    n_seqs = len(samples)
    total = sum(len(s) for s in samples)
    if total == 0 or rank == 0:
        return [0] * n_seqs, sample_every
    triples = sorted(
        (key, j, i)
        for j, seq in enumerate(samples)
        for i, key in enumerate(seq)
    )
    t = min(rank // sample_every, total - 1)
    counts = [0] * n_seqs
    for _key, j, _i in triples[: t + 1]:
        counts[j] += 1
    positions = [0] * n_seqs
    for j in range(n_seqs):
        c = counts[j]
        pos = 0 if c == 0 else (c - 1) * sample_every
        positions[j] = min(pos, int(lengths[j]))
    return positions, sample_every


def _piece_warm_start(
    run_samples: List[List[Tuple[bytes, int]]],
    rank: int,
    lengths: Sequence[int],
    sample_every: int,
) -> Tuple[List[int], int]:
    """Pure-Python port of ``warm_start_from_samples`` for bytes keys.

    ``run_samples[r]`` is the run's (key, global position) sample pairs
    in position order, stitched across the rank-ordered pieces.
    """
    n_runs = len(run_samples)
    if rank <= 0:
        return [0] * n_runs, sample_every
    triples = sorted(
        (key, r, pos)
        for r, pairs in enumerate(run_samples)
        for key, pos in pairs
    )
    if not triples:
        return [0] * n_runs, sample_every
    t = min(rank // sample_every, len(triples) - 1)
    counts = [0] * n_runs
    for _key, r, _pos in triples[: t + 1]:
        counts[r] += 1
    out = [0] * n_runs
    for r in range(n_runs):
        c = counts[r]
        if c > 0:
            out[r] = min(run_samples[r][c - 1][1], int(lengths[r]))
    return out, sample_every


def _distributed_sort_run(
    ctx: NativeContext, batch: VarlenBatch, run_id: int
) -> VarlenBatch:
    """Globally sort one string run; returns this rank's exact piece.

    Identical structure to the fixed ``_distributed_sort_run`` — exact
    record-count quantiles via the shared probe-selection kernel, a
    chunked all-to-all, a stable batch merge — with the sample allgather
    and the record chunks LCP front-coded for the wire.
    """
    job, comm, rank = ctx.job, ctx.comm, ctx.rank
    n_workers = job.n_workers
    if n_workers == 1:
        return batch

    keys = batch.keys()
    lengths: List[int] = comm.allgather(len(batch))
    total = sum(lengths)
    target = rank * total // n_workers
    width = comm.allreduce(batch.max_key_len() + 1, max)

    my_samples = keys[:: job.sample_every]
    wire, saved = lcp_encode_keys(my_samples)
    _count_lcp(
        ctx, "rf_sample",
        raw=sum(len(k) for k in my_samples),
        wire=len(wire),
        overhead=4 + 8 * len(my_samples),
        trimmed=saved,
    )
    sample_lists = [lcp_decode_keys(w) for w in comm.allgather(wire)]
    init_pos, init_step = _sample_warm_start(
        sample_lists, job.sample_every, target, lengths
    )
    gen = select_coroutine(
        lengths, target, init_positions=init_pos, init_step=init_step
    )
    result = comm.selection_round(
        gen,
        local_lookup=lambda pos: embed_key(keys[pos], width),
        owner_of=lambda seq: seq,
    )
    ctx.stats.add_counter("internal_selection_touches", result.touches)

    positions: List[List[int]] = comm.allgather(result.positions)
    positions.append(list(lengths))

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
                chunk = batch.slice(s, min(s + block, hi))
                chunk_wire, chunk_saved = lcp_encode_batch(chunk)
                _count_lcp(
                    ctx, "rf_xchg",
                    raw=chunk.nbytes,
                    wire=len(chunk_wire),
                    overhead=4 + 4 * len(chunk),
                    trimmed=chunk_saved,
                )
                yield dest, ("sfx", run_id, k, chunk_wire)

    def on_chunk(peer: int, payload: tuple) -> None:
        nonlocal recv_bytes
        kind, rid, k, buf = payload
        assert kind == "sfx" and rid == run_id
        received[peer].append((k, bytes(buf)))
        recv_bytes += len(buf)

    comm.exchange(outgoing(), on_chunk)
    ctx.stats.note_resident(batch.nbytes + recv_bytes)
    del batch, keys

    parts = []
    for sender in range(n_workers):
        bufs = [lcp_decode_batch(b) for _k, b in sorted(received[sender])]
        received[sender] = []
        if bufs:
            parts.append(VarlenBatch.concat(bufs))
    merged = merge_varlen_batches(parts)
    ctx.stats.note_resident(2 * merged.nbytes)
    ctx.stats.add_counter(
        "internal_sort_sent_records", sum(lengths) // n_workers
    )
    return merged


def run_formation(ctx: NativeContext) -> List[NativeRun]:
    """Phase 1: form R globally sorted string runs, one piece file each."""
    job, comm, store = ctx.job, ctx.comm, ctx.store
    chunks = _chunk_schedule(ctx)
    n_runs = comm.allreduce(len(chunks), max)
    input_path = store.input_path()

    metas: List[StrPieceMeta] = []
    for r in range(n_runs):
        block_ids = chunks[r] if r < len(chunks) else []
        batch = store.read_varlen_blocks(input_path, block_ids, TAG_RF)
        ctx.input_checksum = string_checksum(batch, ctx.input_checksum)
        ctx.stats.note_resident(2 * batch.nbytes)
        batch = batch.sort()

        piece = _distributed_sort_run(ctx, batch, run_id=r)
        del batch

        store.write_varlen_file(store.piece_path(r), piece, TAG_RF)
        sample = piece.keys()[:: job.sample_every]
        samples_wire, _saved = lcp_encode_keys(sample)
        metas.append(
            StrPieceMeta(
                run=r,
                rank=ctx.rank,
                n_records=len(piece),
                samples_wire=samples_wire,
                sample_every=job.sample_every,
                max_key_len=piece.max_key_len(),
            )
        )
        del piece
    ctx.stats.add_counter("runs_formed", len(metas))

    all_metas: List[List[StrPieceMeta]] = comm.allgather(metas)
    return [
        NativeRun(r, [all_metas[j][r] for j in range(job.n_workers)])
        for r in range(n_runs)
    ]


# --------------------------------------------------------------- phase 2


def selection(ctx: NativeContext, runs: List[NativeRun]) -> List[List[int]]:
    """Phase 2: exact record-rank splitters over the string runs.

    The probe loop is the fixed one verbatim except that a probe reply
    is the record's *byte key* read through the varlen probe cache and
    embedded into the order-preserving integer the shared selection
    kernel compares; the pad width comes from the allgathered per-piece
    maximum key lengths, so every rank embeds identically.
    """
    job, comm, store = ctx.job, ctx.comm, ctx.store
    lengths = [run.n_records for run in runs]
    total = sum(lengths)
    target = ctx.rank * total // job.n_workers
    width = 1 + max(
        (p.max_key_len for run in runs for p in run.pieces), default=0
    )

    if job.config.selection == "sampled":
        run_samples: List[List[Tuple[bytes, int]]] = []
        for run in runs:
            pairs: List[Tuple[bytes, int]] = []
            for n, piece in enumerate(run.pieces):
                for i, key in enumerate(piece.sample_keys):
                    pairs.append((key, i * piece.sample_every + run.offsets[n]))
            run_samples.append(pairs)
        init_pos, init_step = _piece_warm_start(
            run_samples, target, lengths, job.sample_every
        )
        gen = select_coroutine(
            lengths, target, init_positions=init_pos, init_step=init_step
        )
    elif job.config.selection == "basic":
        gen = select_coroutine(lengths, target)
    else:
        gen = select_bisect_coroutine(lengths, target)

    cache = store.varlen_probe_cache(job.selection_cache_blocks)
    try:
        request = next(gen)
        while True:
            r, gpos = request
            owner, lpos = runs[r].locate(gpos)
            if owner != ctx.rank:
                ctx.stats.add_counter("selection_remote_probes")
            key = cache.key_at(store.piece_path(r, owner), lpos, TAG_SEL)
            request = gen.send(embed_key(key, width))
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
    return splits


# --------------------------------------------------------------- phase 3

#: One part of a string segment: a file, plus the byte offsets of the
#: part's record boundaries *in that file* (``n + 1`` of them).
SegmentPart = Tuple[str, np.ndarray]


def all_to_all(
    ctx: NativeContext, runs: List[NativeRun], splits: List[List[int]]
) -> Tuple[List[List[SegmentPart]], None]:
    """Phase 3: the in-place string all-to-all, prefix-trimmed on the wire.

    Record-space layout (who keeps and who ships which records of which
    run) is the fixed phase's :func:`~repro.native.phases.segment_layouts`
    verbatim: only the ranges of a piece inside *another* rank's span are
    read, sent and written; the range inside the rank's own span stays
    in the piece file, untouched.  Bytes need one extra agreement round —
    an allgather of each sender's per-(run, dest) slice byte sizes — so
    every receiver can precompute exact byte bases per channel and place
    arrivals positionally in the run's slab file.  Chunks travel LCP
    front-coded; each carries its record and byte offset *within its
    channel*, and the receiver rebuilds the slab's record-boundary
    offsets as the bytes land.

    Returns ``(segments, None)``: per run the segment as at most three
    parts in run order — lower slab, kept piece range (its boundaries
    are a slice of the piece's ``.idx``, which this phase loads anyway),
    upper slab.  (The second slot is the fixed phase's prediction
    sequence; the string merge streams and needs none.)
    """
    job, comm, store, rank = ctx.job, ctx.comm, ctx.store, ctx.rank
    n_workers = job.n_workers
    block = job.block_records
    read_before = store.bytes_read.get(TAG_A2A, 0)
    written_before = store.bytes_written.get(TAG_A2A, 0)

    layouts, slab_base = segment_layouts(runs, splits, rank)

    # Byte-space agreement: every sender publishes the encoded byte size
    # of its piece slice per (run, dest); receivers prefix-sum their
    # column (own entry skipped: kept bytes never move) into exact
    # per-channel byte bases.
    offs_by_run: List[np.ndarray] = []
    my_sizes: List[List[int]] = []
    for r, run in enumerate(runs):
        offs = store.varlen_offsets(store.piece_path(r), TAG_A2A)
        offs_by_run.append(offs)
        slices = [
            piece_slice(run, splits, r, rank, dest) for dest in range(n_workers)
        ]
        my_sizes.append([int(offs[hi] - offs[lo]) for lo, hi in slices])
    all_sizes: List[List[List[int]]] = comm.allgather(my_sizes)

    slab_base_bytes: List[List[int]] = []
    slab_bytes: List[int] = []
    for r in range(len(runs)):
        bases, acc = [], 0
        for j in range(n_workers):
            bases.append(acc)
            if j != rank:
                acc += all_sizes[j][r][rank]
        slab_base_bytes.append(bases)
        slab_bytes.append(acc)

    handles: Dict[int, object] = {}
    slab_bounds: List[np.ndarray] = []
    for r, layout in enumerate(layouts):
        bounds = np.full(layout.lower + layout.upper + 1, -1, dtype=np.int64)
        bounds[0] = 0
        slab_bounds.append(bounds)
        if len(bounds) > 1:
            path = store.slab_path(r)
            store.preallocate_bytes(path, slab_bytes[r])
            handles[r] = open(path, "r+b")

    # (dest, run, piece-local start, count, channel-local lo)
    send_plan: List[Tuple[int, int, int, int, int]] = []
    for r, run in enumerate(runs):
        for dest in range(n_workers):
            if dest == rank:
                continue
            lo, hi = piece_slice(run, splits, r, rank, dest)
            for s in range(lo, hi, block):
                send_plan.append((dest, r, s, min(block, hi - s), lo))

    sent_bytes = 0

    def outgoing():
        nonlocal sent_bytes
        for dest, r, s, count, lo in send_plan:
            offs = offs_by_run[r]
            chunk = store.read_varlen_range(
                store.piece_path(r), s, count, TAG_A2A, offsets=offs
            )
            wire, saved = lcp_encode_batch(chunk)
            _count_lcp(
                ctx, "a2a",
                raw=chunk.nbytes,
                wire=len(wire),
                overhead=4 + 4 * len(chunk),
                trimmed=saved,
            )
            sent_bytes += chunk.nbytes
            ctx.stats.note_resident(2 * chunk.nbytes)
            yield dest, ("sa2a", r, s - lo, int(offs[s] - offs[lo]), wire)

    def on_chunk(peer: int, payload: tuple) -> None:
        kind, r, rec_off, byte_off, buf = payload
        assert kind == "sa2a" and peer != rank
        arrived = lcp_decode_batch(buf)
        start = slab_base_bytes[r][peer] + byte_off
        store.write_at_bytes(handles[r], start, arrived.bytes_view(), TAG_A2A)
        g = slab_base[r][peer] + rec_off
        slab_bounds[r][g + 1 : g + 1 + len(arrived)] = (
            start + arrived.offsets[1:]
        )
        ctx.stats.note_resident(2 * arrived.nbytes)

    try:
        comm.exchange(outgoing(), on_chunk)
    finally:
        for handle in handles.values():
            handle.close()

    for r, bounds in enumerate(slab_bounds):
        if (
            bool(np.any(bounds < 0))
            or int(bounds[-1]) != slab_bytes[r]
            or bool(np.any(np.diff(bounds) < 0))
        ):
            raise AssertionError(
                f"run {r}: slab boundary reconstruction incomplete "
                f"({int(bounds[-1])} of {slab_bytes[r]} bytes claimed)"
            )

    # The volume identities, checked on every run (cf. the fixed phase):
    # read exactly what was sent, wrote exactly what arrived — the kept
    # ranges were never touched.
    read = store.bytes_read.get(TAG_A2A, 0) - read_before
    written = store.bytes_written.get(TAG_A2A, 0) - written_before
    if read != sent_bytes or written != sum(slab_bytes):
        raise AssertionError(
            f"rank {rank}: all-to-all volume identity broken: read {read} "
            f"bytes for {sent_bytes} sent, wrote {written} bytes for "
            f"{sum(slab_bytes)} due"
        )
    ctx.stats.add_counter(
        "a2a_kept_bytes", float(sum(sizes[rank] for sizes in my_sizes))
    )

    segments: List[List[SegmentPart]] = []
    for r, layout in enumerate(layouts):
        slab, bounds = store.slab_path(r), slab_bounds[r]
        keep_stop = layout.keep_start + layout.kept
        parts = (
            (slab, bounds[: layout.lower + 1]),
            (store.piece_path(r), offs_by_run[r][layout.keep_start : keep_stop + 1]),
            (slab, bounds[layout.lower :]),
        )
        segments.append([part for part in parts if len(part[1]) > 1])
    return segments, None


# --------------------------------------------------------------- phase 4


class _SegmentReader:
    """Stream one varlen segment block-of-records by block (cf.
    SequentialReader) through the chain of its parts.  A block is
    ``block`` records of the *segment*, so where the blocks are cut does
    not depend on where the parts meet."""

    def __init__(self, store, parts: List[SegmentPart], block: int):
        self.store = store
        self.parts = parts
        self.block = block
        self.part = 0   # index of the part being read
        self.pos = 0    # records of that part already read

    def next_block(self) -> Optional[VarlenBatch]:
        pieces: List[VarlenBatch] = []
        want = self.block
        while want and self.part < len(self.parts):
            path, bounds = self.parts[self.part]
            count = min(want, len(bounds) - 1 - self.pos)
            pieces.append(self.store.read_varlen_range(
                path, self.pos, count, TAG_MERGE, offsets=bounds
            ))
            if len(pieces[-1]) != count:
                raise IOError(
                    f"{path}: short read at record {self.pos} "
                    f"({len(pieces[-1])} of {count})"
                )
            want -= count
            self.pos += count
            if self.pos == len(bounds) - 1:
                self.part, self.pos = self.part + 1, 0
        if not pieces:
            return None
        return pieces[0] if len(pieces) == 1 else VarlenBatch.concat(pieces)


def merge(
    ctx: NativeContext,
    segments: List[List[SegmentPart]],
    _first_keys: None = None,
) -> OutputMeta:
    """Phase 4: R-way streaming merge of the string segments.

    The fixed merge's structure — one buffered block per run, every
    round emits all records ≤ the smallest buffer-tail key — with byte
    keys and the varlen batch kernels; verification (sortedness, count,
    first/last key, the order-independent string checksum) streams with
    the output exactly as before.
    """
    job, store, rank = ctx.job, ctx.store, ctx.rank
    block = job.block_records

    readers = [_SegmentReader(store, parts, block) for parts in segments]

    out_path = store.output_path()
    checksum = 0
    count = 0
    first_key: Optional[bytes] = None
    last_key: Optional[bytes] = None
    sorted_ok = True
    appender = store.varlen_appender(out_path, TAG_MERGE)

    def emit(batch: VarlenBatch) -> None:
        nonlocal checksum, count, first_key, last_key, sorted_ok
        if not len(batch):
            return
        keys = batch.keys()
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            sorted_ok = False
        if last_key is not None and keys[0] < last_key:
            sorted_ok = False
        if first_key is None:
            first_key = keys[0]
        last_key = keys[-1]
        checksum = string_checksum(batch, checksum)
        count += len(batch)
        appender.append(batch)

    def note_working_set(batch_bytes: int) -> None:
        ctx.stats.note_resident(
            sum(b.nbytes for b in buffers if b is not None) + 2 * batch_bytes
        )

    try:
        buffers: List[Optional[VarlenBatch]] = [
            reader.next_block() for reader in readers
        ]
        while True:
            active = [i for i, b in enumerate(buffers) if b is not None]
            if not active:
                break
            for i in active:
                if len(buffers[i]) == 0:
                    buffers[i] = readers[i].next_block()
            active = [
                i for i, b in enumerate(buffers) if b is not None and len(b)
            ]
            if not active:
                break
            if len(active) == 1:
                i = active[0]
                note_working_set(buffers[i].nbytes)
                emit(buffers[i])
                buffers[i] = VarlenBatch.empty()
                while True:
                    nxt = readers[i].next_block()
                    if nxt is None:
                        buffers[i] = None
                        break
                    note_working_set(nxt.nbytes)
                    emit(nxt)
                continue
            bound = min(buffers[i].keys()[-1] for i in active)
            parts = []
            for i in active:
                buf = buffers[i]
                keys = buf.keys()
                # bisect_right over the sorted buffer keys.
                lo, hi = 0, len(keys)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if keys[mid] <= bound:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo:
                    parts.append(buf.slice(0, lo))
                    buffers[i] = buf.slice(lo, len(buf))
            batch = merge_varlen_batches(parts)
            note_working_set(batch.nbytes)
            emit(batch)
    finally:
        appender.close()

    meta = OutputMeta(
        rank=rank,
        path=out_path,
        n_records=count,
        first_key=first_key,
        last_key=last_key,
        checksum=checksum,
        sorted_ok=sorted_ok,
    )
    reclaim_segments(store, len(segments))
    ctx.stats.add_counter("merge_arity", float(len(segments)))
    return meta
