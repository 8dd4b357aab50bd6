"""Spill-directory block store: the native counterpart of ``em.blockmanager``.

The simulator's :class:`~repro.em.blockmanager.BlockStore` hands out
block IDs and charges a performance model; this store hands out *files*
in a spill directory and moves real bytes with ``numpy`` ``fromfile`` /
``tofile``.  The same accounting hooks exist — every read and write is
tagged with the phase that issued it, so the per-phase I/O volumes the
paper's figures are built from fall out of a real run too.

Layout of one sort's spill directory::

    input_<rank>.dat            gensort-style input slice of one worker
    run<r>_piece<rank>.dat      phase-1 output: this worker's piece of run r
    slab<r>_rank<rank>.dat      phase-3 output: what other workers sent this one
                                of run r (the part of its segment that was not
                                already in its own piece file)
    output_<rank>.dat           phase-4 output: the rank's sorted slice
    manifest_<rank>.jsonl       recovery journal (when checkpointing)

Fixed16 files are flat arrays of :data:`~repro.native.records.NATIVE_DTYPE`
records; string files are byte streams of varlen records plus an
``.idx`` sidecar of record-boundary offsets (a slab's boundaries are
rebuilt in memory by the all-to-all instead, see
:meth:`FileBlockStore.set_varlen_offsets`, and written to its ``.idx``
only when the job journals).

When the store is built with a ``namespace`` (the sort service gives
every job ``<job-id>-<fingerprint>``), each name above is prefixed
``<namespace>_``, so any number of jobs can share one spill directory
without a byte of overlap — and :func:`purge_namespace` can delete
exactly one job's files, never a neighbour's.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..em.cache import LRUCache
from .records import (
    NATIVE_DTYPE,
    RECORD_BYTES,
    VarlenBatch,
    _destination,
    varlen_index_path,
)

__all__ = [
    "FileBlockStore",
    "RecordAppender",
    "SequentialReader",
    "VarlenAppender",
    "purge_namespace",
]

#: Suffix appended to a phase tag for record-boundary index I/O, so the
#: per-phase *data* byte counters stay exactly conserved (index bytes
#: are bookkeeping, not records).
INDEX_TAG_SUFFIX = ":index"


def purge_namespace(root: str, namespace: str) -> int:
    """Delete exactly one job's spill files; returns how many were removed.

    The namespaced counterpart of ``shutil.rmtree(spill_dir)``: only
    files carrying the ``<namespace>_`` prefix go, so an aborting job on
    a shared spill directory can never take a concurrent job's blocks
    with it.  A missing directory or file is success, not an error.
    """
    if not namespace:
        raise ValueError("purge_namespace requires a non-empty namespace")
    prefix = f"{namespace}_"
    removed = 0
    try:
        names = os.listdir(root)
    except (FileNotFoundError, NotADirectoryError):
        return 0
    for name in names:
        if name.startswith(prefix):
            try:
                os.remove(os.path.join(root, name))
                removed += 1
            except OSError:
                pass
    return removed


_HAS_PREADV = hasattr(os, "preadv")


def _pread_exact(fh, dst: memoryview, offset: int, path: str) -> None:
    """Fill ``dst`` from byte ``offset`` of the unbuffered file ``fh``
    (positioned reads straight into the caller's buffer, no copy)."""
    nbytes = len(dst)
    done = 0
    while done < nbytes:
        if _HAS_PREADV:
            got = os.preadv(fh.fileno(), [dst[done:]], offset + done)
        else:  # pragma: no cover - non-POSIX fallback
            fh.seek(offset + done)
            got = fh.readinto(dst[done:])
        if not got:
            raise IOError(
                f"{path}: short read at byte {offset + done} "
                f"({done} of {nbytes})"
            )
        done += got


def _records_into(out: Optional[np.ndarray], n: int) -> np.ndarray:
    """A destination for ``n`` records: fresh, or the front of ``out``."""
    if out is None:
        return np.empty(n, dtype=NATIVE_DTYPE)
    return _destination(out, n)


class FileBlockStore:
    """One worker's view of the spill directory, with tagged I/O accounting."""

    def __init__(self, root: str, rank: int, block_records: int, chaos=None,
                 namespace: str = ""):
        if block_records < 1:
            raise ValueError(f"block_records must be >= 1, got {block_records}")
        self.root = str(root)
        self.rank = rank
        self.block_records = block_records
        #: Job namespace: a non-empty value prefixes every file name so
        #: concurrent jobs can share ``root`` without collisions.
        self.namespace = str(namespace)
        self._prefix = f"{self.namespace}_" if self.namespace else ""
        #: Optional fault-injection spec (duck-typed; may fail writes
        #: with a torn prefix + ENOSPC, like a really full disk).
        self.chaos = chaos
        os.makedirs(self.root, exist_ok=True)
        self.bytes_read: Dict[str, int] = {}
        self.bytes_written: Dict[str, int] = {}
        self.reads: Dict[str, int] = {}
        self.writes: Dict[str, int] = {}
        # The pipelined I/O layer (native.pipeline) issues reads and
        # writes from background threads; the counters stay exact under
        # this lock, and only *main-thread* I/O time counts as stall.
        self._lock = threading.Lock()
        #: Serializes ``.idx`` loads so two reader threads never charge
        #: the same index twice.
        self._idx_lock = threading.Lock()
        self._varlen_idx: Dict[str, np.ndarray] = {}
        self._stats = None
        self._main_thread: Optional[int] = None

    def attach_stats(self, stats) -> None:
        """Route I/O wait times into ``stats`` (a ``WorkerStats``).

        Records the calling thread as the worker's main thread: store
        operations issued from it are charged as per-phase I/O stall;
        operations from background pipeline threads are not — their
        duration is exactly the overlap the pipeline buys.
        """
        self._stats = stats
        self._main_thread = threading.get_ident()

    # -- paths ----------------------------------------------------------------

    def input_path(self, rank: Optional[int] = None) -> str:
        rank = self.rank if rank is None else rank
        return os.path.join(self.root, f"{self._prefix}input_{rank}.dat")

    def piece_path(self, run: int, rank: Optional[int] = None) -> str:
        rank = self.rank if rank is None else rank
        return os.path.join(self.root, f"{self._prefix}run{run}_piece{rank}.dat")

    def slab_path(self, run: int, rank: Optional[int] = None) -> str:
        """Records of run ``run`` this rank *received* in the all-to-all."""
        rank = self.rank if rank is None else rank
        return os.path.join(self.root, f"{self._prefix}slab{run}_rank{rank}.dat")

    def output_path(self, rank: Optional[int] = None) -> str:
        rank = self.rank if rank is None else rank
        return os.path.join(self.root, f"{self._prefix}output_{rank}.dat")

    def manifest_path(self, rank: Optional[int] = None) -> str:
        """The rank's recovery journal (see :mod:`repro.recovery`)."""
        rank = self.rank if rank is None else rank
        return os.path.join(self.root, f"{self._prefix}manifest_{rank}.jsonl")

    # -- accounting -----------------------------------------------------------

    def _charge(self, table: Dict[str, int], ops: Dict[str, int], tag: str, n: int) -> None:
        with self._lock:
            table[tag] = table.get(tag, 0) + n
            ops[tag] = ops.get(tag, 0) + 1

    def charge_read(self, tag: str, nbytes: int) -> None:
        self._charge(self.bytes_read, self.reads, tag, nbytes)

    def charge_write(self, tag: str, nbytes: int) -> None:
        self._charge(self.bytes_written, self.writes, tag, nbytes)

    def _charge_stall(self, tag: str, seconds: float) -> None:
        """Count ``seconds`` as phase stall iff on the main thread."""
        if (
            self._stats is not None
            and threading.get_ident() == self._main_thread
        ):
            self._stats.add_stall(tag, seconds)

    # -- record I/O -----------------------------------------------------------

    def read_range(
        self, path: str, start: int, count: int, tag: str,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Read ``count`` records at record offset ``start`` (fewer where
        the file ends first) with one positioned read — into the front of
        ``out`` when given (``ValueError`` if it is too small)."""
        t0 = time.monotonic()
        with open(path, "rb", buffering=0) as fh:
            in_file = os.fstat(fh.fileno()).st_size // RECORD_BYTES
            dest = _records_into(out, max(0, min(count, in_file - start)))
            _pread_exact(fh, dest.view(np.uint8).data, start * RECORD_BYTES, path)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_read(tag, dest.nbytes)
        return dest

    def read_block(self, path: str, block_idx: int, tag: str) -> np.ndarray:
        """Read one fixed-size block (the last block may be short)."""
        return self.read_range(
            path, block_idx * self.block_records, self.block_records, tag
        )

    def read_blocks(
        self, path: str, block_ids, tag: str, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Scatter-read whole blocks into one contiguous record array.

        The zero-copy sibling of per-block :meth:`read_block` +
        ``np.concatenate``: the destination array is allocated once — or
        is the front of ``out``, run formation's reused chunk buffer
        (``ValueError`` if it is too small) — and each maximal run of
        consecutive block IDs becomes a single positioned read straight
        into its slice (``os.preadv`` where the platform has it), so run
        formation fills its sort buffer without intermediate per-block
        arrays.  ``block_ids`` may arrive in any order (the schedule is
        shuffled); the file's last block may be short and can sit
        anywhere in the list.
        """
        ids = list(block_ids)
        if not ids:
            return _records_into(out, 0)
        t0 = time.monotonic()
        bs = self.block_records
        file_records = os.path.getsize(path) // RECORD_BYTES
        n_blocks = (file_records + bs - 1) // bs
        bad = [b for b in ids if b < 0 or b >= n_blocks]
        if bad:
            # A clamped-to-zero read here would silently return a short
            # array and corrupt whatever schedule asked for the block.
            raise ValueError(
                f"{path}: block id {bad[0]} out of range "
                f"(file has {n_blocks} blocks of {bs} records)"
            )
        counts = [min(bs, file_records - b * bs) for b in ids]
        dest = _records_into(out, sum(counts))
        mv = dest.view(np.uint8).data
        with open(path, "rb", buffering=0) as fh:
            filled = 0
            i = 0
            while i < len(ids):
                # Coalesce: consecutive *full* blocks extend one read.
                j = i + 1
                nbytes = counts[i] * RECORD_BYTES
                while (
                    j < len(ids)
                    and ids[j] == ids[j - 1] + 1
                    and counts[j - 1] == bs
                ):
                    nbytes += counts[j] * RECORD_BYTES
                    j += 1
                _pread_exact(
                    fh, mv[filled : filled + nbytes],
                    ids[i] * bs * RECORD_BYTES, path,
                )
                self.charge_read(tag, nbytes)
                filled += nbytes
                i = j
        self._charge_stall(tag, time.monotonic() - t0)
        return dest

    def _write_gate(self, handle, path: str, nbytes: int):
        """Consult the chaos spec before a write of ``nbytes``.

        Returns ``None`` to proceed normally; on an injected disk-full
        fault, writes the torn prefix the spec dictates and raises.
        """
        if self.chaos is None:
            return None
        clip = self.chaos.clip_write(self.rank, nbytes)
        return clip

    def write_file(self, path: str, records: np.ndarray, tag: str) -> None:
        """Write a whole record array with ``tofile`` (atomic per call)."""
        t0 = time.monotonic()
        with open(path, "wb") as handle:
            clip = self._write_gate(handle, path, records.nbytes)
            if clip is not None:
                handle.write(records.tobytes()[:clip])
                raise self.chaos.enospc_error(path)
            records.tofile(handle)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_write(tag, records.nbytes)

    def append_records(self, handle, records: np.ndarray, tag: str) -> None:
        """Append records to an open binary file handle."""
        t0 = time.monotonic()
        clip = self._write_gate(handle, getattr(handle, "name", "?"), records.nbytes)
        if clip is not None:
            handle.write(records.tobytes()[:clip])
            raise self.chaos.enospc_error(getattr(handle, "name", "?"))
        records.tofile(handle)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_write(tag, records.nbytes)

    def record_appender(self, path: str, tag: str) -> "RecordAppender":
        return RecordAppender(self, path, tag)

    def write_at(self, handle, record_offset: int, payload: bytes, tag: str) -> None:
        """Place a raw record chunk at a known record offset (phase 3)."""
        t0 = time.monotonic()
        handle.seek(record_offset * RECORD_BYTES)
        clip = self._write_gate(handle, getattr(handle, "name", "?"), len(payload))
        if clip is not None:
            handle.write(payload[:clip])
            raise self.chaos.enospc_error(getattr(handle, "name", "?"))
        handle.write(payload)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_write(tag, len(payload))

    def preallocate(self, path: str, n_records: int) -> None:
        """Create ``path`` sized for ``n_records`` (sparse where supported).

        Idempotent on size: a file already at exactly the target size is
        left untouched, so a restarted all-to-all rewrites its slab in
        place instead of re-creating it.
        """
        self.preallocate_bytes(path, n_records * RECORD_BYTES)

    def remove(self, path: str) -> None:
        """Remove a spill file; **idempotent** by contract.

        Phase teardown calls this unconditionally on every piece/slab
        path, and a rerun after a mid-phase crash (e.g. a chaos kill)
        may find some already gone — a missing file is success, not an
        error.  Covered by the rerun-after-kill regression test.
        """
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        # Varlen files carry a boundary-index sidecar; drop it (and its
        # cache entry) with the data so teardown stays one call per path.
        try:
            os.remove(varlen_index_path(path))
        except FileNotFoundError:
            pass
        self._invalidate_varlen_index(path)

    # -- probe reads (probe-driven multiway selection) -------------------------

    def probe_cache(self, capacity_blocks: int) -> "ProbeCache":
        return ProbeCache(self, capacity_blocks)

    # -- variable-length record I/O -------------------------------------------
    #
    # Varlen files are byte streams plus a ``<path>.idx`` sidecar of
    # ``int64`` record-boundary offsets (see records.write_varlen_file),
    # so "block b" still means "records [b*B, (b+1)*B)" — only addressed
    # by byte offsets from the index instead of ``b * RECORD_BYTES``.
    # Index I/O is charged under ``tag + INDEX_TAG_SUFFIX`` to keep the
    # per-phase data byte counters exactly conserved.

    def varlen_offsets(self, path: str, tag: str) -> np.ndarray:
        """The record-boundary offsets of a varlen file (cached)."""
        with self._idx_lock:
            offsets = self._varlen_idx.get(path)
            if offsets is not None:
                return offsets
            t0 = time.monotonic()
            offsets = np.fromfile(varlen_index_path(path), dtype=np.int64)
            self._charge_stall(tag, time.monotonic() - t0)
            self.charge_read(tag + INDEX_TAG_SUFFIX, offsets.nbytes)
            if len(offsets) < 1 or offsets[0] != 0:
                raise ValueError(f"{varlen_index_path(path)}: malformed index")
            self._varlen_idx[path] = offsets
        return offsets

    def set_varlen_offsets(self, path: str, offsets: np.ndarray) -> None:
        """Serve ``path``'s record boundaries from memory, not an ``.idx``
        (the all-to-all rebuilds a slab's as its chunks land)."""
        with self._idx_lock:
            self._varlen_idx[path] = offsets

    def write_varlen_index(self, path: str, offsets: np.ndarray, tag: str) -> None:
        """Write ``path``'s record boundaries as its ``.idx`` and fsync it
        (a journaled slab, whose boundaries must outlive the process)."""
        with open(varlen_index_path(path), "wb") as handle:
            offsets.tofile(handle)
            handle.flush()
            os.fsync(handle.fileno())
        self.charge_write(tag + INDEX_TAG_SUFFIX, offsets.nbytes)

    def _invalidate_varlen_index(self, path: str) -> None:
        with self._idx_lock:
            self._varlen_idx.pop(path, None)

    def varlen_record_count(self, path: str, tag: str) -> int:
        return len(self.varlen_offsets(path, tag)) - 1

    def read_varlen_range(
        self,
        path: str,
        start: int,
        count: int,
        tag: str,
        offsets: Optional[np.ndarray] = None,
    ) -> VarlenBatch:
        """Read ``count`` records at record offset ``start`` (one pread).

        ``offsets`` overrides the sidecar index — the merge phase reads
        slab files whose boundaries it already holds in memory (the
        all-to-all rebuilt them from the arrivals), so slabs need no
        ``.idx`` on disk, and kept piece ranges through a slice of the
        piece's index.
        """
        if offsets is None:
            offsets = self.varlen_offsets(path, tag)
        n = len(offsets) - 1
        if start < 0 or start > n:
            raise ValueError(f"{path}: record start {start} out of range 0..{n}")
        stop = min(start + count, n)
        lo = int(offsets[start])
        hi = int(offsets[stop])
        nbytes = hi - lo
        t0 = time.monotonic()
        out = np.empty(nbytes, dtype=np.uint8)
        with open(path, "rb", buffering=0) as fh:
            _pread_exact(fh, out.data, lo, path)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_read(tag, nbytes)
        return VarlenBatch(out, offsets[start : stop + 1] - lo)

    def read_varlen_blocks(self, path: str, block_ids, tag: str) -> VarlenBatch:
        """Scatter-read whole varlen blocks (cf. :meth:`read_blocks`).

        The same contract: maximal runs of consecutive block IDs
        coalesce into one positioned read, the last block may be short,
        and an out-of-range ID raises ``ValueError``.
        """
        ids = list(block_ids)
        if not ids:
            return VarlenBatch.empty()
        offsets = self.varlen_offsets(path, tag)
        n = len(offsets) - 1
        bs = self.block_records
        n_blocks = (n + bs - 1) // bs
        bad = [b for b in ids if b < 0 or b >= n_blocks]
        if bad:
            raise ValueError(
                f"{path}: block id {bad[0]} out of range "
                f"(file has {n_blocks} blocks of {bs} records)"
            )
        parts = []
        i = 0
        while i < len(ids):
            j = i + 1
            while j < len(ids) and ids[j] == ids[j - 1] + 1:
                j += 1
            start = ids[i] * bs
            stop = min(ids[j - 1] * bs + bs, n)
            parts.append(
                self.read_varlen_range(
                    path, start, stop - start, tag, offsets=offsets
                )
            )
            i = j
        return VarlenBatch.concat(parts)

    def write_varlen_file(self, path: str, batch: VarlenBatch, tag: str) -> None:
        """Write a batch as ``path`` + ``path.idx``, with accounting."""
        appender = self.varlen_appender(path, tag)
        appender.append(batch)
        appender.close()

    def varlen_appender(self, path: str, tag: str) -> "VarlenAppender":
        return VarlenAppender(self, path, tag)

    def write_at_bytes(
        self, handle, byte_offset: int, payload, tag: str
    ) -> None:
        """Place a raw byte chunk at a known byte offset (string phase 3)."""
        t0 = time.monotonic()
        handle.seek(byte_offset)
        clip = self._write_gate(handle, getattr(handle, "name", "?"), len(payload))
        if clip is not None:
            handle.write(bytes(payload)[:clip])
            raise self.chaos.enospc_error(getattr(handle, "name", "?"))
        handle.write(payload)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_write(tag, len(payload))

    def preallocate_bytes(self, path: str, nbytes: int) -> None:
        """Byte-sized :meth:`preallocate` (same size-idempotence contract)."""
        try:
            if os.path.getsize(path) == nbytes:
                return
        except OSError:
            pass
        with open(path, "wb") as handle:
            handle.truncate(nbytes)


class ProbeCache:
    """Block-granular key reads with an LRU, for probe-driven selection.

    Mirrors the simulator's use of :class:`repro.em.cache.LRUCache` in
    :mod:`repro.core.selection_phase`: a probe at record position ``pos``
    of a piece file faults in the whole surrounding block once, and the
    paper's ``R log B`` re-touches hit the cache.  The native phases
    select from key windows instead and do not use it; the benchmark
    suite's block-store probe measures its hit ratio.
    """

    def __init__(self, store: FileBlockStore, capacity_blocks: int):
        self.store = store
        self.cache = LRUCache(max(1, capacity_blocks))
        self.block_reads = 0

    @property
    def hits(self) -> int:
        return self.cache.hits

    def key_at(self, path: str, pos: int, tag: str) -> int:
        """The key of record ``pos`` of ``path`` (cached, block-granular)."""
        block_idx = pos // self.store.block_records
        cached = self.cache.get((path, block_idx))
        if cached is None:
            block = self.store.read_block(path, block_idx, tag)
            cached = np.ascontiguousarray(block["key"])
            self.cache.put((path, block_idx), cached)
            self.block_reads += 1
        return int(cached[pos - block_idx * self.store.block_records])


class RecordAppender:
    """Stream-append fixed record arrays to one file (cf. VarlenAppender).

    Input generation and the merge emit their output through this.
    """

    def __init__(self, store: FileBlockStore, path: str, tag: str):
        self.store = store
        self.tag = tag
        self._handle = open(path, "wb")

    def append(self, records: np.ndarray) -> None:
        self.store.append_records(self._handle, records, self.tag)

    def close(self) -> None:
        self._handle.close()


class VarlenAppender:
    """Stream-append varlen batches to one file, writing the index on close.

    The string model's counterpart of :class:`RecordAppender`: input
    generation and the merge emit batches as they go; the record-boundary
    offsets accumulate in memory and land in the ``.idx`` sidecar when
    the file is complete.
    """

    def __init__(self, store: FileBlockStore, path: str, tag: str):
        self.store = store
        self.path = path
        self.tag = tag
        self._handle = open(path, "wb")
        #: Per appended batch, its record ends in file byte offsets.
        self._offsets = [np.zeros(1, dtype=np.int64)]
        self._total = 0
        self._n_records = 0
        self._closed = False

    @property
    def n_records(self) -> int:
        return self._n_records

    def append(self, batch: VarlenBatch) -> None:
        mv = batch.bytes_view()
        t0 = time.monotonic()
        clip = self.store._write_gate(self._handle, self.path, len(mv))
        if clip is not None:
            self._handle.write(bytes(mv)[:clip])
            raise self.store.chaos.enospc_error(self.path)
        self._handle.write(mv)
        self.store._charge_stall(self.tag, time.monotonic() - t0)
        self.store.charge_write(self.tag, len(mv))
        self._offsets.append(batch.offsets[1:] + self._total)
        self._total += len(mv)
        self._n_records += len(batch)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.close()
        offsets = np.concatenate(self._offsets)
        with open(varlen_index_path(self.path), "wb") as handle:
            offsets.tofile(handle)
        self.store.charge_write(self.tag + INDEX_TAG_SUFFIX, offsets.nbytes)
        self.store._invalidate_varlen_index(self.path)


class SequentialReader:
    """Stream a record file block by block (the merge phase's run reader)."""

    def __init__(self, store: FileBlockStore, path: str, tag: str,
                 n_records: Optional[int] = None):
        self.store = store
        self.path = path
        self.tag = tag
        from .records import record_count

        self.n_records = record_count(path) if n_records is None else n_records
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        return self.pos >= self.n_records

    def next_block(self) -> Optional[np.ndarray]:
        """The next block of records, or None at end of file."""
        if self.exhausted:
            return None
        count = min(self.store.block_records, self.n_records - self.pos)
        out = self.store.read_range(self.path, self.pos, count, self.tag)
        if len(out) != count:
            raise IOError(
                f"{self.path}: short read at record {self.pos} "
                f"({len(out)} of {count})"
            )
        self.pos += count
        return out

    def blocks(self) -> Iterator[np.ndarray]:
        while True:
            block = self.next_block()
            if block is None:
                return
            yield block
