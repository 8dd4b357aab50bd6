"""Spill-directory block store: the native counterpart of ``em.blockmanager``.

The simulator's :class:`~repro.em.blockmanager.BlockStore` hands out
block IDs and charges a performance model; this store hands out *files*
in a spill directory and moves real bytes.  The same accounting hooks
exist — every read and write is tagged with the phase that issued it, so
the per-phase I/O volumes the paper's figures are built from fall out of
a real run too.

Layout of one sort's spill directory::

    input_<rank>.dat            gensort-style input slice of one worker
    run<r>_piece<rank>.dat      phase-1 output: this worker's piece of run r
    slab<r>_rank<rank>.dat      phase-3 output: what other workers sent this one
                                of run r (the part of its segment that was not
                                already in its own piece file)
    output_<rank>.dat           phase-4 output: the rank's sorted slice
    manifest_<rank>.jsonl       recovery journal (when checkpointing)

The store is byte-addressed and knows one path per operation: a
coalescing positioned read into the caller's buffer, a chaos-gated write
(whole file, append, or at a byte offset), a preallocation, and a cache
of ``.idx`` record-boundary sidecars.  Which bytes records ``[a, b)``
occupy, and how read bytes become a part, is the job's
:class:`~repro.native.records.RecordModel`'s to say: a fixed16 record
sits at ``16·i`` (no index), a string record at the boundary its file's
``.idx`` holds — or, for a slab, the boundaries the all-to-all rebuilt in
memory (:meth:`FileBlockStore.set_index`; written to the slab's ``.idx``
only when the job journals).  Index I/O is charged under
``tag + INDEX_TAG_SUFFIX``, so the per-phase data byte counters stay
exactly conserved.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..em.cache import LRUCache
from .records import MODELS, RecordModel, varlen_index_path

__all__ = [
    "Appender",
    "FileBlockStore",
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


class FileBlockStore:
    """One worker's view of the spill directory, with tagged I/O accounting.

    ``model`` is the job's record model (fixed16 when omitted): it maps
    record positions to byte offsets and read bytes to parts; the store
    moves the bytes.
    """

    def __init__(self, root: str, rank: int, block_records: int, chaos=None,
                 namespace: str = "", model: Optional[RecordModel] = None):
        if block_records < 1:
            raise ValueError(f"block_records must be >= 1, got {block_records}")
        self.root = str(root)
        self.rank = rank
        self.block_records = block_records
        self.model = MODELS["fixed16"] if model is None else model
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
        self._index: Dict[str, np.ndarray] = {}
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

    # -- reads ----------------------------------------------------------------

    def _read(self, path: str, bounds, ranges: Sequence[Tuple[int, int]],
              out, tag: Optional[str]):
        """Records ``[a, b)`` of every range, back to back in one buffer:
        one positioned read per range, each charged to ``tag`` (none
        when ``tag`` is None).  ``bounds[i]`` is record ``i``'s byte
        offset; the model supplies the buffer and makes it a part."""
        spans = []
        n_records = nbytes = 0
        for a, b in ranges:
            lo, hi = int(bounds[a]), int(bounds[b])
            spans.append((lo, hi))
            n_records += b - a
            nbytes += hi - lo
        buf = self.model.landing(out, n_records, nbytes)
        mv = buf.view(np.uint8).data
        filled = 0
        if spans:
            with open(path, "rb", buffering=0) as fh:
                for lo, hi in spans:
                    _pread_exact(fh, mv[filled : filled + hi - lo], lo, path)
                    if tag is not None:
                        self.charge_read(tag, hi - lo)
                    filled += hi - lo
        return self.model.part_of(buf, bounds, ranges)

    def _range(self, path: str, start: int, count: int, tag: str):
        """``path``'s boundaries and the one range ``count`` records from
        ``start`` (fewer where the file ends first)."""
        bounds = self.model.boundaries(self, path, tag)
        n = len(bounds) - 1
        if not 0 <= start <= n:
            raise ValueError(f"{path}: record start {start} out of range 0..{n}")
        return bounds, [(start, min(start + count, n))]

    def read_range(self, path: str, start: int, count: int, tag: str, out=None):
        """Read ``count`` records at record offset ``start`` (fewer where
        the file ends first) with one positioned read — fixed16 records
        into the front of ``out`` when given (``ValueError`` if it is too
        small)."""
        bounds, ranges = self._range(path, start, count, tag)
        t0 = time.monotonic()
        part = self._read(path, bounds, ranges, out, tag)
        self._charge_stall(tag, time.monotonic() - t0)
        return part

    def fetch(self, path: str, start: int, count: int, tag: str):
        """:meth:`read_range` without accounting, for the prefetcher's
        reader threads: the consumer charges the bytes when it takes
        them (an ``.idx`` load is still charged, once, under ``tag``)."""
        return self._read(path, *self._range(path, start, count, tag), None, None)

    def read_block(self, path: str, block_idx: int, tag: str):
        """Read one fixed-size block (the last block may be short)."""
        return self.read_range(
            path, block_idx * self.block_records, self.block_records, tag
        )

    def read_blocks(self, path: str, block_ids, tag: str, out=None):
        """Scatter-read whole blocks into one contiguous part.

        The zero-copy sibling of per-block :meth:`read_block` plus a
        concatenation: the destination is allocated once — or, for
        fixed16, is the front of ``out``, run formation's reused chunk
        buffer (``ValueError`` if it is too small) — and each maximal run
        of consecutive block IDs becomes a single positioned read
        straight into its slice (``os.preadv`` where the platform has
        it).  ``block_ids`` may arrive in any order (the schedule is
        shuffled); the file's last block may be short and can sit
        anywhere in the list; an ID outside the file raises
        ``ValueError``.
        """
        ids = list(block_ids)
        if not ids:
            return self._read(path, None, [], out, tag)
        bounds = self.model.boundaries(self, path, tag)
        t0 = time.monotonic()
        n = len(bounds) - 1
        bs = self.block_records
        n_blocks = (n + bs - 1) // bs
        bad = [b for b in ids if b < 0 or b >= n_blocks]
        if bad:
            # A clamped-to-zero read here would silently return a short
            # part and corrupt whatever schedule asked for the block.
            raise ValueError(
                f"{path}: block id {bad[0]} out of range "
                f"(file has {n_blocks} blocks of {bs} records)"
            )
        ranges: List[Tuple[int, int]] = []
        for b in ids:
            a, e = b * bs, min(n, b * bs + bs)
            if ranges and ranges[-1][1] == a:
                # Coalesce: a block right behind a full one extends its read.
                ranges[-1] = (ranges[-1][0], e)
            else:
                ranges.append((a, e))
        part = self._read(path, bounds, ranges, out, tag)
        self._charge_stall(tag, time.monotonic() - t0)
        return part

    def nbytes(self, path: str, lo: int, hi: int, tag: str) -> int:
        """The byte size of records ``[lo, hi)`` of ``path``."""
        bounds = self.model.boundaries(self, path, tag)
        return int(bounds[hi]) - int(bounds[lo])

    # -- writes ---------------------------------------------------------------

    def _write(self, handle, payload, tag: str) -> None:
        """The one chaos-gated write: ``payload`` at ``handle``'s position.

        On an injected disk-full fault, writes the torn prefix the chaos
        spec dictates and raises its ENOSPC error.
        """
        t0 = time.monotonic()
        nbytes = len(payload)
        if self.chaos is not None:
            clip = self.chaos.clip_write(self.rank, nbytes)
            if clip is not None:
                handle.write(bytes(payload[:clip]))
                raise self.chaos.enospc_error(getattr(handle, "name", "?"))
        handle.write(payload)
        self._charge_stall(tag, time.monotonic() - t0)
        self.charge_write(tag, nbytes)

    def write_file(self, path: str, part, tag: str) -> None:
        """Write a whole part as ``path`` (plus its ``.idx`` where the
        model has one)."""
        with open(path, "wb") as handle:
            self._write(handle, self.model.bytes_view(part), tag)
        index = self.model.index_of(part)
        if index is not None:
            self.write_index(path, index, tag)

    def append_records(self, handle, part, tag: str) -> None:
        """Append a part's bytes to an open binary file handle."""
        self._write(handle, self.model.bytes_view(part), tag)

    def appender(self, path: str, tag: str) -> "Appender":
        return Appender(self, path, tag)

    def write_at(self, handle, byte_offset: int, payload, tag: str) -> None:
        """Place a raw chunk at a known byte offset (the all-to-all's
        slabs)."""
        handle.seek(byte_offset)
        self._write(handle, payload, tag)

    def preallocate(self, path: str, nbytes: int) -> None:
        """Create ``path`` sized ``nbytes`` (sparse where supported).

        Idempotent on size: a file already at exactly the target size is
        left untouched, so a restarted all-to-all rewrites its slab in
        place instead of re-creating it.
        """
        try:
            if os.path.getsize(path) == nbytes:
                return
        except OSError:
            pass
        with open(path, "wb") as handle:
            handle.truncate(nbytes)

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
        with self._idx_lock:
            self._index.pop(path, None)

    # -- record-boundary index ------------------------------------------------
    #
    # The ``n + 1`` ``int64`` byte offsets of a file's record boundaries,
    # for a model whose records vary in size: kept in ``<path>.idx`` (see
    # records.write_varlen_file), or in memory only for a slab the
    # all-to-all rebuilt.

    def index(self, path: str, tag: str) -> np.ndarray:
        """``path``'s record boundaries: from memory, or loaded once from
        its ``.idx`` and charged under ``tag + INDEX_TAG_SUFFIX``."""
        with self._idx_lock:
            offsets = self._index.get(path)
            if offsets is not None:
                return offsets
            t0 = time.monotonic()
            offsets = np.fromfile(varlen_index_path(path), dtype=np.int64)
            self._charge_stall(tag, time.monotonic() - t0)
            self.charge_read(tag + INDEX_TAG_SUFFIX, offsets.nbytes)
            if len(offsets) < 1 or offsets[0] != 0:
                raise ValueError(f"{varlen_index_path(path)}: malformed index")
            self._index[path] = offsets
        return offsets

    def set_index(self, path: str, offsets: np.ndarray) -> None:
        """Serve ``path``'s record boundaries from memory, not an ``.idx``
        (the all-to-all rebuilds a slab's as its chunks land)."""
        with self._idx_lock:
            self._index[path] = offsets

    def write_index(self, path: str, offsets: np.ndarray, tag: str,
                    fsync: bool = False) -> None:
        """Write ``path``'s record boundaries as its ``.idx``, charged
        under ``tag + INDEX_TAG_SUFFIX`` and fsynced when asked (a
        journaled slab, whose boundaries must outlive the process).  The
        array written is the cached copy from now on, so a later read of
        ``path`` in this process loads nothing: the caller hands it over
        and must not change it."""
        with open(varlen_index_path(path), "wb") as handle:
            offsets.tofile(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.charge_write(tag + INDEX_TAG_SUFFIX, offsets.nbytes)
        with self._idx_lock:
            self._index[path] = offsets

    # -- probe reads (probe-driven multiway selection) -------------------------

    def probe_cache(self, capacity_blocks: int) -> "ProbeCache":
        return ProbeCache(self, capacity_blocks)


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


class Appender:
    """Stream-append parts to one file.

    Input generation and the merge emit their output through this.  For
    a model whose files carry an ``.idx`` the record boundaries
    accumulate in memory and land in the sidecar when the file is
    complete.  A string part in column form (what sorts and merges make)
    is assembled into record bytes here, by the model's ``bytes_view``:
    the one place run formation's pieces and the merge's output become
    bytes.
    """

    def __init__(self, store: FileBlockStore, path: str, tag: str):
        self.store = store
        self.path = path
        self.tag = tag
        self._handle = open(path, "wb")
        #: Per appended part, its record ends in file byte offsets.
        self._ends = [np.zeros(1, dtype=np.int64)] if store.model.varlen else None
        self._total = 0
        self._closed = False

    def append(self, part) -> None:
        self.store.append_records(self._handle, part, self.tag)
        if self._ends is not None:
            self._ends.append(self.store.model.index_of(part)[1:] + self._total)
        self._total += part.nbytes

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.close()
        if self._ends is not None:
            self.store.write_index(self.path, np.concatenate(self._ends), self.tag)
