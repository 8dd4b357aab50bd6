"""Pipelined I/O for the native backend: read-ahead and write-behind.

The paper's merging phases are I/O-optimal only because fetches are
*overlapped* with computation: the prediction sequence (the blocks in the
order the merge will need them, known in advance from each block's
smallest key) is turned into an optimal fetch schedule by the
Hutchinson–Sanders–Vitter duality of Appendix A.  The simulator already
implements that schedule (:mod:`repro.em.prefetch`); this module applies
it to *real files*:

* :class:`Prefetcher` — a small pool of background reader threads that
  fetches blocks in the order :func:`plan_fetch_order` dictates
  (``prediction_order`` + ``optimal_prefetch_schedule``), holding at most
  ``W`` fetched-but-unconsumed blocks.  The consumer asks for blocks in
  its own order; a block the schedule has not delivered yet is fetched
  directly on the calling thread (counted as a schedule miss), so the
  pipeline can never deadlock, only degrade to the synchronous path.
* :class:`WriteBehind` — a single writer thread fed from a bounded queue
  that makes appends, positioned writes and whole-file spills
  non-blocking.  The byte budget caps the record data parked in user
  space; a producer that outruns the disk blocks (and the wait is
  accounted as stall time).  Write errors — including chaos-injected
  torn ENOSPC writes (:mod:`repro.testing.chaos`) — are re-raised on the
  producer thread at the next call or at :meth:`WriteBehind.close`, so
  the fail-fast contract survives the thread hop.

Accounting discipline: background threads move bytes but never touch the
store's counters; the *consumer* charges each read when it takes the
block and the writer thread charges writes through the normal store
methods (which only count main-thread time as stall).  Conservation
invariants (each phase moves exactly N·16 bytes) therefore hold verbatim
in pipelined mode, which the conformance harness asserts.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..em.prefetch import optimal_prefetch_schedule, prediction_order
from .records import read_records

__all__ = [
    "Prefetcher",
    "WriteBehind",
    "plan_fetch_order",
    "sequential_fetch_order",
]


def plan_fetch_order(
    triples: Sequence[Tuple[int, int, int]],
    file_ids: Sequence[int],
    n_buffers: int,
) -> List[int]:
    """Fetch order for read requests consumed in prediction order.

    ``triples[i] = (key, file, block_in_file)`` ranks request ``i`` in the
    consumption (prediction) order; ``file_ids[i]`` names its source file,
    which plays the role of a disk in Appendix A's schedule (fetches from
    distinct files may proceed concurrently, a file serves one fetch per
    step).  Returns a permutation of ``range(len(triples))``: the request
    indices in optimal fetch order for a ``n_buffers``-block pool.
    """
    if len(triples) != len(file_ids):
        raise ValueError(f"{len(triples)} triples vs {len(file_ids)} file ids")
    if not triples:
        return []
    pred = prediction_order(triples)
    n_files = max(file_ids) + 1
    disk_in_pred = [file_ids[i] for i in pred]
    sched = optimal_prefetch_schedule(disk_in_pred, n_buffers, n_files)
    return [pred[pos] for pos in sched]


def sequential_fetch_order(file_ids: Sequence[int], n_buffers: int) -> List[int]:
    """Fetch order when the consumption order is already known.

    The caller's request list *is* the prediction sequence (requests are
    consumed in index order), so only the disk-scheduling half of
    Appendix A applies.
    """
    return plan_fetch_order(
        [(i, 0, 0) for i in range(len(file_ids))], file_ids, n_buffers
    )


class Prefetcher:
    """Background block fetches against a :class:`FileBlockStore`'s files.

    ``requests[i] = (path, start_record, count)``; ``fetch_order`` is a
    permutation of the request indices (from :func:`plan_fetch_order`).
    At most ``budget_blocks`` requests are in flight or fetched-but-
    unconsumed at any time.  :meth:`get` hands the consumer request ``i``,
    charging the read to ``store`` *on the consuming thread* and
    recording the wait as stall time in ``stats``.
    """

    def __init__(
        self,
        store,
        requests: Sequence[Tuple[str, int, int]],
        fetch_order: Sequence[int],
        tag: str,
        budget_blocks: int,
        stats=None,
        n_threads: Optional[int] = None,
    ):
        if budget_blocks < 1:
            raise ValueError(f"budget_blocks must be >= 1, got {budget_blocks}")
        if sorted(fetch_order) != list(range(len(requests))):
            raise ValueError("fetch_order is not a permutation of the requests")
        self.store = store
        self.requests = list(requests)
        self.tag = tag
        self.budget = budget_blocks
        self.stats = stats
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._order = list(fetch_order)
        self._cursor = 0
        self._results: Dict[int, object] = {}   # idx -> ndarray or exception
        self._in_flight: set = set()
        self._skipped: set = set()              # consumer fetched these directly
        self._stopped = False
        n_files = len({r[0] for r in self.requests}) or 1
        count = n_threads if n_threads is not None else min(4, n_files)
        self._threads = [
            threading.Thread(
                target=self._fetch_loop,
                name=f"native-prefetch-{store.rank}-{i}",
                daemon=True,
            )
            for i in range(max(1, count))
        ]
        for t in self._threads:
            t.start()

    # -- background side -------------------------------------------------------

    def _next_index(self) -> Optional[int]:
        """Claim the next schedulable request (holding the lock)."""
        while self._cursor < len(self._order):
            idx = self._order[self._cursor]
            if idx in self._skipped:
                self._cursor += 1
                continue
            if len(self._results) + len(self._in_flight) >= self.budget:
                return None
            self._cursor += 1
            self._in_flight.add(idx)
            return idx
        return None

    def _fetch_loop(self) -> None:
        while True:
            with self._cond:
                idx = self._next_index()
                while idx is None and not self._stopped:
                    if self._cursor >= len(self._order):
                        return
                    self._cond.wait(0.5)
                    idx = self._next_index()
                if self._stopped:
                    return
            path, start, count = self.requests[idx]
            try:
                block = read_records(path, start, count)
                if len(block) != count:
                    raise IOError(
                        f"{path}: short read at record {start} "
                        f"({len(block)} of {count})"
                    )
                payload: object = block
            except BaseException as exc:  # surfaced to the consumer in get()
                payload = exc
            with self._cond:
                self._in_flight.discard(idx)
                self._results[idx] = payload
                if self.stats is not None:
                    self.stats.add_counter(f"{self.tag}_prefetch_fetched")
                    self.stats.note_max(
                        f"{self.tag}_prefetch_inflight_hwm",
                        len(self._results) + len(self._in_flight),
                    )
                self._cond.notify_all()

    # -- consumer side ---------------------------------------------------------

    def get(self, idx: int) -> np.ndarray:
        """Request ``idx``'s block, waiting only while a fetch can deliver it.

        The consumer waits as long as the schedule can still produce the
        block: it is in flight, or unclaimed with budget slots free (a
        fetch thread will reach it).  When the pool is full of blocks the
        consumer does not want yet — the one situation where waiting
        would deadlock fetcher and consumer — the block is fetched
        directly on the calling thread and counted as a schedule miss.
        """
        start_wait = time.monotonic()
        miss = False
        with self._cond:
            while True:
                if idx in self._results:
                    payload = self._results.pop(idx)
                    self._cond.notify_all()  # a budget slot freed up
                    if isinstance(payload, BaseException):
                        raise payload
                    waited = time.monotonic() - start_wait
                    if self.stats is not None and waited > 0:
                        self.stats.add_stall(self.tag, waited)
                    self.store.charge_read(self.tag, payload.nbytes)
                    return payload
                pool_full = (
                    len(self._results) + len(self._in_flight) >= self.budget
                )
                if idx not in self._in_flight and (pool_full or self._stopped):
                    self._skipped.add(idx)
                    miss = True
                    break
                self._cond.wait(0.5)
        assert miss
        if self.stats is not None:
            self.stats.add_counter(f"{self.tag}_prefetch_direct")
            waited = time.monotonic() - start_wait
            if waited > 0:
                self.stats.add_stall(self.tag, waited)
        return self.store.read_range(
            self.requests[idx][0], self.requests[idx][1], self.requests[idx][2],
            self.tag,
        )

    def buffered_bytes(self) -> int:
        with self._lock:
            return sum(
                b.nbytes for b in self._results.values()
                if isinstance(b, np.ndarray)
            )

    def close(self) -> None:
        """Stop the reader threads (idempotent; safe mid-stream)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Writer-queue operation kinds.
_OP_APPEND, _OP_AT, _OP_FILE = "append", "at", "file"


class WriteBehind:
    """Bounded write-behind buffer: one writer thread per store user.

    All writes are executed through the owning store's methods, so
    per-tag byte accounting and the chaos write gate (torn ENOSPC
    writes) behave exactly as on the synchronous path — just on a
    background thread.  Any write error is re-raised on the producer
    thread at the next call, at :meth:`flush` or at :meth:`close`.
    """

    def __init__(self, store, tag: str, budget_bytes: int, stats=None):
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self.store = store
        self.tag = tag
        self.budget = budget_bytes
        self.stats = stats
        self._cond = threading.Condition()
        self._queue: List[tuple] = []
        self._queued_bytes = 0
        self._error: Optional[BaseException] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._write_loop,
            name=f"native-write-behind-{store.rank}-{tag}",
            daemon=True,
        )
        self._thread.start()

    # -- producer side ---------------------------------------------------------

    def _submit(self, op: tuple, nbytes: int) -> None:
        start_wait = time.monotonic()
        with self._cond:
            if self._error is not None:
                raise self._error
            if self._closed:
                raise RuntimeError("write-behind buffer already closed")
            # Admit an oversize item only into an empty queue, so a piece
            # larger than the budget still drains one at a time.
            while self._queued_bytes > 0 and self._queued_bytes + nbytes > self.budget:
                self._cond.wait(0.5)
                if self._error is not None:
                    raise self._error
            self._queue.append(op)
            self._queued_bytes += nbytes
            if self.stats is not None:
                self.stats.add_counter(f"{self.tag}_write_behind_chunks")
                self.stats.note_max(
                    f"{self.tag}_write_behind_hwm_bytes", self._queued_bytes
                )
            self._cond.notify_all()
        waited = time.monotonic() - start_wait
        if self.stats is not None and waited > 0.001:
            self.stats.add_stall(self.tag, waited)

    def append(self, handle, records: np.ndarray) -> None:
        """Deferred ``store.append_records(handle, records, tag)``."""
        self._submit((_OP_APPEND, handle, records), records.nbytes)

    def write_at(self, handle, record_offset: int, payload: bytes) -> None:
        """Deferred ``store.write_at(handle, record_offset, payload, tag)``."""
        self._submit((_OP_AT, handle, record_offset, payload), len(payload))

    def write_file(self, path: str, records: np.ndarray) -> None:
        """Deferred ``store.write_file(path, records, tag)``."""
        self._submit((_OP_FILE, path, records), records.nbytes)

    def queued_bytes(self) -> int:
        with self._cond:
            return self._queued_bytes

    # -- writer thread ---------------------------------------------------------

    def _write_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed and self._error is None:
                    self._cond.wait(0.5)
                if self._error is not None or (self._closed and not self._queue):
                    return
                op = self._queue.pop(0)
            try:
                kind = op[0]
                if kind == _OP_APPEND:
                    _, handle, records = op
                    self.store.append_records(handle, records, self.tag)
                    nbytes = records.nbytes
                elif kind == _OP_AT:
                    _, handle, offset, payload = op
                    self.store.write_at(handle, offset, payload, self.tag)
                    nbytes = len(payload)
                else:
                    _, path, records = op
                    self.store.write_file(path, records, self.tag)
                    nbytes = records.nbytes
            except BaseException as exc:
                with self._cond:
                    self._error = exc
                    self._cond.notify_all()
                return
            with self._cond:
                self._queued_bytes -= nbytes
                self._cond.notify_all()

    # -- lifecycle -------------------------------------------------------------

    def flush(self, timeout: float = 300.0) -> None:
        """Block until every queued write reached the file (or raise)."""
        start_wait = time.monotonic()
        deadline = start_wait + timeout
        with self._cond:
            while self._queue or self._queued_bytes > 0:
                if self._error is not None:
                    raise self._error
                if time.monotonic() > deadline:
                    raise IOError(
                        f"write-behind flush timed out with "
                        f"{self._queued_bytes} bytes queued"
                    )
                self._cond.wait(0.5)
            if self._error is not None:
                raise self._error
        waited = time.monotonic() - start_wait
        if self.stats is not None and waited > 0.001:
            self.stats.add_stall(self.tag, waited)

    def close(self, raise_error: bool = True) -> None:
        """Flush, stop the writer thread, and surface any pending error."""
        error: Optional[BaseException] = None
        try:
            if raise_error:
                self.flush()
        except BaseException as exc:
            error = exc
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=10.0)
        with self._cond:
            if error is None and self._error is not None:
                error = self._error
        if error is not None and raise_error:
            raise error

    def __enter__(self) -> "WriteBehind":
        return self

    def __exit__(self, exc_type, *rest) -> None:
        # On an exception path, don't mask it with a flush error.
        self.close(raise_error=exc_type is None)
