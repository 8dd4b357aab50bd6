"""Phase three of CANONICALMERGESORT: local multiway merging.

Every node merges its R run segments into its final output — "each
element is read and written once, no communication is involved in this
phase".  The implementation follows Section III's merging machinery
(which phase three inherits):

* the *prediction sequence* — blocks ordered by their smallest key —
  determines the order blocks are needed in;
* blocks are prefetched into a bounded buffer pool following the optimal
  duality-based schedule of Appendix A (or plain prediction order when
  ``optimal_prefetch`` is off), with the fetcher running as a separate
  simulation process so reads overlap merging;
* batches of arrived blocks are merged up to the *safe boundary* (the
  smallest first-key among not-yet-arrived blocks); elements above the
  boundary stay buffered — "fetched elements that are larger than the
  smallest unfetched elements are kept in internal memory until the next
  batch";
* consumed input blocks are freed immediately so their slots are always
  available for output writes (the in-place property of Section IV-E).
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from ..cluster.cluster import Cluster
from ..em.context import ExternalMemory
from ..em.file import LocalRunPiece
from ..em.prefetch import naive_schedule, optimal_prefetch_schedule
from ..em.writebuffer import SegmentBlock, StreamBlockWriter
from ..records.arrays import merge_sorted_arrays
from ..sim.resources import Pool
from .config import SortConfig
from .stats import SortStats

__all__ = ["merge_phase", "TAG"]

TAG = "merge"

_INF = (float("inf"), float("inf"), float("inf"))


def _fetcher(
    cluster: Cluster,
    store,
    blocks: List[SegmentBlock],
    schedule: List[int],
    pool: Pool,
    arrivals: List,
) -> Generator:
    """Issue block reads in schedule order, gated by the buffer pool.

    Reads are *issued* as soon as a buffer is free and complete
    asynchronously; ``arrivals[pos]`` fires with the keys.
    """
    for pos in schedule:
        yield pool.acquire(1)
        req = store.read(blocks[pos].bid, tag=TAG)

        def deliver(event, pos=pos):
            arrivals[pos].succeed(event.value)

        req.add_callback(deliver)
    return None


def merge_phase(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    segments: List[List[SegmentBlock]],
    sink=None,
) -> Generator:
    """SPMD generator; returns this node's sorted output as a run piece.

    With a ``sink`` (see :mod:`repro.core.pipeline`), the merged stream is
    handed to the sink in sorted order instead of being written to disk —
    the pipelined-sorting mode of the paper's Section VII, saving one full
    write pass.  The return value is then an empty run piece.
    """
    node = cluster.nodes[rank]
    store = em.store(rank)
    n_runs = len(segments)
    spec = cluster.spec

    # Flatten to the prediction sequence: blocks by (first key, run, index).
    flat: List[SegmentBlock] = []
    owner_run: List[int] = []
    for r, seg in enumerate(segments):
        for blk in seg:
            flat.append(blk)
            owner_run.append(r)
    if not flat:
        return LocalRunPiece(rank, [], [], np.empty(0, np.uint64))

    index_in_run = []
    seen = [0] * n_runs
    for r in owner_run:
        index_in_run.append(seen[r])
        seen[r] += 1
    pred = sorted(
        range(len(flat)),
        key=lambda i: (flat[i].first_key, owner_run[i], index_in_run[i]),
    )
    blocks = [flat[i] for i in pred]
    block_run = [owner_run[i] for i in pred]

    # Prefetch schedule over the prediction order.
    n_buffers = config.resolved_prefetch_buffers(spec)
    disk_ids = [blk.bid.disk for blk in blocks]
    if config.optimal_prefetch:
        schedule = optimal_prefetch_schedule(disk_ids, n_buffers, spec.disks_per_node)
    else:
        schedule = naive_schedule(len(blocks))

    pool = Pool(cluster.sim, n_buffers, name=f"prefetch@{rank}")
    arrivals = [cluster.sim.event() for _ in blocks]
    fetch_proc = cluster.sim.process(
        _fetcher(cluster, store, blocks, schedule, pool, arrivals),
        name=f"fetch@{rank}",
    )

    # Per-run consumption state: position of the next unarrived block.
    run_positions: List[List[int]] = [[] for _ in range(n_runs)]
    for pos, r in enumerate(block_run):
        run_positions[r].append(pos)
    next_ptr = [0] * n_runs  # index into run_positions[r]

    avail: List[List[np.ndarray]] = [[] for _ in range(n_runs)]
    outstanding: List = []
    writer = (
        None
        if sink is not None
        else StreamBlockWriter(
            store, TAG, outstanding, config.resolved_write_buffers(spec)
        )
    )
    total_keys = sum(blk.count for blk in blocks)
    emitted = 0

    def boundary_key() -> Optional[int]:
        """Smallest first-key of any not-yet-consumed block (None = done)."""
        best = None
        for r in range(n_runs):
            if next_ptr[r] < len(run_positions[r]):
                pos = run_positions[r][next_ptr[r]]
                k = blocks[pos].first_key
                if best is None or k < best:
                    best = k
        return best

    def emit_up_to(bound: Optional[int]) -> Generator:
        """Merge and write all buffered keys strictly below ``bound``."""
        nonlocal emitted
        ready: List[np.ndarray] = []
        for r in range(n_runs):
            if not avail[r]:
                continue
            keep: List[np.ndarray] = []
            for arr in avail[r]:
                if bound is None:
                    ready.append(arr)
                    continue
                cut = int(np.searchsorted(arr, bound, side="left"))
                if cut > 0:
                    ready.append(arr[:cut])
                if cut < len(arr):
                    keep.append(arr[cut:])
            avail[r] = keep if bound is not None else []
        if not ready:
            return
        out = merge_sorted_arrays(ready)
        emitted += len(out)
        yield node.merge_compute(
            config.keys_to_elements(len(out)),
            arity=max(2, n_runs),
            elem_bytes=config.element.elem_bytes,
            tag=TAG,
        )
        if sink is not None:
            cost = sink.consume(out)
            if cost:
                yield node.compute(cost, tag=TAG)
        else:
            yield from writer.add(out)

    for consume in range(len(blocks)):
        keys = yield arrivals[consume]
        r = block_run[consume]
        avail[r].append(keys)
        next_ptr[r] += 1
        store.free(blocks[consume].bid)  # slot immediately reusable for output
        pool.release(1)
        yield from emit_up_to(boundary_key())

    yield from emit_up_to(None)
    if writer is not None:
        yield from writer.flush()
    while outstanding:
        yield outstanding.pop(0)
    yield fetch_proc

    if emitted != total_keys:
        raise AssertionError(
            f"merge conservation violated on node {rank}: "
            f"emitted {emitted} of {total_keys} keys"
        )
    stats.workers[rank].add_counter("merge_output_keys", emitted)

    if writer is None:
        return LocalRunPiece(rank, [], [], np.empty(0, np.uint64))
    out_blocks = [sb.bid for sb in writer.blocks]
    out_counts = [sb.count for sb in writer.blocks]
    out_firsts = np.asarray([sb.first_key for sb in writer.blocks], dtype=np.uint64)
    return LocalRunPiece(
        node=rank,
        blocks=out_blocks,
        counts=out_counts,
        first_keys=out_firsts,
    )
