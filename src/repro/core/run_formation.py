"""Phase one of CANONICALMERGESORT: run formation (paper Section IV).

``R = N/M`` global runs are created.  For each run, every node contributes
a memory-load of its local input blocks, the run is sorted with the
distributed internal sort, and each node writes its (exact-quantile) piece
of the run back to its *local* disks — this locality is what saves
CanonicalMergeSort the extra communication of the globally striped
algorithm.

Two details from the paper are implemented here:

* **Randomization** — each PE shuffles the IDs of its local input blocks
  before chopping them into runs, so every run sees a random subset of
  every node's data and all runs get similar key distributions (the crux
  of Appendix C's data-movement bound).  With ``randomize=False`` the
  blocks are taken in their natural order, which is the configuration of
  the worst-case experiment (Figure 6).
* **Overlapping** — while run ``i`` is sorted, the already-sorted run
  ``i−1`` is still being written and the input of run ``i+1`` is already
  being fetched (Section IV-E).  Reads within a chunk are issued in
  disk-offset (elevator) order, modeling the offline disk scheduling the
  paper mentions for run formation.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from ..cluster.cluster import Cluster
from ..em.block import BID
from ..em.context import ExternalMemory
from ..em.file import DistributedRun, LocalRunPiece, write_piece
from .config import SortConfig
from .internal_sort import distributed_sort_run
from .stats import SortStats

__all__ = ["run_formation", "TAG"]

TAG = "run_formation"


def _chunk_schedule(
    input_blocks: List[BID], config: SortConfig, rank: int, piece_blocks: int
) -> List[List[BID]]:
    """Partition the local input blocks into per-run chunks.

    Applies the randomized shuffle of block IDs when configured; within
    each chunk, blocks are ordered by (disk, slot) so reads proceed in
    elevator order per disk.
    """
    order = list(input_blocks)
    if config.randomize:
        rng = np.random.default_rng((config.seed, rank))
        rng.shuffle(order)
    chunks = [
        sorted(order[start : start + piece_blocks], key=lambda b: (b.disk, b.slot))
        for start in range(0, len(order), piece_blocks)
    ]
    return chunks


def _read_chunk(em: ExternalMemory, rank: int, chunk: List[BID], depth: int) -> Generator:
    """Read a chunk's blocks (bounded read-ahead), free them, return keys."""
    store = em.store(rank)
    inflight = []
    arrays = []
    idx = 0
    while idx < len(chunk) or inflight:
        while idx < len(chunk) and len(inflight) < depth:
            inflight.append((chunk[idx], store.read(chunk[idx], tag=TAG)))
            idx += 1
        bid, ev = inflight.pop(0)
        keys = yield ev
        arrays.append(keys)
        store.free(bid)  # in-place: slot immediately reusable for run output
    if not arrays:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(arrays)


def run_formation(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    input_blocks: List[BID],
) -> Generator:
    """SPMD generator for phase one; returns the list of DistributedRuns.

    Every rank receives the same run descriptors (piece objects of all
    nodes are exchanged through an allgather whose wire size is only the
    descriptor metadata).
    """
    node = cluster.nodes[rank]
    comm = cluster.comm
    store = em.store(rank)
    piece_blocks = config.piece_blocks(cluster.spec)
    chunks = _chunk_schedule(input_blocks, config, rank, piece_blocks)

    # All nodes hold equally many blocks by construction; every rank must
    # agree on R since the internal sort is collective.
    n_runs = yield comm.allreduce(rank, len(chunks), max)
    depth = config.resolved_write_buffers(cluster.spec)

    pieces: List[LocalRunPiece] = []
    write_procs: List = []
    read_proc = None
    if config.overlap and chunks:
        read_proc = cluster.sim.process(
            _read_chunk(em, rank, chunks[0], depth), name=f"rf-read0@{rank}"
        )

    for r in range(n_runs):
        chunk = chunks[r] if r < len(chunks) else []
        # Fetch this run's input (possibly prefetched), start next prefetch.
        if config.overlap:
            keys = (yield read_proc) if read_proc is not None else np.empty(0, np.uint64)
            nxt = chunks[r + 1] if r + 1 < len(chunks) else None
            read_proc = (
                cluster.sim.process(
                    _read_chunk(em, rank, nxt, depth), name=f"rf-read{r + 1}@{rank}"
                )
                if nxt is not None
                else None
            )
        else:
            keys = yield from _read_chunk(em, rank, chunk, depth)

        # Globally sort the run (collective).
        piece_keys = yield from distributed_sort_run(
            rank, cluster, config, stats, keys, TAG
        )

        # Write the piece locally, overlapping with the next run's work.
        if write_procs:
            pieces.append((yield write_procs.pop(0)))
        writer = write_piece(
            store,
            piece_keys,
            tag=TAG,
            max_outstanding=depth,
        )
        if config.overlap:
            write_procs.append(cluster.sim.process(writer, name=f"rf-write{r}@{rank}"))
        else:
            pieces.append((yield from writer))

    for proc in write_procs:
        pieces.append((yield proc))

    stats.workers[rank].add_counter("runs_formed", len(pieces))

    # Exchange piece descriptors so every rank can build the global runs.
    all_pieces = yield comm.allgather(
        rank, pieces, nbytes=64.0 * len(pieces)  # descriptor metadata only
    )
    runs = [
        DistributedRun(r, [all_pieces[n][r] for n in range(cluster.n_nodes)])
        for r in range(n_runs)
    ]
    return runs
