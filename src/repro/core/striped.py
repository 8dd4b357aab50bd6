"""Mergesort with global striping (paper Section III).

The I/O-optimal variant: runs and output are striped over *all* disks of
the machine, so up to ``M/B`` runs can be merged in one pass and inputs up
to ``M²/B`` elements sort in two passes — a factor P more than
CanonicalMergeSort's limit.  The price is communication: data crosses the
network during the internal sorting *and* again to reach the disks its
striped blocks live on, in both phases — "4-5 communications for two
passes of sorting".

Phases:

1. **Run formation** — like CanonicalMergeSort's, but each sorted run is
   written globally striped: an all-to-all carries every element to the
   node owning its target block (fraction (P−1)/P of the data).
2. **Merging** — up to ``fan_in`` runs merge per pass.  Blocks are fetched
   in prediction-sequence order in batches of Θ(M/B); the batch (plus the
   leftover of the previous batch) is sorted with the distributed internal
   sort — the paper notes batch merging may be replaced by "fully-fledged
   parallel sorting of batches" — and all elements below the smallest
   unfetched key are emitted, again via an all-to-all onto the stripe.
   With more runs than the fan-in limit, multiple passes run (the
   ``ceil(log_{Θ(M/B)} N/M)`` merging phases of the paper).

Every batch keeps at most one block per run unmerged (the prediction-
sequence invariant), bounding the leftover memory by R·B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..em.context import ExternalMemory
from ..em.writebuffer import SegmentBlock
from .config import SortConfig
from .internal_sort import distributed_sort_run
from .run_formation import _chunk_schedule, _read_chunk
from .stats import PhaseClock, SortStats

__all__ = ["GlobalStripedMergeSort", "StripedSortResult", "StripedRun"]


@dataclass
class StripedRun:
    """A sorted run striped block-wise over all disks of the machine."""

    blocks: List[SegmentBlock]  # global order; bid.node cycles over nodes

    @property
    def n_keys(self) -> int:
        return sum(b.count for b in self.blocks)


@dataclass
class StripedSortResult:
    """Outcome of a globally striped sort."""

    config: SortConfig
    n_nodes: int
    stats: SortStats
    output: StripedRun
    n_runs: int
    merge_passes: int

    def global_keys(self, em: ExternalMemory) -> np.ndarray:
        """Materialize the globally sorted output (validation only)."""
        parts = [
            em.store(b.bid.node).peek(b.bid)[: b.count] for b in self.output.blocks
        ]
        return np.concatenate(parts) if parts else np.empty(0, np.uint64)


class _StripeAllocator:
    """Round-robin block placement over every disk of the machine."""

    def __init__(self, em: ExternalMemory, n_nodes: int, disks_per_node: int):
        self.em = em
        self.n_slots = n_nodes * disks_per_node
        self.disks_per_node = disks_per_node
        self._cursor = 0

    def next_owner(self) -> Tuple[int, int]:
        """(node, disk) of the next stripe slot."""
        slot = self._cursor
        self._cursor = (self._cursor + 1) % self.n_slots
        node, disk = divmod(slot, self.disks_per_node)
        return node, disk


class GlobalStripedMergeSort:
    """Two-pass I/O-optimal sort with globally striped layout (§III)."""

    name = "GlobalStripedMergeSort"

    def __init__(self, cluster: Cluster, config: SortConfig, fan_in: Optional[int] = None):
        self.cluster = cluster
        self.config = config
        # Fan-in Θ(M/B): one buffer block per run in *cumulative* memory.
        limit = max(2, config.piece_blocks(cluster.spec) * cluster.n_nodes // 2)
        self.fan_in = min(fan_in, limit) if fan_in is not None else limit

    def sort(self, em: ExternalMemory, inputs) -> StripedSortResult:
        """Sort pre-placed input blocks into one globally striped run."""
        cluster = self.cluster
        config = self.config
        stats = SortStats(config, cluster.n_nodes)
        shared: dict = {}

        def pe_main(rank: int, cluster: Cluster):
            comm = cluster.comm
            # Every rank replays the same collective sequence, so per-rank
            # allocator replicas stay in lock-step and agree on owners.
            alloc = _StripeAllocator(em, cluster.n_nodes, cluster.spec.disks_per_node)
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "run_formation", sim=cluster.sim)
            runs = yield from self._run_formation(rank, em, stats, inputs[rank], alloc)
            timer.stop()
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "merge", sim=cluster.sim)
            passes = 0
            while len(runs) > 1:
                groups = [
                    runs[i : i + self.fan_in] for i in range(0, len(runs), self.fan_in)
                ]
                merged: List[StripedRun] = []
                for group in groups:
                    merged.append(
                        (yield from self._merge_pass(rank, em, stats, group, alloc))
                    )
                runs = merged
                passes += 1
            if not runs:
                runs = [StripedRun([])]
            timer.stop()
            if rank == 0:
                shared["runs0"] = runs[0]
                shared["passes"] = passes
            return runs[0]

        started = cluster.sim.now
        cluster.run_spmd(pe_main)
        stats.total_time = cluster.sim.now - started
        stats.collect_io(cluster)
        n_runs = int(stats.workers[0].counters.get("n_runs", 0))
        stats.n_runs = n_runs
        return StripedSortResult(
            config=config,
            n_nodes=cluster.n_nodes,
            stats=stats,
            output=shared["runs0"],
            n_runs=n_runs,
            merge_passes=shared.get("passes", 0),
        )

    # -- phase one ---------------------------------------------------------------

    def _run_formation(self, rank, em, stats, input_blocks, alloc) -> Generator:
        cluster = self.cluster
        config = self.config
        comm = cluster.comm
        tag = "run_formation"
        piece_blocks = config.piece_blocks(cluster.spec)
        chunks = _chunk_schedule(input_blocks, config, rank, piece_blocks)
        n_runs = yield comm.allreduce(rank, len(chunks), max)
        runs: List[StripedRun] = []
        for r in range(n_runs):
            chunk = chunks[r] if r < len(chunks) else []
            keys = yield from _read_chunk(em, rank, chunk, config.resolved_write_buffers(cluster.spec))
            piece = yield from distributed_sort_run(
                rank, cluster, config, stats, keys, tag
            )
            run = yield from self._write_striped(rank, em, stats, piece, alloc, tag)
            runs.append(run)
        # Remember R for the result (rank 0 only; all ranks agree).
        if rank == 0:
            stats.workers[0].add_counter("n_runs", n_runs)
        return runs

    # -- striped writing ------------------------------------------------------------

    def _write_striped(self, rank, em, stats, piece_keys, alloc, tag) -> Generator:
        """Collectively write each rank's sorted piece onto the stripe.

        The pieces of all ranks form one sorted global sequence; blocks are
        assigned round-robin over all disks, and an all-to-all ships each
        rank's data to the owners of its target blocks.
        """
        cluster = self.cluster
        config = self.config
        comm = cluster.comm
        n_nodes = cluster.n_nodes
        be = config.block_elems
        bpk = config.bytes_per_key

        counts = yield comm.allgather(rank, len(piece_keys), nbytes=8.0)
        offsets = [0] * (n_nodes + 1)
        for i, c in enumerate(counts):
            offsets[i + 1] = offsets[i] + c
        total = offsets[-1]
        n_blocks = math.ceil(total / be) if total else 0
        # Deterministic stripe plan: every rank derives the same owners.
        owners = [alloc.next_owner() for _ in range(n_blocks)]

        # Ship each of my keys' spans to the owner of its target block.
        send: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(n_nodes)]
        send_bytes = [0.0] * n_nodes
        my_off = offsets[rank]
        pos = my_off
        while pos < offsets[rank + 1]:
            blk = pos // be
            blk_end = min((blk + 1) * be, offsets[rank + 1])
            node, _disk = owners[blk]
            span = piece_keys[pos - my_off : blk_end - my_off]
            send[node].append((blk, span))
            if node != rank:
                send_bytes[node] += len(span) * bpk
            pos = blk_end
        recv, _rb = yield comm.alltoallv(rank, send, send_bytes)

        # Owners assemble and write their stripe blocks.
        mine: dict = {}
        for src in range(n_nodes):
            for blk, span in recv[src]:
                mine.setdefault(blk, []).append((src, span))
        outstanding = []
        max_out = config.resolved_write_buffers(cluster.spec)
        written: List[Tuple[int, SegmentBlock]] = []
        store = em.store(rank)
        for blk in sorted(mine):
            parts = [span for _src, span in sorted(mine[blk])]
            data = parts[0] if len(parts) == 1 else np.concatenate(parts)
            node, disk = owners[blk]
            assert node == rank
            bid = store.allocate(disk=disk)
            written.append((blk, SegmentBlock(bid, len(data), int(data[0]))))
            outstanding.append(store.write(bid, data, tag=tag))
            if len(outstanding) > max_out:
                yield outstanding.pop(0)
        for ev in outstanding:
            yield ev

        # Everyone learns the full block list (metadata-sized gather).
        gathered = yield comm.allgather(rank, written, nbytes=24.0 * len(written))
        blocks: List[Optional[SegmentBlock]] = [None] * n_blocks
        for per_rank in gathered:
            for blk, seg in per_rank:
                blocks[blk] = seg
        return StripedRun([b for b in blocks if b is not None])

    # -- merging passes -------------------------------------------------------------

    def _merge_pass(self, rank, em, stats, group: List[StripedRun], alloc) -> Generator:
        """Merge up to ``fan_in`` striped runs into one striped run."""
        cluster = self.cluster
        config = self.config
        comm = cluster.comm
        n_nodes = cluster.n_nodes
        tag = "merge"

        # Prediction sequence over all blocks of the group.
        entries: List[Tuple[int, int, int]] = []  # (first_key, run, idx)
        for g, run in enumerate(group):
            for i, blk in enumerate(run.blocks):
                entries.append((blk.first_key, g, i))
        order = sorted(range(len(entries)), key=lambda i: entries[i])
        flat = [group[entries[i][1]].blocks[entries[i][2]] for i in order]

        batch_blocks = max(
            n_nodes, config.piece_blocks(cluster.spec) * n_nodes // 2
        )
        leftover = np.empty(0, np.uint64)
        out_blocks: List[SegmentBlock] = []
        cursor = 0
        # Collective-safe loop bound: the final batch has no boundary, so
        # every rank's leftover empties exactly when ``flat`` is exhausted.
        while cursor < len(flat):
            batch = flat[cursor : cursor + batch_blocks]
            next_cursor = cursor + len(batch)
            boundary = (
                int(flat[next_cursor].first_key) if next_cursor < len(flat) else None
            )
            # Each node reads the batch blocks it owns (parallel stripe read).
            arrays = []
            inflight = []
            store = em.store(rank)
            for blk in batch:
                if blk.bid.node != rank:
                    continue
                inflight.append(store.read(blk.bid, tag=tag))
                if len(inflight) > config.resolved_write_buffers(cluster.spec):
                    arrays.append((yield inflight.pop(0)))
            for ev in inflight:
                arrays.append((yield ev))
            for blk in batch:
                if blk.bid.node == rank:
                    store.free(blk.bid)
            local = np.concatenate([leftover] + arrays) if arrays or len(leftover) else leftover

            # Distributed sort of (leftover + batch); then emit below the
            # boundary — the smallest unfetched key.
            piece = yield from distributed_sort_run(
                rank, cluster, config, stats, local, tag
            )
            if boundary is None:
                emit, leftover = piece, np.empty(0, np.uint64)
            else:
                cut = int(np.searchsorted(piece, boundary, side="left"))
                emit, leftover = piece[:cut], piece[cut:]
            run_part = yield from self._write_striped(
                rank, em, stats, emit, alloc, tag
            )
            out_blocks.extend(run_part.blocks)
            cursor = next_cursor
        return StripedRun(out_blocks)
