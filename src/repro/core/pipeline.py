"""Pipelined sorting (paper Section VII).

The paper's outlook sketches a *pipelined* use of CanonicalMergeSort:

  "This algorithm could also be useful for pipelined sorting where the
  run formation does not fetch the data but obtains it from some data
  generator (no randomization possible for CANONICALMERGESORT) and where
  the output is not written to disk but fed into a postprocessor that
  requires its input in sorted order (e.g., variants of Kruskal's
  algorithm)."

This module implements exactly that: a :class:`BlockSource` feeds run
formation (no input pass over disk, and — as the paper notes — no block
randomization, since blocks are consumed as they are produced), and a
:class:`Sink` receives each PE's sorted quantile stream during the merge
phase (no output pass).  Total I/O drops from ~4·N to ~2·N bytes (the
runs still spill to disk, because N > M).

Sources/sinks may report per-key processing costs so producer/consumer
computation is charged to the simulation clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..em.context import ExternalMemory
from ..em.file import DistributedRun, LocalRunPiece, write_piece
from .all_to_all import all_to_all_phase
from .config import SortConfig
from .internal_sort import distributed_sort_run
from .merge_phase import merge_phase
from .selection_phase import selection_phase
from .stats import PhaseClock, SortStats

__all__ = [
    "BlockSource",
    "ArraySource",
    "Sink",
    "CollectingSink",
    "PipelinedMergeSort",
    "PipelineResult",
]


class BlockSource:
    """Produces this node's input keys, block by block.

    Subclasses override :meth:`next_block` (return None when exhausted)
    and optionally :meth:`cost_seconds` to model upstream computation.
    """

    def next_block(self) -> Optional[np.ndarray]:
        raise NotImplementedError

    def cost_seconds(self, n_keys: int) -> float:
        """Modeled producer time for ``n_keys`` (0 = fully overlapped)."""
        return 0.0


class ArraySource(BlockSource):
    """A source backed by an in-memory key array (tests and examples)."""

    def __init__(self, keys: np.ndarray, block_elems: int,
                 seconds_per_key: float = 0.0):
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.block_elems = int(block_elems)
        self.seconds_per_key = seconds_per_key
        self._pos = 0

    def next_block(self) -> Optional[np.ndarray]:
        if self._pos >= len(self.keys):
            return None
        chunk = self.keys[self._pos : self._pos + self.block_elems]
        self._pos += len(chunk)
        return chunk

    def cost_seconds(self, n_keys: int) -> float:
        return self.seconds_per_key * n_keys


class Sink:
    """Consumes one PE's sorted output stream, emission by emission.

    :meth:`consume` receives strictly non-decreasing key arrays and
    returns the modeled consumer time to charge (0 = fully overlapped).
    """

    def consume(self, keys: np.ndarray) -> float:
        raise NotImplementedError


class CollectingSink(Sink):
    """A sink that keeps everything it sees (tests and postprocessors)."""

    def __init__(self, seconds_per_key: float = 0.0):
        self.chunks: List[np.ndarray] = []
        self.seconds_per_key = seconds_per_key

    def consume(self, keys: np.ndarray) -> float:
        self.chunks.append(keys)
        return self.seconds_per_key * len(keys)

    @property
    def keys(self) -> np.ndarray:
        return (
            np.concatenate(self.chunks) if self.chunks else np.empty(0, np.uint64)
        )


@dataclass
class PipelineResult:
    """Outcome of a pipelined sort (output lives in the sinks)."""

    config: SortConfig
    n_nodes: int
    stats: SortStats
    sinks: List[Sink]
    n_runs: int


def _pipelined_run_formation(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    source: BlockSource,
) -> Generator:
    """Phase one fed by a source: pull a memory-load, sort, spill locally.

    No input I/O and — per the paper — no randomization: blocks join runs
    in production order.
    """
    tag = "run_formation"
    node = cluster.nodes[rank]
    comm = cluster.comm
    store = em.store(rank)
    piece_keys = config.piece_keys(cluster.spec)
    depth = config.resolved_write_buffers(cluster.spec)

    pieces: List[LocalRunPiece] = []
    exhausted = False
    while True:
        chunks: List[np.ndarray] = []
        pulled = 0
        while pulled < piece_keys and not exhausted:
            block = source.next_block()
            if block is None:
                exhausted = True
                break
            chunks.append(block)
            pulled += len(block)
            cost = source.cost_seconds(len(block))
            if cost:
                yield node.compute(cost, tag=tag)
        keys = np.concatenate(chunks) if chunks else np.empty(0, np.uint64)
        # Collective agreement: keep forming runs while anyone has data.
        anyone = yield comm.allreduce(rank, int(len(keys) > 0), max)
        if not anyone:
            break
        piece_keys_sorted = yield from distributed_sort_run(
            rank, cluster, config, stats, keys, tag
        )
        piece = yield from write_piece(
            store,
            piece_keys_sorted,
            tag=tag,
            max_outstanding=depth,
        )
        pieces.append(piece)

    all_pieces = yield comm.allgather(rank, pieces, nbytes=64.0 * len(pieces))
    n_runs = max(len(p) for p in all_pieces)
    runs = [
        DistributedRun(r, [all_pieces[n][r] for n in range(cluster.n_nodes)])
        for r in range(n_runs)
    ]
    stats.workers[rank].add_counter("runs_formed", len(pieces))
    return runs


class PipelinedMergeSort:
    """CanonicalMergeSort between a data generator and a sorted-order
    consumer (paper §VII)."""

    name = "PipelinedMergeSort"

    def __init__(self, cluster: Cluster, config: SortConfig):
        config.validate(cluster.spec, cluster.n_nodes)
        self.cluster = cluster
        self.config = config

    def sort(
        self,
        em: ExternalMemory,
        sources: Sequence[BlockSource],
        sinks: Sequence[Sink],
    ) -> PipelineResult:
        """Stream from ``sources`` through the sort into ``sinks``.

        ``sinks[i]`` receives PE ``i``'s canonical quantile stream in
        sorted order, emission by emission, while merging is still in
        progress (the postprocessor is pipelined, not batched).
        """
        cluster = self.cluster
        config = self.config
        if len(sources) != cluster.n_nodes or len(sinks) != cluster.n_nodes:
            raise ValueError(
                f"need one source and one sink per node "
                f"({cluster.n_nodes}), got {len(sources)}/{len(sinks)}"
            )
        stats = SortStats(config, cluster.n_nodes)
        n_runs_holder = [0]

        def pe_main(rank: int, cluster: Cluster):
            comm = cluster.comm
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "run_formation", sim=cluster.sim)
            runs = yield from _pipelined_run_formation(
                rank, cluster, em, config, stats, sources[rank]
            )
            timer.stop()
            n_runs_holder[0] = len(runs)
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "selection", sim=cluster.sim)
            splits = yield from selection_phase(
                rank, cluster, em, config, stats, runs
            )
            timer.stop()
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "all_to_all", sim=cluster.sim)
            segments = yield from all_to_all_phase(
                rank, cluster, em, config, stats, runs, splits
            )
            timer.stop()
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "merge", sim=cluster.sim)
            yield from merge_phase(
                rank, cluster, em, config, stats, segments, sink=sinks[rank]
            )
            timer.stop()
            return None

        started = cluster.sim.now
        cluster.run_spmd(pe_main)
        stats.total_time = cluster.sim.now - started
        stats.collect_io(cluster)
        return PipelineResult(
            config=config,
            n_nodes=cluster.n_nodes,
            stats=stats,
            sinks=list(sinks),
            n_runs=n_runs_holder[0],
        )
