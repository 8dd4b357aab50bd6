"""CANONICALMERGESORT: the paper's main algorithm, orchestrated.

Ties the four phases together exactly as Figure 1 of the paper depicts:
run formation → multiway selection → redistribution ("hopefully
negligible") → local merging, with phase barriers so the per-phase wall
times are comparable across PEs (the quantities Figures 2, 4 and 6
stack).

The result satisfies the paper's canonical output specification: *PE i
gets the elements of ranks (i−1)·N/P+1 .. i·N/P*, striped over its local
disks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cluster.cluster import Cluster
from ..em.block import BID
from ..em.context import ExternalMemory
from ..em.file import LocalRunPiece
from .all_to_all import all_to_all_phase
from .config import SortConfig
from .merge_phase import merge_phase
from .run_formation import run_formation
from .selection_phase import selection_phase
from .stats import PhaseClock, SortStats

__all__ = ["CanonicalMergeSort", "SortResult"]


@dataclass
class SortResult:
    """Outcome of one distributed external sort."""

    config: SortConfig
    n_nodes: int
    stats: SortStats
    #: Per-node sorted output (block-resident run pieces, rank order).
    output: List[LocalRunPiece]
    #: Number of global runs formed in phase one (the paper's R).
    n_runs: int

    def output_keys(self, em: ExternalMemory) -> List[np.ndarray]:
        """Materialize each node's sorted output keys (validation only)."""
        out = []
        for rank, piece in enumerate(self.output):
            store = em.store(rank)
            if piece.blocks:
                out.append(np.concatenate([store.peek(bid) for bid in piece.blocks]))
            else:
                out.append(np.empty(0, dtype=np.uint64))
        return out


class CanonicalMergeSort:
    """Two-pass distributed-memory external mergesort (paper Section IV)."""

    #: Human-readable algorithm name used by the benchmark harness.
    name = "CanonicalMergeSort"

    def __init__(self, cluster: Cluster, config: SortConfig):
        config.validate(cluster.spec, cluster.n_nodes)
        self.cluster = cluster
        self.config = config

    def sort(self, em: ExternalMemory, inputs: List[List[BID]]) -> SortResult:
        """Sort the pre-placed input blocks; returns stats and output.

        ``inputs[rank]`` lists the input blocks on each node (created by a
        workload generator).  Runs the SPMD processes on the cluster's
        simulator to completion.
        """
        if len(inputs) != self.cluster.n_nodes:
            raise ValueError(
                f"inputs for {len(inputs)} nodes, cluster has {self.cluster.n_nodes}"
            )
        cluster = self.cluster
        config = self.config
        stats = SortStats(config, cluster.n_nodes)
        n_runs_holder: List[int] = [0]

        def pe_main(rank: int, cluster: Cluster):
            comm = cluster.comm
            yield comm.barrier(rank)

            if config.n_runs(cluster.spec) == 1:
                # Special optimization for N <= M (paper §IV-E): a single
                # run is the final output — 2 I/Os per block, no selection
                # or redistribution.  Blocks are sorted as they arrive from
                # disk, overlapping computation with I/O.
                output = yield from self._single_run(
                    rank, cluster, em, stats, inputs[rank]
                )
                n_runs_holder[0] = 1
                return output

            timer = PhaseClock(stats.workers[rank], "run_formation", sim=cluster.sim)
            runs = yield from run_formation(
                rank, cluster, em, config, stats, inputs[rank]
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
            output = yield from merge_phase(
                rank, cluster, em, config, stats, segments
            )
            timer.stop()
            return output

        started = cluster.sim.now
        output = cluster.run_spmd(pe_main)
        stats.total_time = cluster.sim.now - started
        stats.n_runs = n_runs_holder[0]
        stats.collect_io(cluster)
        for rank in range(cluster.n_nodes):
            stats.workers[rank].peak_blocks = em.store(rank).peak_blocks
        return SortResult(
            config=config,
            n_nodes=cluster.n_nodes,
            stats=stats,
            output=output,
            n_runs=n_runs_holder[0],
        )

    def _single_run(self, rank, cluster, em, stats, input_blocks):
        """In-memory fast path for N <= M (paper §IV-E, MinuteSort regime).

        Each block is sorted immediately after it is read (overlapping the
        remaining disk reads); the locally sorted blocks are merged, the
        run is split and exchanged exactly once, and each rank writes its
        final piece — two I/Os per block total.
        """
        import numpy as np

        from ..em.file import write_piece
        from ..records.arrays import merge_sorted_arrays
        from .internal_sort import distributed_sort_run

        config = self.config
        node = cluster.nodes[rank]
        store = em.store(rank)
        comm = cluster.comm

        timer = PhaseClock(stats.workers[rank], "run_formation", sim=cluster.sim)
        depth = config.resolved_write_buffers(cluster.spec)
        arrays = []
        inflight = []
        idx = 0
        while idx < len(input_blocks) or inflight:
            while idx < len(input_blocks) and len(inflight) < depth:
                bid = input_blocks[idx]
                inflight.append((bid, store.read(bid, tag="run_formation")))
                idx += 1
            bid, ev = inflight.pop(0)
            keys = yield ev
            store.free(bid)
            arrays.append(np.sort(keys))
            yield node.sort_compute(
                config.keys_to_elements(len(keys)),
                config.element.elem_bytes,
                tag="run_formation",
            )
        local = merge_sorted_arrays(arrays)
        yield node.merge_compute(
            config.keys_to_elements(len(local)),
            arity=max(2, len(arrays)),
            elem_bytes=config.element.elem_bytes,
            tag="run_formation",
        )
        timer.stop()
        yield comm.barrier(rank)

        timer = PhaseClock(stats.workers[rank], "merge", sim=cluster.sim)
        piece_keys = yield from distributed_sort_run(
            rank, cluster, config, stats, local, "merge", presorted=True
        )
        piece = yield from write_piece(
            store,
            piece_keys,
            tag="merge",
            max_outstanding=depth,
        )
        timer.stop()
        return piece
