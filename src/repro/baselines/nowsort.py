"""NOW-Sort-style baseline (Arpaci-Dusseau et al., SIGMOD 1997).

The most successful prior distributed external sort the paper discusses:
elements are bucketed by *fixed splitters* and shipped to their bucket's
PE in a single pass, then each PE sorts its bucket locally — also a
two-pass algorithm, sorting up to M²/(P·B) elements.

Its weakness is the paper's motivation for exact multiway selection:
"it only works efficiently for random inputs.  In the worst case, it
deteriorates to a sequential algorithm since all the data ends up in a
single processor."  Splitter modes:

* ``uniform`` — key-space-equidistant splitters (the Indy assumption);
  perfect for uniform random data, catastrophic for skew;
* ``sampled`` — splitters from a prior sampling scan (the preprocessing
  repair of Manku et al. the paper cites), costing an extra read pass and
  still giving only approximate partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cluster.cluster import Cluster
from ..core.config import SortConfig
from ..core.stats import PhaseClock, SortStats
from ..em.context import ExternalMemory
from ..em.file import LocalRunPiece
from .common import distribute_by_splitters, local_external_merge
from .splitters import sampled_splitters, uniform_splitters

__all__ = ["NowSort", "NowSortResult"]


@dataclass
class NowSortResult:
    """Outcome of a NOW-Sort run (output is *not* balance-guaranteed)."""

    config: SortConfig
    n_nodes: int
    stats: SortStats
    output: List[LocalRunPiece]
    #: Keys each PE ended up owning — the imbalance the paper warns about.
    bucket_sizes: List[int]

    @property
    def imbalance(self) -> float:
        """max bucket / ideal bucket; 1.0 is perfect, P is sequential."""
        total = sum(self.bucket_sizes)
        if total == 0:
            return 1.0
        ideal = total / self.n_nodes
        return max(self.bucket_sizes) / ideal

    def output_keys(self, em: ExternalMemory) -> List[np.ndarray]:
        out = []
        for rank, piece in enumerate(self.output):
            store = em.store(rank)
            if piece.blocks:
                out.append(np.concatenate([store.peek(b) for b in piece.blocks]))
            else:
                out.append(np.empty(0, dtype=np.uint64))
        return out


class NowSort:
    """Splitter-bucket distributed external sort (NOW-Sort baseline)."""

    name = "NowSort"

    def __init__(
        self,
        cluster: Cluster,
        config: SortConfig,
        splitter_mode: str = "uniform",
    ):
        if splitter_mode not in ("uniform", "sampled"):
            raise ValueError(f"unknown splitter mode {splitter_mode!r}")
        config.validate(cluster.spec, cluster.n_nodes)
        self.cluster = cluster
        self.config = config
        self.splitter_mode = splitter_mode

    def sort(self, em: ExternalMemory, inputs) -> NowSortResult:
        """Sort the pre-placed input blocks; buckets stay where they land."""
        cluster = self.cluster
        config = self.config
        stats = SortStats(config, cluster.n_nodes)
        bucket_sizes = [0] * cluster.n_nodes

        def pe_main(rank: int, cluster: Cluster):
            comm = cluster.comm
            yield comm.barrier(rank)

            if self.splitter_mode == "sampled":
                timer = PhaseClock(stats.workers[rank], "sample", sim=cluster.sim)
                splitters = yield from sampled_splitters(
                    rank, cluster, em, config, stats, inputs[rank], tag="sample"
                )
                timer.stop()
                yield comm.barrier(rank)
            else:
                splitters = uniform_splitters(cluster.n_nodes)

            timer = PhaseClock(stats.workers[rank], "distribute", sim=cluster.sim)
            runs, received = yield from distribute_by_splitters(
                rank, cluster, em, config, stats, inputs[rank], splitters, "distribute"
            )
            timer.stop()
            bucket_sizes[rank] = received
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "merge", sim=cluster.sim)
            piece = yield from local_external_merge(
                rank, cluster, em, config, stats, runs
            )
            timer.stop()
            return piece

        started = cluster.sim.now
        output = cluster.run_spmd(pe_main)
        stats.total_time = cluster.sim.now - started
        stats.collect_io(cluster)
        return NowSortResult(
            config=config,
            n_nodes=cluster.n_nodes,
            stats=stats,
            output=output,
            bucket_sizes=bucket_sizes,
        )
