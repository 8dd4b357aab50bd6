"""External sample sort baseline (the BSP-emulation flavour, paper §II).

The paper cites Dehne et al.'s general emulation technique applied to
sample sort, yielding an algorithm that "needs five passes over the data
for sorting O(M²/(PB)) elements".  This implementation is the natural
concrete version of that scheme:

1. **sample pass** — scan the input once to draw an oversampled global
   sample and derive the P−1 splitters (read N);
2. **distribute pass** — read the input again, bucket by splitter, ship
   buckets, write arriving runs (read N + write N);
3. **local sort pass** — external multiway merge of each PE's runs
   (read N + write N).

Total ≈ 5·N bytes of I/O versus CanonicalMergeSort's 4·N with exact
output balance; bucket sizes here are only *probabilistically* balanced.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..core.config import SortConfig
from ..core.stats import PhaseClock, SortStats
from ..em.context import ExternalMemory
from .common import distribute_by_splitters, local_external_merge
from .nowsort import NowSortResult
from .splitters import sampled_splitters

__all__ = ["ExternalSampleSort"]


class ExternalSampleSort:
    """Three-phase (≈five-pass) external sample sort baseline."""

    name = "ExternalSampleSort"

    def __init__(self, cluster: Cluster, config: SortConfig, oversample: int = 16):
        config.validate(cluster.spec, cluster.n_nodes)
        self.cluster = cluster
        self.config = config
        self.oversample = oversample

    def sort(self, em: ExternalMemory, inputs) -> NowSortResult:
        """Sort the pre-placed input; same result contract as NOW-Sort."""
        cluster = self.cluster
        config = self.config
        stats = SortStats(config, cluster.n_nodes)
        bucket_sizes = [0] * cluster.n_nodes

        def pe_main(rank: int, cluster: Cluster):
            comm = cluster.comm
            yield comm.barrier(rank)

            timer = PhaseClock(stats.workers[rank], "sample", sim=cluster.sim)
            splitters = yield from sampled_splitters(
                rank,
                cluster,
                em,
                config,
                stats,
                inputs[rank],
                tag="sample",
                oversample=self.oversample,
            )
            timer.stop()
            yield comm.barrier(rank)

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
