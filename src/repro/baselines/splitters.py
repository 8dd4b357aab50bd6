"""Splitter estimation for the baseline sorters."""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..cluster.cluster import Cluster
from ..core.config import SortConfig
from ..core.stats import SortStats
from ..em.context import ExternalMemory

__all__ = ["uniform_splitters", "sampled_splitters"]

#: Matches the key domain of the workload generators.
_KEY_HIGH = 2 ** 63


def uniform_splitters(n_nodes: int) -> np.ndarray:
    """Key-space-equidistant splitters (the Indy uniform assumption)."""
    return np.asarray(
        [i * _KEY_HIGH // n_nodes for i in range(1, n_nodes)], dtype=np.uint64
    )


def sampled_splitters(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    input_blocks,
    tag: str,
    oversample: int = 16,
) -> Generator:
    """Splitters from a full sampling scan (extra pass over the data).

    Every node reads its entire input once (this is the "additional scan"
    cost the paper attributes to the preprocessing repair of NOW-Sort),
    samples ``oversample·P`` keys, and the gathered sample's quantiles
    become the splitters.  Approximate by construction: a sample cannot
    guarantee exact partitioning, only bounded imbalance.
    """
    comm = cluster.comm
    store = em.store(rank)
    n_nodes = cluster.n_nodes
    max_out = config.resolved_write_buffers(cluster.spec)

    samples = []
    inflight = []
    idx = 0
    rng = np.random.default_rng((config.seed, 0xBA5E, rank))
    want = max(1, oversample * n_nodes)
    while idx < len(input_blocks) or inflight:
        while idx < len(input_blocks) and len(inflight) < max_out:
            inflight.append(store.read(input_blocks[idx], tag=tag))
            idx += 1
        keys = yield inflight.pop(0)
        take = max(1, len(keys) * want // max(1, config.keys_per_node))
        samples.append(rng.choice(keys, size=min(take, len(keys)), replace=False))
    local_sample = np.concatenate(samples) if samples else np.empty(0, np.uint64)

    gathered = yield comm.allgather(
        rank, local_sample, nbytes=config.keys_to_bytes(len(local_sample))
    )
    pool = np.sort(np.concatenate([g for g in gathered if len(g)]))
    if len(pool) == 0:
        return uniform_splitters(n_nodes)
    picks = [
        pool[min(len(pool) - 1, (i * len(pool)) // n_nodes)]
        for i in range(1, n_nodes)
    ]
    stats.workers[rank].add_counter("baseline_sample_keys", len(local_sample))
    return np.asarray(picks, dtype=np.uint64)
