"""Distributed internal-memory parallel mergesort (paper Section IV-B).

Used by run formation to sort one global run held in the cumulative memory
of the machine: every node sorts its local part, the P sorted sequences
are split *exactly* at ranks ``t * |run| / P`` (the internal-memory
variant of multiway selection), an all-to-all moves the pieces, and each
node merges the P pieces it received.  In the best case this all-to-all is
the only time the data crosses the network at all.

The exact splitting itself is computed with the vectorized partition
kernel (bit-identical to the probe-based selection — the algorithms
package asserts that equivalence in tests); its communication is charged
as the sample gather plus the O(P log P log M) coordination messages the
probe algorithm would send, which is what the paper's accounting assumes
(splitting time is reported as negligible).
"""

from __future__ import annotations

import math
from typing import Generator, List

import numpy as np

from ..cluster.cluster import Cluster
from ..records.arrays import exact_multiway_partition_multi, merge_sorted_arrays
from .config import SortConfig
from .stats import SortStats

__all__ = ["distributed_sort_run"]


def distributed_sort_run(
    rank: int,
    cluster: Cluster,
    config: SortConfig,
    stats: SortStats,
    local_keys: np.ndarray,
    tag: str,
    presorted: bool = False,
) -> Generator:
    """SPMD generator: globally sort one run, returning this rank's piece.

    ``local_keys`` is this node's (unsorted) share of the run; the return
    value is the rank-th exact quantile slice of the run, sorted.  All
    ranks must call this the same number of times (collective).
    ``presorted`` skips the local-sort charge when the caller already
    sorted (and paid for) the local data, as the single-run fast path does.
    """
    node = cluster.nodes[rank]
    comm = cluster.comm
    n_nodes = cluster.n_nodes

    # 1. Local sort (shared-memory parallel; cost model on represented size).
    local_sorted = local_keys if presorted else np.sort(local_keys, kind="stable")
    if not presorted:
        yield node.sort_compute(
            config.keys_to_elements(len(local_keys)), config.element.elem_bytes, tag=tag
        )

    if n_nodes == 1:
        return local_sorted

    # 2. Exact splitting.  Communication charge: every rank contributes a
    # sample of its sequence (one key per block) plus the selection's
    # coordination traffic.
    sample_bytes = config.keys_to_bytes(
        math.ceil(max(1, len(local_sorted)) / config.block_elems)
    )
    gathered = yield comm.allgather(rank, local_sorted, nbytes=sample_bytes)
    total = sum(len(g) for g in gathered)
    targets = [t * total // n_nodes for t in range(n_nodes + 1)]
    positions = exact_multiway_partition_multi(gathered, targets)
    levels = math.log2(max(2, len(local_sorted)))
    yield node.compute(
        n_nodes * levels * cluster.spec.net_latency * 2.0, tag=tag
    )

    # 3. All-to-all: slice [positions[d][rank], positions[d+1][rank]) goes
    # to destination d.
    send: List[np.ndarray] = []
    send_bytes: List[float] = []
    for d in range(n_nodes):
        lo = positions[d][rank]
        hi = positions[d + 1][rank]
        piece = local_sorted[lo:hi]
        send.append(piece)
        send_bytes.append(config.keys_to_bytes(len(piece)) if d != rank else 0.0)
    recv, _recv_bytes = yield comm.alltoallv(rank, send, send_bytes)

    # 4. Local P-way merge of the received sorted pieces.
    merged = merge_sorted_arrays(list(recv))
    yield node.merge_compute(
        config.keys_to_elements(len(merged)),
        arity=n_nodes,
        elem_bytes=config.element.elem_bytes,
        tag=tag,
    )
    stats.workers[rank].add_counter("internal_sort_sent_keys", sum(len(s) for i, s in enumerate(send) if i != rank))
    return merged
