"""Shared machinery for the splitter-based baseline sorters.

Both NOW-Sort and the external sample sort follow the same skeleton the
paper contrasts CanonicalMergeSort against: pick splitters up front,
*distribute* elements to their target PE in one pass, then sort locally.
The difference — and the point of the comparison — is where the splitters
come from and what happens when they are wrong: with skewed inputs a
single PE can receive nearly all data and the algorithms degrade toward a
sequential sort, which exact multiway selection rules out by
construction.

Two helpers live here:

* :func:`distribute_by_splitters` — the wave-based one-pass partition and
  exchange: each node reads a memory-load of input, sorts it, cuts it at
  the splitters, ships the pieces; receivers merge a wave into one run
  when it fits in memory and otherwise spill per-source runs (the
  degradation path);
* :func:`local_external_merge` — multi-pass R-way merging of the received
  runs, reusing the prediction-sequence merge machinery of the core
  algorithm, with the fan-in bounded by the per-node memory in blocks.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from ..cluster.cluster import Cluster
from ..core.config import SortConfig
from ..core.merge_phase import merge_phase
from ..core.stats import SortStats
from ..em.context import ExternalMemory
from ..em.file import LocalRunPiece
from ..em.writebuffer import SegmentBlock, StreamBlockWriter
from ..records.arrays import merge_sorted_arrays

__all__ = ["distribute_by_splitters", "local_external_merge"]


def distribute_by_splitters(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    input_blocks,
    splitters: np.ndarray,
    tag: str,
) -> Generator:
    """One-pass read + partition + all-to-all + run writing.

    ``splitters`` are the P−1 bucket boundaries (keys); bucket ``i`` is
    ``[splitters[i-1], splitters[i])`` and lands on PE ``i``.  Returns the
    list of sorted runs (each a list of :class:`SegmentBlock`) this node
    received, plus the total number of keys it now owns.
    """
    node = cluster.nodes[rank]
    comm = cluster.comm
    store = em.store(rank)
    be = config.block_elems
    bpk = config.bytes_per_key
    piece_keys = config.piece_keys(cluster.spec)

    waves = [
        input_blocks[i : i + config.piece_blocks(cluster.spec)]
        for i in range(0, len(input_blocks), config.piece_blocks(cluster.spec))
    ]
    n_waves = yield comm.allreduce(rank, len(waves), max)

    runs: List[List[SegmentBlock]] = []
    received_keys = 0
    outstanding: List = []
    max_out = config.resolved_write_buffers(cluster.spec)

    for w in range(n_waves):
        wave = waves[w] if w < len(waves) else []
        # Read the wave (bounded read-ahead), freeing input blocks.
        arrays = []
        inflight = []
        idx = 0
        while idx < len(wave) or inflight:
            while idx < len(wave) and len(inflight) < max_out:
                inflight.append((wave[idx], store.read(wave[idx], tag=tag)))
                idx += 1
            bid, ev = inflight.pop(0)
            arrays.append((yield ev))
            store.free(bid)
        keys = np.concatenate(arrays) if arrays else np.empty(0, np.uint64)

        # Sort the wave and cut it at the splitters.
        keys = np.sort(keys)
        yield node.sort_compute(
            config.keys_to_elements(len(keys)), config.element.elem_bytes, tag=tag
        )
        bounds = np.searchsorted(keys, splitters, side="left")
        cuts = [0] + [int(b) for b in bounds] + [len(keys)]
        send = [keys[cuts[d] : cuts[d + 1]] for d in range(cluster.n_nodes)]
        send_bytes = [
            len(send[d]) * bpk if d != rank else 0.0 for d in range(cluster.n_nodes)
        ]
        recv, _rb = yield comm.alltoallv(rank, send, send_bytes)

        # Receive: merge the wave into one run when it fits in memory,
        # otherwise spill one run per source (skew degradation path).
        pieces = [p for p in recv if len(p)]
        wave_total = sum(len(p) for p in pieces)
        received_keys += wave_total
        if wave_total == 0:
            continue
        groups: List[np.ndarray]
        if wave_total <= piece_keys:
            merged = merge_sorted_arrays(pieces)
            yield node.merge_compute(
                config.keys_to_elements(wave_total),
                arity=max(2, len(pieces)),
                elem_bytes=config.element.elem_bytes,
                tag=tag,
            )
            groups = [merged]
        else:
            stats.workers[rank].add_counter("baseline_spilled_waves")
            groups = pieces
        for grp in groups:
            writer = StreamBlockWriter(store, tag, outstanding, max_out)
            yield from writer.add(grp)
            yield from writer.flush()
            runs.append(writer.blocks)
    for ev in outstanding:
        yield ev
    stats.workers[rank].add_counter("baseline_received_keys", received_keys)
    return runs, received_keys


def local_external_merge(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    runs: List[List[SegmentBlock]],
) -> Generator:
    """Multi-pass local merging of sorted runs into one sorted piece.

    Groups of at most ``piece_blocks`` runs (one buffer block per run)
    merge per pass via the prediction-sequence merge engine; extra passes
    cost extra I/O — the degradation the skewed experiments measure.
    """
    fan_in = max(2, config.piece_blocks(cluster.spec))
    passes = 0
    while len(runs) > 1:
        groups = [runs[i : i + fan_in] for i in range(0, len(runs), fan_in)]
        merged_runs: List[List[SegmentBlock]] = []
        for group in groups:
            piece = yield from merge_phase(rank, cluster, em, config, stats, group)
            merged_runs.append(
                [
                    SegmentBlock(bid, cnt, int(fk))
                    for bid, cnt, fk in zip(piece.blocks, piece.counts, piece.first_keys)
                ]
            )
        runs = merged_runs
        passes += 1
    stats.workers[rank].add_counter("baseline_merge_passes", passes)
    if not runs:
        return LocalRunPiece(rank, [], [], np.empty(0, np.uint64))
    seg = runs[0]
    return LocalRunPiece(
        node=rank,
        blocks=[b.bid for b in seg],
        counts=[b.count for b in seg],
        first_keys=np.asarray([b.first_key for b in seg], dtype=np.uint64),
    )
