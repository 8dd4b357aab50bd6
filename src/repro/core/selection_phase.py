"""Phase two (a) of CANONICALMERGESORT: multiway selection over the runs.

Every PE ``i`` selects, for each run, the position of the first element it
is supposed to own in the final result — i.e. it runs a multiway selection
for global rank ``i·N/P`` over the R distributed runs.  The paper's three
optimizations are all here:

* **randomization** during run formation balances the remote block
  accesses the selections trigger (the accesses hit the disks that store
  the runs — a worst case of O(R·P·log M) requests to a single disk is
  what the optimization avoids);
* **sampling** — the every-K-th-element sample collected during run
  formation (K = B: the pieces' block-first keys) initializes the
  splitter positions, shrinking the search to one sample gap per run
  (Appendix B);
* **caching** — an LRU over the most recently accessed blocks eliminates
  the ``R log B`` final accesses of each selection.

Strategies: ``sampled`` (the paper's production path), ``basic`` (cold
start, no sample), ``bisect`` (the provably bounded scalable variant).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from ..algos.multiway_selection import (
    SelectionResult,
    select_bisect_coroutine,
    select_coroutine,
)
from ..cluster.cluster import Cluster
from ..em.cache import LRUCache
from ..em.context import ExternalMemory
from ..em.file import DistributedRun
from .config import SortConfig
from .stats import SortStats

__all__ = ["selection_phase", "warm_start_from_samples", "TAG"]

TAG = "selection"


def warm_start_from_samples(
    run_samples: List[Tuple[np.ndarray, np.ndarray]],
    rank: int,
    lengths: List[int],
    sample_every: int,
) -> Tuple[List[int], int]:
    """Initial splitter positions from the run-formation samples.

    ``run_samples[r]`` is ``(keys, positions)``: the sampled keys of run
    ``r`` and their global positions within the run.  Returns positions
    just below the exact splitters plus the step size (= sample period) to
    continue the search with, as in Appendix B.
    """
    n_runs = len(run_samples)
    if rank <= 0:
        return [0] * n_runs, sample_every
    keys_parts, runs_parts, pos_parts = [], [], []
    for r, (keys, positions) in enumerate(run_samples):
        if len(keys) == 0:
            continue
        keys_parts.append(np.asarray(keys))
        runs_parts.append(np.full(len(keys), r, dtype=np.int64))
        pos_parts.append(np.asarray(positions, dtype=np.int64))
    if not keys_parts:
        return [0] * n_runs, sample_every
    keys = np.concatenate(keys_parts)
    runs = np.concatenate(runs_parts)
    positions = np.concatenate(pos_parts)
    order = np.lexsort((positions, runs, keys))
    t = min(rank // sample_every, len(order) - 1)
    prefix = order[: t + 1]
    out = [0] * n_runs
    if len(prefix):
        # Within a run, samples ascend with position, and a global-order
        # prefix contains a per-run prefix: the last included sample's
        # position is a safe (conservative) starting splitter.
        counts = np.bincount(runs[prefix], minlength=n_runs)
        for r in range(n_runs):
            c = int(counts[r])
            if c > 0:
                sample_positions = run_samples[r][1]
                out[r] = min(int(sample_positions[c - 1]), lengths[r])
    return out, sample_every


def _run_samples(
    runs: List[DistributedRun], block_elems: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Global (keys, positions) sample arrays per run, stitched from the
    pieces' block-first keys (the sample at K = B)."""
    out = []
    for run in runs:
        keys_parts, pos_parts = [], []
        for n, piece in enumerate(run.pieces):
            sample = piece.first_keys
            if len(sample) == 0:
                continue
            keys_parts.append(np.asarray(sample))
            local = np.arange(len(sample), dtype=np.int64) * block_elems
            pos_parts.append(local + run.offsets[n])
        if keys_parts:
            out.append((np.concatenate(keys_parts), np.concatenate(pos_parts)))
        else:
            out.append((np.empty(0, np.uint64), np.empty(0, np.int64)))
    return out


def selection_phase(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    runs: List[DistributedRun],
) -> Generator:
    """SPMD generator; returns the (P+1) × R splitter-position matrix.

    ``splits[i][r]`` is the global position in run ``r`` where rank
    ``i``'s final segment starts; row ``P`` holds the run lengths.
    """
    me = rank
    comm = cluster.comm
    n_nodes = cluster.n_nodes
    lengths = [len(run) for run in runs]
    total = sum(lengths)
    target = me * total // n_nodes

    # The sample lives in every node's memory after one gather (its wire
    # cost — one key per block — is charged here once).
    local_sample_keys = sum(
        len(run.pieces[me].first_keys) for run in runs
    )
    yield comm.allgather(
        me, None, nbytes=config.keys_to_bytes(local_sample_keys)
    )

    if config.selection == "sampled":
        init_pos, init_step = warm_start_from_samples(
            _run_samples(runs, config.block_elems), target, lengths,
            config.block_elems,
        )
        gen = select_coroutine(lengths, target, init_positions=init_pos, init_step=init_step)
    elif config.selection == "basic":
        gen = select_coroutine(lengths, target)
    else:  # bisect
        gen = select_bisect_coroutine(lengths, target)

    cache = LRUCache(config.selection_cache_blocks)
    result: SelectionResult
    try:
        req = next(gen)
        while True:
            r, gpos = req
            node_id, lpos = runs[r].locate(gpos)
            piece = runs[r].pieces[node_id]
            bidx, within = piece.block_of(lpos)
            bid = piece.blocks[bidx]
            arr = cache.get(bid)
            if arr is None:
                arr = yield from em.read_block(
                    me, bid, tag=TAG, active_nodes=n_nodes
                )
                cache.put(bid, arr)
                stats.workers[me].add_counter("selection_block_reads")
                if bid.node != me:
                    stats.workers[me].add_counter("selection_remote_reads")
            req = gen.send(int(arr[within]))
    except StopIteration as stop:
        result = stop.value

    stats.workers[me].add_counter("selection_touches", result.touches)
    stats.workers[me].add_counter("selection_cache_hits", cache.hits)
    stats.workers[me].add_counter("selection_fixup_swaps", getattr(result, "fixup_swaps", 0))

    # Share the boundaries: "After communicating the splitter positions to
    # PEs i and i−1, every PE knows the elements it has to merge" — the
    # senders additionally need all boundaries, hence an allgather.
    all_positions = yield comm.allgather(
        me, result.positions, nbytes=8.0 * len(runs)
    )
    splits = [list(p) for p in all_positions]
    splits.append(list(lengths))
    return splits
