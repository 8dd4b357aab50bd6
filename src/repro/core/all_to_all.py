"""Phase two (b) of CANONICALMERGESORT: the external all-to-all
(paper Section IV-C).

After multiway selection, every node knows, for each run, the exact range
of the run it must end up with.  Most of that data is already local when
randomization did its job; the rest is exchanged here.  Two complications
drive the design (both from the paper):

* a node may have to communicate more data than fits in memory — the
  exchange is split into ``k`` internal sub-operations, each sending the
  next (almost equal) part of every receiver's data, assembled run by run
  ("consuming all the participating data of run i before switching to
  run i+1") so one buffer block per active destination suffices;
* received sub-messages end in *partially filled blocks* that must be
  flushed to disk at every sub-operation boundary — the ``O(R·P')``
  block overhead of the paper's I/O bound ``2V/(PB) + O(RP')``, and the
  temporary space overhead of the in-place analysis (Section IV-E).

Block accounting: a local input block is *kept* (zero I/O) when it lies
entirely inside the node's own target range — the common case for random
or randomized inputs — otherwise it is read once ("touched"), its pieces
are routed, and the node's own partial data is rewritten.  Everything
read or written here carries the ``all_to_all`` tag: Figure 5 plots
exactly this volume divided by N.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..em.context import ExternalMemory
from ..em.file import DistributedRun
from ..em.writebuffer import SegmentBlock, StreamBlockWriter
from .config import SortConfig
from .stats import SortStats

__all__ = ["all_to_all_phase", "SegmentBlock", "TAG"]

TAG = "all_to_all"


def _sub_slices(
    spans: List[Tuple[int, int, int]], k: int, sub: int
) -> List[Tuple[int, int, int]]:
    """The ``sub``-th of ``k`` equal parts of a destination's span list.

    ``spans`` are (run, lo, hi) pieces in run-major order; the part
    boundaries cut by key count, preserving span order.
    """
    total = sum(hi - lo for _r, lo, hi in spans)
    if total == 0:
        return []
    start = sub * total // k
    end = (sub + 1) * total // k
    out: List[Tuple[int, int, int]] = []
    acc = 0
    for r, lo, hi in spans:
        n = hi - lo
        s = max(lo, lo + start - acc)
        e = min(hi, lo + end - acc)
        if s < e:
            out.append((r, s, e))
        acc += n
    return out


def all_to_all_phase(
    rank: int,
    cluster: Cluster,
    em: ExternalMemory,
    config: SortConfig,
    stats: SortStats,
    runs: List[DistributedRun],
    splits: List[List[int]],
) -> Generator:
    """SPMD generator; returns this node's per-run segments.

    ``splits[i][r]`` is the run-``r`` global position where rank ``i``'s
    segment begins (``splits[P][r]`` is the run length).  The return value
    is a list over runs of ordered :class:`SegmentBlock` lists forming the
    node's sorted segment of each run.
    """
    me = rank
    n_nodes = cluster.n_nodes
    comm = cluster.comm
    store = em.store(me)
    be = config.block_elems
    bpk = config.bytes_per_key
    n_runs = len(runs)

    # ---- geometry: what stays, what goes where -----------------------------
    send_spans: Dict[int, List[Tuple[int, int, int]]] = {
        d: [] for d in range(n_nodes) if d != me
    }
    keep_range: Dict[int, Tuple[int, int]] = {}
    total_send = 0
    total_recv = 0
    for r, run in enumerate(runs):
        piece = run.pieces[me]
        off = run.offsets[me]
        for d in range(n_nodes):
            lo = max(splits[d][r], off)
            hi = min(splits[d + 1][r], off + piece.n_keys)
            if lo >= hi:
                continue
            a, b = lo - off, hi - off
            if d == me:
                keep_range[r] = (a, b)
            else:
                send_spans[d].append((r, a, b))
                total_send += b - a
        seg_size = splits[me + 1][r] - splits[me][r]
        local = keep_range.get(r, (0, 0))
        total_recv += seg_size - (local[1] - local[0])

    # ---- number of sub-operations (collective) --------------------------------
    budget = max(be, int(config.alltoall_mem_fraction * config.piece_keys(cluster.spec)))
    my_k = max(1, math.ceil(max(total_send, total_recv) / budget))
    k = yield comm.allreduce(me, my_k, max)
    stats.workers[me].add_counter("alltoall_subops", k)
    stats.workers[me].add_counter("alltoall_sent_keys", total_send)

    # ---- block classification ---------------------------------------------------
    # kept_full[r]: indices of piece blocks fully inside the keep range.
    kept_full: Dict[int, List[int]] = {}
    touched: Dict[Tuple[int, int], bool] = {}  # (run, block idx) -> needs read
    for r, run in enumerate(runs):
        piece = run.pieces[me]
        a, b = keep_range.get(r, (0, 0))
        fulls: List[int] = []
        for i in range(len(piece.blocks)):
            s = piece.block_start(i)
            e = s + piece.counts[i]
            if a <= s and e <= b:
                fulls.append(i)
            else:
                touched[(r, i)] = True
        kept_full[r] = fulls

    # Which sub-operation last uses each touched block (for buffer reuse).
    last_use: Dict[Tuple[int, int], int] = {}
    for sub in range(k):
        for d, spans in send_spans.items():
            for r, lo, hi in _sub_slices(spans, k, sub):
                piece = runs[r].pieces[me]
                i0, _w = piece.block_of(lo)
                i1, _w = piece.block_of(hi - 1)
                for i in range(i0, i1 + 1):
                    last_use[(r, i)] = sub
    # Straddling blocks with a kept part may never appear in send slices
    # of this node (e.g. P' = 0); they still must be read and rewritten.
    for key in touched:
        last_use.setdefault(key, 0)

    # ---- execution -----------------------------------------------------------------
    outstanding: List = []
    max_out = config.resolved_write_buffers(cluster.spec)
    block_buf: Dict[Tuple[int, int], np.ndarray] = {}
    writers: Dict[Tuple[int, int], StreamBlockWriter] = {}
    head_part: Dict[int, List[SegmentBlock]] = {r: [] for r in range(n_runs)}
    tail_part: Dict[int, List[SegmentBlock]] = {r: [] for r in range(n_runs)}

    def read_blocks(keys_needed: List[Tuple[int, int]]) -> Generator:
        """Read missing blocks (elevator order), extracting kept partials."""
        missing = [
            key for key in dict.fromkeys(keys_needed) if key not in block_buf
        ]
        missing.sort(
            key=lambda key: (
                runs[key[0]].pieces[me].blocks[key[1]].disk,
                runs[key[0]].pieces[me].blocks[key[1]].slot,
            )
        )
        inflight: List[Tuple[Tuple[int, int], object]] = []
        for key in missing:
            r, i = key
            piece = runs[r].pieces[me]
            inflight.append((key, store.read(piece.blocks[i], tag=TAG)))
            if len(inflight) > max_out:
                got_key, ev = inflight.pop(0)
                block_buf[got_key] = yield ev
        for got_key, ev in inflight:
            block_buf[got_key] = yield ev
        # Extract and rewrite this node's partial data the first time the
        # straddling block is available.
        for key in missing:
            extract_kept_partial(key)

    def extract_kept_partial(key: Tuple[int, int]) -> None:
        r, i = key
        a, b = keep_range.get(r, (0, 0))
        if a >= b:
            return
        piece = runs[r].pieces[me]
        s = piece.block_start(i)
        e = s + piece.counts[i]
        lo = max(a, s)
        hi = min(b, e)
        if lo >= hi:
            return
        if a <= s and e <= b:
            return  # fully kept block, never touched
        part = block_buf[key][lo - s : hi - s]
        bid = store.allocate()
        seg = SegmentBlock(bid, len(part), int(part[0]))
        outstanding.append(store.write(bid, part, tag=TAG))
        stats.workers[me].add_counter("alltoall_partial_blocks")
        if s < a:  # the block straddles the *head* of my range
            head_part[r].append(seg)
        else:
            tail_part[r].append(seg)

    def extract_range(r: int, lo: int, hi: int) -> np.ndarray:
        """Keys of piece-local range [lo, hi) from buffered blocks."""
        piece = runs[r].pieces[me]
        i0, w0 = piece.block_of(lo)
        i1, w1 = piece.block_of(hi - 1)
        parts = []
        for i in range(i0, i1 + 1):
            data = block_buf[(r, i)]
            s = w0 if i == i0 else 0
            e = (w1 + 1) if i == i1 else len(data)
            parts.append(data[s:e])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def needed_for(sub: int, slices_by_dest) -> List[Tuple[int, int]]:
        """Blocks a sub-operation's send slices (and rewrites) require."""
        needed: List[Tuple[int, int]] = []
        # On the first sub-operation, also pull in straddling blocks that
        # no send slice covers (pure keep-partial rewrites).
        if sub == 0:
            needed.extend(key for key, s in last_use.items() if s == 0)
        for _d, slices in slices_by_dest.items():
            for r, lo, hi in slices:
                piece = runs[r].pieces[me]
                i0, _ = piece.block_of(lo)
                i1, _ = piece.block_of(hi - 1)
                needed.extend((r, i) for i in range(i0, i1 + 1))
        return needed

    def route_received(recv) -> Generator:
        """Append received (run, keys) streams to their writers and flush."""
        for src in range(n_nodes):
            if src == me or not recv[src]:
                continue
            for r, keys in recv[src]:
                writer = writers.get((r, src))
                if writer is None:
                    writer = StreamBlockWriter(store, TAG, outstanding, max_out)
                    writers[(r, src)] = writer
                yield from writer.add(keys)
        # Sub-operation boundary: flush partially filled blocks.
        for writer in writers.values():
            yield from writer.flush()

    all_slices = [
        {d: _sub_slices(spans, k, sub) for d, spans in send_spans.items()}
        for sub in range(k)
    ]
    write_proc = None
    # With overlapping enabled, the reads of sub-operation ``sub+1`` run
    # while ``sub`` is still exchanging and writing (Section IV-E); the
    # memory cost is one extra sub-operation's worth of buffers, which the
    # ``alltoall_mem_fraction`` budget leaves room for.
    read_proc = None
    if config.overlap and k > 0:
        read_proc = cluster.sim.process(
            read_blocks(needed_for(0, all_slices[0])), name=f"a2a-read0@{me}"
        )

    for sub in range(k):
        slices_by_dest = all_slices[sub]
        payload: List[Optional[List[Tuple[int, np.ndarray]]]] = [None] * n_nodes
        payload_bytes = [0.0] * n_nodes
        if config.overlap:
            yield read_proc
            read_proc = (
                cluster.sim.process(
                    read_blocks(needed_for(sub + 1, all_slices[sub + 1])),
                    name=f"a2a-read{sub + 1}@{me}",
                )
                if sub + 1 < k
                else None
            )
        else:
            yield from read_blocks(needed_for(sub, slices_by_dest))

        for d, slices in slices_by_dest.items():
            msg = [(r, extract_range(r, lo, hi)) for r, lo, hi in slices]
            payload[d] = msg
            payload_bytes[d] = sum(len(keys) for _r, keys in msg) * bpk
        for d in range(n_nodes):
            if payload[d] is None:
                payload[d] = []
        recv, _recv_bytes = yield comm.alltoallv(me, payload, payload_bytes)

        # Drop buffered blocks whose last use was this sub-operation.
        for key in [key for key, s in last_use.items() if s == sub]:
            block_buf.pop(key, None)

        # Route received streams into per-(run, source) writers; with
        # overlapping on, this runs while the next sub-operation reads and
        # exchanges (stream order is preserved by chaining the routers).
        if config.overlap:
            if write_proc is not None:
                yield write_proc
            write_proc = cluster.sim.process(
                route_received(recv), name=f"a2a-write{sub}@{me}"
            )
        else:
            yield from route_received(recv)

    if write_proc is not None:
        yield write_proc
    for ev in outstanding:
        yield ev
    del outstanding[:]

    # Free every touched source block (their data has been routed).
    for (r, i) in touched:
        store.free(runs[r].pieces[me].blocks[i])

    # ---- assemble the per-run segments ------------------------------------------
    segments: List[List[SegmentBlock]] = []
    for r, run in enumerate(runs):
        piece = run.pieces[me]
        seg: List[SegmentBlock] = []
        for src in range(n_nodes):
            if src == me:
                seg.extend(head_part[r])
                for i in kept_full[r]:
                    seg.append(
                        SegmentBlock(
                            piece.blocks[i],
                            piece.counts[i],
                            int(piece.first_keys[i]),
                        )
                    )
                seg.extend(tail_part[r])
            else:
                writer = writers.get((r, src))
                if writer is not None:
                    seg.extend(writer.blocks)
        segments.append(seg)
    partials = sum(w.partial_blocks for w in writers.values())
    stats.workers[me].add_counter("alltoall_recv_partial_blocks", partials)
    return segments
