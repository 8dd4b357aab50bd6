"""Layer probes: each calls one layer's public functions on the shapes the
workload uses and times them from outside.

A probe returns ``{metric name: value}``.  Throughputs are medians over
repeated calls (at least :data:`MIN_ITERS`, for about ``budget`` seconds);
counts come from the layer's own counters over one fixed script and repeat
exactly for a seed.  The string probes always use the strings workload's
shape and the service probe (in ``workloads.py``) always the service job,
so those numbers mean the same thing in every workload's traced run.
"""

from __future__ import annotations

import os
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.algos.multiway_selection import (
    multiway_select,
    sample_initial_positions,
    select_coroutine,
)
from repro.native.blockstore import FileBlockStore
from repro.native.comm import PipeComm
from repro.native.pipeline import Prefetcher, WriteBehind, sequential_fetch_order
from repro.native.records import (
    RECORD_BYTES,
    generate_string_batch,
    lcp_decode_batch,
    lcp_encode_batch,
    make_records,
    merge_record_arrays,
    merge_varlen_batches,
    sort_records,
    varlen_from_bytes,
)
from repro.native.shm import ShmComm, create_shm_mesh
from repro.native.stats import WorkerStats
from repro.net.framing import KIND_MSG, encode_frame, recv_frame, send_frame
from repro.net.tcp import TcpComm
from repro.recovery.manifest import RankJournal

__all__ = ["ProbeCtx", "PROBES"]

MIN_ITERS = 3
#: Read-ahead / write-behind depth the pipeline probe runs at.
PIPELINE_BLOCKS = 8
_KEY_HIGH = 2**63


@dataclass
class ProbeCtx:
    """What a probe may depend on: the workload's shapes, seed and budget."""

    block_records: int
    chunk_records: int
    n_runs: int
    memory_records: int
    #: Chunk, block and run count of the strings workload (string probes).
    str_chunk_records: int
    str_block_records: int
    str_n_runs: int
    seed: int
    #: Scratch directory inside the spill root (created and removed by
    #: the caller).
    scratch: str
    #: Seconds each timed loop may spend.
    budget: float
    #: Bytes the streaming probes (block store, pipeline, transports) move.
    stream_bytes: int

    @property
    def block_bytes(self) -> int:
        return self.block_records * RECORD_BYTES

    @property
    def stream_blocks(self) -> int:
        return max(8, self.stream_bytes // self.block_bytes)


def _median_s(fn: Callable[[], object], budget: float) -> float:
    """Median seconds per call of ``fn`` over about ``budget`` seconds."""
    times: List[float] = []
    deadline = time.perf_counter() + budget
    while len(times) < MIN_ITERS or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _mb_s(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds


def _random_records(rng, n: int) -> np.ndarray:
    keys = rng.integers(0, _KEY_HIGH, n, dtype=np.uint64)
    return make_records(keys, np.arange(n, dtype=np.uint64))


# ------------------------------------------------------------------ records


def records_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """Sort one run chunk; merge R sorted blocks; the ``np.sort`` ceiling."""
    rng = np.random.default_rng(ctx.seed)
    chunk = _random_records(rng, ctx.chunk_records)
    parts = [
        sort_records(_random_records(rng, ctx.block_records))
        for _ in range(ctx.n_runs)
    ]
    merged_bytes = sum(p.nbytes for p in parts)
    keys = np.ascontiguousarray(chunk["key"])
    return {
        "native.records.sort_records_mb_s": _mb_s(
            chunk.nbytes, _median_s(lambda: sort_records(chunk), ctx.budget)),
        "native.records.merge_record_arrays_mb_s": _mb_s(
            merged_bytes,
            _median_s(lambda: merge_record_arrays(parts), ctx.budget)),
        # Keys only, but normalized by record bytes like every other MB/s
        # here: what a sort of these records could reach at best.
        "native.records.np_sort_ceiling_mb_s": _mb_s(
            chunk.nbytes, _median_s(lambda: np.sort(keys), ctx.budget)),
    }


def varlen_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """The string twins: sort, merge and LCP-code the strings chunk."""
    chunk = generate_string_batch(0, ctx.str_chunk_records, seed=ctx.seed)
    raw = bytes(chunk.bytes_view())
    per_part = ctx.str_block_records
    parts = [
        generate_string_batch(
            (i + 1) * ctx.str_chunk_records, per_part, seed=ctx.seed
        ).sort()
        for i in range(ctx.str_n_runs)
    ]
    merged_bytes = sum(p.nbytes for p in parts)
    ordered = chunk.sort()
    wire, _saved = lcp_encode_batch(ordered)
    return {
        # Parsed from bytes each time, as run formation sees a chunk it
        # read from disk (no cached keys).
        "native.records.varlen_sort_mb_s": _mb_s(
            len(raw),
            _median_s(lambda: varlen_from_bytes(raw).sort(), ctx.budget)),
        "native.records.merge_varlen_batches_mb_s": _mb_s(
            merged_bytes,
            _median_s(lambda: merge_varlen_batches(parts), ctx.budget)),
        "native.records.lcp_encode_mb_s": _mb_s(
            ordered.nbytes,
            _median_s(lambda: lcp_encode_batch(ordered), ctx.budget)),
        "native.records.lcp_decode_mb_s": _mb_s(
            ordered.nbytes,
            _median_s(lambda: lcp_decode_batch(wire), ctx.budget)),
    }


# -------------------------------------------------------------- block store


def _run_files(store: FileBlockStore, ctx: ProbeCtx, rng) -> List[str]:
    """R sorted piece files sharing ``stream_blocks`` blocks between them."""
    per_run = max(1, ctx.stream_blocks // ctx.n_runs) * ctx.block_records
    paths = []
    for run in range(ctx.n_runs):
        path = store.piece_path(run)
        store.write_file(path, sort_records(_random_records(rng, per_run)),
                         "setup")
        paths.append(path)
    return paths


def _select_through_cache(store, paths, ctx: ProbeCtx):
    """One cold multiway selection answered through the probe cache."""
    lengths = [os.path.getsize(p) // RECORD_BYTES for p in paths]
    capacity = int(min(
        64, max(4, ctx.memory_records // (4 * ctx.block_records))))
    cache = store.probe_cache(capacity)
    gen = select_coroutine(lengths, sum(lengths) // 2)
    try:
        run, pos = next(gen)
        while True:
            run, pos = gen.send(cache.key_at(paths[run], pos, "probe"))
    except StopIteration:
        return cache


def blockstore_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """Whole-file, appended, sequential and scattered block I/O at B."""
    rng = np.random.default_rng(ctx.seed)
    n_blocks, bs = ctx.stream_blocks, ctx.block_records
    records = _random_records(rng, n_blocks * bs)
    blocks = [records[i * bs:(i + 1) * bs] for i in range(n_blocks)]
    scattered = [int(b) for b in rng.permutation(n_blocks)]
    store = FileBlockStore(ctx.scratch, 0, bs)
    path = store.output_path()

    def append_all(st=store):
        with open(path, "wb") as handle:
            for block in blocks:
                st.append_records(handle, block, "probe")

    def read_all(st=store):
        for idx in range(n_blocks):
            st.read_block(path, idx, "probe")

    out = {
        "native.blockstore.write_file_mb_s": _mb_s(records.nbytes, _median_s(
            lambda: store.write_file(path, records, "probe"), ctx.budget)),
        "native.blockstore.append_records_mb_s": _mb_s(
            records.nbytes, _median_s(append_all, ctx.budget)),
        "native.blockstore.read_range_mb_s": _mb_s(
            records.nbytes, _median_s(read_all, ctx.budget)),
        "native.blockstore.read_blocks_mb_s": _mb_s(records.nbytes, _median_s(
            lambda: store.read_blocks(path, scattered, "probe"), ctx.budget)),
    }
    # Op counts and the cache ratio: one pass of the same script through
    # a fresh store, so they repeat exactly for a seed.
    counted = FileBlockStore(ctx.scratch, 0, bs)
    counted.write_file(path, records, "probe")
    append_all(counted)
    read_all(counted)
    counted.read_blocks(path, scattered, "probe")
    cache = _select_through_cache(
        counted, _run_files(store, ctx, rng), ctx)
    out["native.blockstore.probe_cache_hit_ratio"] = (
        cache.hits / max(1, cache.hits + cache.block_reads))
    out["native.blockstore.read_ops"] = float(counted.reads["probe"])
    out["native.blockstore.write_ops"] = float(counted.writes["probe"])
    return out


def pipeline_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """Read-ahead and write-behind (W = 8 blocks) over one spill file."""
    rng = np.random.default_rng(ctx.seed)
    n_blocks, bs = ctx.stream_blocks, ctx.block_records
    records = _random_records(rng, n_blocks * bs)
    blocks = [records[i * bs:(i + 1) * bs] for i in range(n_blocks)]
    store = FileBlockStore(ctx.scratch, 1, bs)
    path = store.output_path()
    store.write_file(path, records, "setup")
    requests = [(path, i * bs, bs) for i in range(n_blocks)]
    order = sequential_fetch_order([0] * n_blocks, PIPELINE_BLOCKS)
    stats = WorkerStats(rank=1)
    passes = 0

    def read_ahead():
        nonlocal passes
        passes += 1
        with Prefetcher(store, requests, order, "probe", PIPELINE_BLOCKS,
                        stats=stats) as fetcher:
            for idx in range(n_blocks):
                fetcher.get(idx)

    def write_behind():
        with open(store.piece_path(0), "wb") as handle:
            with WriteBehind(store, "probe", PIPELINE_BLOCKS * bs * RECORD_BYTES,
                             stats=stats) as writer:
                for block in blocks:
                    writer.append(handle, block)

    read_s = _median_s(read_ahead, ctx.budget)
    return {
        "native.pipeline.prefetch_mb_s": _mb_s(records.nbytes, read_s),
        "native.pipeline.write_behind_mb_s": _mb_s(
            records.nbytes, _median_s(write_behind, ctx.budget)),
        # Blocks the consumer had to fetch itself, per pass over the file.
        "native.pipeline.prefetch_miss_count": (
            stats.counters.get("probe_prefetch_direct", 0.0) / passes),
    }


# --------------------------------------------------------------- transports


def _pipe_mesh():
    import multiprocessing as mp

    a, b = mp.Pipe(duplex=True)
    return [PipeComm(0, 2, {1: a}, timeout=60.0),
            PipeComm(1, 2, {0: b}, timeout=60.0)]


def _tcp_mesh():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        a = socket.create_connection(listener.getsockname())
        b, _peer = listener.accept()
    for sock in (a, b):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return [TcpComm(0, 2, {1: a}, timeout=60.0),
            TcpComm(1, 2, {0: b}, timeout=60.0)]


def _shm_mesh():
    import multiprocessing as mp

    mesh = create_shm_mesh(mp.get_context(), 2)
    comms = [ShmComm(r, 2, mesh.channels[r], timeout=60.0) for r in range(2)]
    # Both ends are attached: the names can go at once, so nothing is
    # left in /dev/shm whatever happens next.
    mesh.unlink()
    return comms


def _mesh_probe(make_mesh, prefix: str, ctx: ProbeCtx) -> Dict[str, float]:
    """Stream B-sized chunks both ways, then time barrier round trips.

    The two ranks are threads of this process, as in the transports' own
    unit tests; the numbers compare transports with each other, not with
    a two-process run.
    """
    chunk = bytes(ctx.block_bytes)
    n_chunks = ctx.stream_blocks
    rounds = 200

    def rank_body(comm):
        peer = 1 - comm.rank
        comm.set_phase("probe")
        comm.barrier()
        start = time.perf_counter()
        comm.exchange(
            ((peer, ("probe", k, chunk)) for k in range(n_chunks)),
            lambda _peer, _msg: None,
        )
        streamed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            comm.barrier()
        return streamed, (time.perf_counter() - start) / rounds

    comms = make_mesh()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = [f.result(timeout=120)
                       for f in [pool.submit(rank_body, c) for c in comms]]
    finally:
        for comm in comms:
            comm.close()
    return {
        f"{prefix}.exchange_mb_s": _mb_s(
            2 * n_chunks * len(chunk), max(r[0] for r in results)),
        f"{prefix}.pingpong_us": max(r[1] for r in results) * 1e6,
    }


def comm_probe(ctx: ProbeCtx) -> Dict[str, float]:
    out = _mesh_probe(_pipe_mesh, "native.comm", ctx)
    out.update(_mesh_probe(_tcp_mesh, "net.tcp", ctx))
    out.update(_mesh_probe(_shm_mesh, "native.shm", ctx))
    return out


def framing_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """Encode, and receive over a socketpair, frames shaped like an
    all-to-all chunk (pickled meta + one RAW B-sized payload)."""
    msg = ("__xch__", 1, ("a2a", 0, 0, bytes(ctx.block_bytes)))
    n_frames = ctx.stream_blocks

    def decode_all():
        left, right = socket.socketpair()
        with left, right:
            sender = threading.Thread(
                target=lambda: [send_frame(left, KIND_MSG, msg)
                                for _ in range(n_frames)])
            sender.start()
            try:
                for _ in range(n_frames):
                    recv_frame(right)
            finally:
                sender.join()

    return {
        "net.framing.encode_mb_s": _mb_s(ctx.block_bytes, _median_s(
            lambda: encode_frame(KIND_MSG, msg), ctx.budget)),
        "net.framing.decode_mb_s": _mb_s(
            n_frames * ctx.block_bytes, _median_s(decode_all, ctx.budget)),
    }


# ---------------------------------------------------- selection and recovery


def selection_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """Sample-started exact selection over R in-RAM sorted runs, as the
    default ``selection="sampled"`` does (one sample per block)."""
    rng = np.random.default_rng(ctx.seed)
    per_run = min(ctx.chunk_records, 1 << 16)
    seqs = [np.sort(rng.integers(0, _KEY_HIGH, per_run, dtype=np.uint64))
            for _ in range(ctx.n_runs)]
    lengths = [len(s) for s in seqs]
    every = min(ctx.block_records, per_run)
    samples = [s[::every] for s in seqs]
    rank = sum(lengths) // 2

    def select():
        init, step = sample_initial_positions(samples, every, rank, lengths)
        return multiway_select(seqs, rank, init_positions=init, init_step=step)

    return {
        "algos.multiway_selection.select_ms": _median_s(select, ctx.budget) * 1e3,
        "algos.multiway_selection.probes_per_select": float(select().touches),
    }


def recovery_probe(ctx: ProbeCtx) -> Dict[str, float]:
    """Fsynced journal appends, then a resume-state load of that journal."""
    journal = RankJournal(
        os.path.join(ctx.scratch, "manifest_0.jsonl"), "probe", 0)
    journal.begin_epoch(0)
    try:
        counter = iter(range(1 << 30))
        append_s = _median_s(
            lambda: journal.merge_mark(next(counter)), ctx.budget)
    finally:
        journal.close()
    return {
        "recovery.manifest.append_fsync_us": append_s * 1e6,
        "recovery.manifest.load_resume_ms": _median_s(
            journal.load_resume, ctx.budget) * 1e3,
    }


#: (span name, layer, probe) in the order the traced run calls them.  The
#: transports come last among the thread users so no sort forks workers
#: while their threads are alive.
PROBES = (
    ("probe.records", "native.records", records_probe),
    ("probe.varlen", "native.records", varlen_probe),
    ("probe.blockstore", "native.blockstore", blockstore_probe),
    ("probe.pipeline", "native.pipeline", pipeline_probe),
    ("probe.selection", "algos.multiway_selection", selection_probe),
    ("probe.recovery", "recovery.manifest", recovery_probe),
    ("probe.framing", "net.framing", framing_probe),
    ("probe.comm", "native.comm", comm_probe),
)
