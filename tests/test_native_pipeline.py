"""Pipelined native I/O: read-ahead, write-behind, and their accounting.

Unit tests drive :class:`~repro.native.pipeline.Prefetcher` and
:class:`~repro.native.pipeline.WriteBehind` directly against a
:class:`~repro.native.blockstore.FileBlockStore`; the end-to-end tests
prove the pipelined sort is bitwise-invisible next to the synchronous
one and that the new stall/overlap statistics are populated.  The
single-run merge test is a regression test: a one-run shortcut the
merge once had skipped the resident-bytes accounting.
"""

import time

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native import NativeJob, native_sort
from repro.native.blockstore import FileBlockStore
from repro.native.phases import TAG_MERGE, Extent, NativeContext, merge
from repro.native.pipeline import (
    Prefetcher,
    WriteBehind,
    plan_fetch_order,
    sequential_fetch_order,
)
from repro.native.records import NATIVE_DTYPE, RECORD_BYTES
from repro.native.stats import WorkerStats
from repro.testing.chaos import ChaosInjected, ChaosSpec

KiB = 1024
TAG = "merge"  # per-phase tags are free-form; reuse a real one


def make_records(keys):
    arr = np.zeros(len(keys), dtype=NATIVE_DTYPE)
    arr["key"] = keys
    arr["payload"] = np.arange(len(keys), dtype=np.uint64)
    return arr


def write_records(path, keys):
    arr = make_records(keys)
    arr.tofile(str(path))
    return arr


def block_requests(files, block=4):
    """(path, start, count) per block of each file, plus file ids."""
    requests, file_ids = [], []
    for fid, (path, n) in enumerate(files):
        for start in range(0, n, block):
            requests.append((str(path), start, min(block, n - start)))
            file_ids.append(fid)
    return requests, file_ids


# ------------------------------------------------------------- Prefetcher


def test_prefetcher_in_order_matches_sync_reads(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    a = write_records(tmp_path / "a.dat", np.arange(16, dtype=np.uint64))
    b = write_records(tmp_path / "b.dat", np.arange(100, 110, dtype=np.uint64))
    requests, file_ids = block_requests(
        [(tmp_path / "a.dat", 16), (tmp_path / "b.dat", 10)]
    )
    order = sequential_fetch_order(file_ids, n_buffers=3)
    stats = WorkerStats(rank=0)
    expect = {0: a, 1: b}
    with Prefetcher(store, requests, order, TAG, 3, stats=stats) as pf:
        for i, (path, start, count) in enumerate(requests):
            got = pf.get(i)
            fid = file_ids[i]
            assert np.array_equal(got, expect[fid][start : start + count])
    total = sum(c for _p, _s, c in requests) * RECORD_BYTES
    # The consumer charges every read, prefetched or not: conservation.
    assert store.bytes_read[TAG] == total
    fetched = stats.counters.get(f"{TAG}_prefetch_fetched", 0)
    direct = stats.counters.get(f"{TAG}_prefetch_direct", 0)
    assert fetched + direct == len(requests)
    assert stats.counters.get(f"{TAG}_prefetch_inflight_hwm", 0) <= 3


def test_prefetcher_out_of_order_get_falls_back_to_direct(tmp_path):
    # Budget 1 and the consumer asks for the *last* request first: the
    # pool fills with a block the consumer does not want, the one
    # situation where waiting would deadlock — get() must fetch directly.
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    arr = write_records(tmp_path / "a.dat", np.arange(12, dtype=np.uint64))
    requests, file_ids = block_requests([(tmp_path / "a.dat", 12)])
    stats = WorkerStats(rank=0)
    with Prefetcher(
        store, requests, sequential_fetch_order(file_ids, 1), TAG, 1,
        stats=stats,
    ) as pf:
        got = pf.get(len(requests) - 1)
        assert np.array_equal(got, arr[8:12])
        for i in range(len(requests) - 1):
            assert np.array_equal(pf.get(i), arr[4 * i : 4 * i + 4])
    assert stats.counters.get(f"{TAG}_prefetch_direct", 0) >= 1
    assert store.bytes_read[TAG] == arr.nbytes


def test_prefetcher_surfaces_read_errors_on_consumer(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    requests = [(str(tmp_path / "missing.dat"), 0, 4)]
    with Prefetcher(store, requests, [0], TAG, 2) as pf:
        with pytest.raises(OSError):
            pf.get(0)


def test_prefetcher_rejects_bad_arguments(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    requests = [(str(tmp_path / "a.dat"), 0, 4)] * 2
    with pytest.raises(ValueError):
        Prefetcher(store, requests, [0, 0], TAG, 2)  # not a permutation
    with pytest.raises(ValueError):
        Prefetcher(store, requests, [0, 1], TAG, 0)  # no budget


def test_plan_fetch_order_validates_lengths():
    with pytest.raises(ValueError):
        plan_fetch_order([(0, 0, 0)], [0, 1], 2)
    assert plan_fetch_order([], [], 4) == []


# ------------------------------------------------------------ WriteBehind


def test_write_behind_append_equals_sync_append(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    batches = [
        make_records(np.arange(s, s + 6, dtype=np.uint64)) for s in (0, 6, 12)
    ]
    stats = WorkerStats(rank=0)
    path = tmp_path / "out.dat"
    with open(path, "wb") as handle:
        with WriteBehind(store, TAG, 64 * KiB, stats=stats) as wb:
            for batch in batches:
                wb.append(handle, batch)
    got = np.fromfile(str(path), dtype=NATIVE_DTYPE)
    assert np.array_equal(got, np.concatenate(batches))
    # The writer thread charges through the store methods, exactly.
    assert store.bytes_written[TAG] == sum(b.nbytes for b in batches)
    assert stats.counters[f"{TAG}_write_behind_chunks"] == len(batches)


def test_write_behind_write_file_and_write_at(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    whole = make_records(np.arange(8, dtype=np.uint64))
    patch = make_records(np.arange(100, 104, dtype=np.uint64))
    dest = tmp_path / "seg.dat"
    store.preallocate(str(dest), 8)
    with open(dest, "r+b") as handle, WriteBehind(store, TAG, 4 * KiB) as wb:
        wb.write_file(str(tmp_path / "piece.dat"), whole)
        wb.write_at(handle, 4, patch.tobytes())
    assert np.array_equal(
        np.fromfile(str(tmp_path / "piece.dat"), dtype=NATIVE_DTYPE), whole
    )
    seg = np.fromfile(str(dest), dtype=NATIVE_DTYPE)
    assert np.array_equal(seg[4:], patch)


def test_write_behind_bounded_queue_high_water_mark(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    stats = WorkerStats(rank=0)
    budget = 4 * 6 * RECORD_BYTES
    path = tmp_path / "out.dat"
    with open(path, "wb") as handle:
        with WriteBehind(store, TAG, budget, stats=stats) as wb:
            for s in range(0, 60, 6):
                wb.append(
                    handle, make_records(np.arange(s, s + 6, dtype=np.uint64))
                )
    # Every item fits the budget, so backpressure keeps the queue bounded.
    assert stats.counters[f"{TAG}_write_behind_hwm_bytes"] <= budget
    assert len(np.fromfile(str(path), dtype=NATIVE_DTYPE)) == 60


def test_write_behind_chaos_error_reraised_on_producer(tmp_path):
    # The chaos write gate lives in the store methods the writer thread
    # calls, so a torn ENOSPC fires *inside* the background thread; the
    # latched error must resurface on the producer at the next call or
    # at close — the fail-fast contract survives the thread hop.
    spec = ChaosSpec(rank=0, enospc_after_bytes=64, torn_write_bytes=24)
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4, chaos=spec)
    wb = WriteBehind(store, TAG, 64 * KiB)
    wb.write_file(str(tmp_path / "a.dat"), make_records(np.arange(16)))
    deadline = time.monotonic() + 10.0
    while wb._error is None and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(ChaosInjected):
        wb.write_file(str(tmp_path / "b.dat"), make_records(np.arange(4)))
    wb.close(raise_error=False)  # error path teardown must not raise
    # The failing write is torn: a non-record-aligned prefix reached disk.
    assert (tmp_path / "a.dat").stat().st_size == 24


def test_write_behind_close_raises_pending_error(tmp_path):
    spec = ChaosSpec(rank=0, enospc_after_bytes=32)
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4, chaos=spec)
    wb = WriteBehind(store, TAG, 64 * KiB)
    wb.write_file(str(tmp_path / "a.dat"), make_records(np.arange(16)))
    with pytest.raises(ChaosInjected):
        wb.close()


def test_write_behind_rejects_use_after_close(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    wb = WriteBehind(store, TAG, KiB)
    wb.close()
    with pytest.raises(RuntimeError):
        wb.write_file(str(tmp_path / "a.dat"), make_records(np.arange(2)))


# ---------------------------------------- single-run merge (stats regression)


@pytest.mark.parametrize("pipelined", [False, True], ids=["sync", "pipelined"])
def test_merge_single_run_fast_path_keeps_accounting(tmp_path, pipelined):
    """One run only, no harvested keys: a single-run shortcut used to
    skip ``note_resident`` — peak_resident_bytes stayed 0 and the
    working-set proof silently excluded this case."""
    n, block = 160, 32
    job = NativeJob(
        config=SortConfig(
            data_per_node_bytes=512 * RECORD_BYTES,
            memory_bytes=384 * RECORD_BYTES,
            block_bytes=block * RECORD_BYTES,
            block_elems=block,
            seed=1,
        ),
        n_workers=1,
        spill_dir=str(tmp_path),
        prefetch_blocks=2 if pipelined else 0,
        write_behind_blocks=2 if pipelined else 0,
    )
    store = FileBlockStore(str(tmp_path), rank=0, block_records=block)
    stats = WorkerStats(rank=0)
    store.attach_stats(stats)
    keys = np.sort(
        np.random.default_rng(9).integers(0, 2**60, n).astype(np.uint64)
    )
    seg = write_records(store.piece_path(0), keys)
    ctx = NativeContext(rank=0, job=job, comm=None, store=store, stats=stats)

    meta = merge(ctx, [[Extent(store.piece_path(0), 0, n)]])

    assert meta.n_records == n and meta.sorted_ok
    assert meta.first_key == int(keys[0]) and meta.last_key == int(keys[-1])
    out = np.fromfile(store.output_path(), dtype=NATIVE_DTYPE)
    assert np.array_equal(out, seg)
    # The regression: bytes conserved AND a non-zero working set recorded.
    assert store.bytes_read[TAG_MERGE] == n * RECORD_BYTES
    assert store.bytes_written[TAG_MERGE] == n * RECORD_BYTES
    assert stats.peak_resident_bytes > 0


# ------------------------------------------------------------- end to end


def run_native(tmp_path, name, **knobs):
    cfg = SortConfig(
        data_per_node_bytes=96 * KiB,
        memory_bytes=48 * KiB,
        block_bytes=2 * KiB,
        seed=42,
    )
    return native_sort(
        cfg, n_workers=2, spill_dir=str(tmp_path / name), timeout=120, **knobs
    )


def test_pipelined_sort_is_bitwise_invisible(tmp_path):
    sync = run_native(tmp_path, "sync")
    pipe = run_native(
        tmp_path, "pipe", prefetch_blocks=4, write_behind_blocks=4
    )
    assert sync.validate().ok and pipe.validate().ok
    for rank in range(2):
        assert np.array_equal(
            sync.output_records(rank), pipe.output_records(rank)
        )

    stats = pipe.stats
    # The pipeline actually ran: background fetches on both scheduled
    # phases, deferred writes on all three writing phases.
    for phase in ("all_to_all", "merge"):
        fetched = stats.counter_total(f"{phase}_prefetch_fetched")
        direct = stats.counter_total(f"{phase}_prefetch_direct")
        assert fetched + direct > 0, phase
    for phase in ("run_formation", "all_to_all", "merge"):
        assert stats.counter_total(f"{phase}_write_behind_chunks") > 0, phase

    # Conservation survives the thread hop: each pass moves N*16 bytes,
    # the all-to-all exactly what it shipped.
    nbytes = pipe.job.total_records * RECORD_BYTES
    shipped = stats.wire_sent("all_to_all")
    assert shipped + stats.counter_total("a2a_kept_bytes") == nbytes
    for phase, want in (
        ("run_formation", nbytes), ("all_to_all", shipped), ("merge", nbytes)
    ):
        assert sum(
            w.bytes_read.get(phase, 0) for w in stats.workers
        ) == want, phase
        assert sum(
            w.bytes_written.get(phase, 0) for w in stats.workers
        ) == want, phase

    d = stats.to_dict()
    for phase, row in d["phases"].items():
        assert row["stall_s"] >= 0.0
        assert 0.0 <= row["overlap_ratio"] <= 1.0
    assert all("io_stall_s" in w for w in d["per_worker"])
    assert "stall" in stats.summary() and "overlap" in stats.summary()
    sync.cleanup()
    pipe.cleanup()


def test_sync_path_reports_stall_time_too(tmp_path):
    # Stall accounting is not gated on the pipeline knobs: the synchronous
    # path charges its (blocking) store I/O as stall per phase.
    result = run_native(tmp_path, "s")
    merged = {}
    for w in result.stats.workers:
        for phase, s in w.io_stall_s.items():
            merged[phase] = merged.get(phase, 0.0) + s
    assert merged, "expected per-phase io_stall_s on the synchronous path"
    assert all(s >= 0.0 for s in merged.values())
    result.cleanup()


def test_job_rejects_negative_pipeline_knobs(tmp_path):
    from repro.core.config import ConfigError

    cfg = SortConfig(
        data_per_node_bytes=512 * RECORD_BYTES,
        memory_bytes=384 * RECORD_BYTES,
        block_bytes=32 * RECORD_BYTES,
        block_elems=32,
    )
    with pytest.raises(ConfigError):
        NativeJob(
            config=cfg, n_workers=1, spill_dir=str(tmp_path),
            prefetch_blocks=-1,
        )
    with pytest.raises(ConfigError):
        NativeJob(
            config=cfg, n_workers=1, spill_dir=str(tmp_path),
            write_behind_blocks=-2,
        )
    job = NativeJob(
        config=cfg, n_workers=1, spill_dir=str(tmp_path),
        prefetch_blocks=3, write_behind_blocks=2,
    )
    assert job.pipelined
    assert job.write_behind_bytes == 2 * job.block_records * 16
