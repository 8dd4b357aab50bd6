"""Unit tests for the native spill-directory block store."""

import numpy as np
import pytest

from repro.native.blockstore import FileBlockStore
from repro.native.records import (
    NATIVE_DTYPE,
    RECORD_BYTES,
    generate_records,
    make_records,
    merge_record_arrays,
    read_records,
    record_count,
    sort_records,
)


@pytest.fixture
def store(tmp_path):
    return FileBlockStore(str(tmp_path), rank=0, block_records=8)


def some_records(n, start=0):
    keys = np.arange(start, start + n, dtype=np.uint64) * 7
    return make_records(keys, np.arange(start, start + n, dtype=np.uint64))


def test_roundtrip_and_accounting(store):
    records = some_records(20)
    path = store.input_path()
    store.write_file(path, records, tag="t")
    assert record_count(path) == 20
    back = store.read_range(path, 0, 20, tag="t")
    assert np.array_equal(back, records)
    assert store.bytes_written["t"] == 20 * RECORD_BYTES
    assert store.bytes_read["t"] == 20 * RECORD_BYTES
    assert store.reads["t"] == 1 and store.writes["t"] == 1


def test_read_block_short_last_block(store):
    records = some_records(20)  # 8 + 8 + 4 with block_records=8
    path = store.input_path()
    store.write_file(path, records, tag="t")
    assert len(store.read_block(path, 0, "t")) == 8
    assert len(store.read_block(path, 2, "t")) == 4
    assert np.array_equal(store.read_block(path, 2, "t"), records[16:])


def test_read_blocks_matches_per_block_reads(store):
    """The scatter read is bitwise the concatenation of its blocks."""
    records = some_records(20)  # blocks: 8 + 8 + 4
    path = store.input_path()
    store.write_file(path, records, tag="w")
    for ids in ([0, 1, 2], [2, 0, 1], [1], [0, 2], [2, 1, 0]):
        got = store.read_blocks(path, ids, tag="r")
        want = np.concatenate(
            [store.read_block(path, b, "r") for b in ids]
        )
        assert np.array_equal(got, want), ids


def test_read_blocks_short_block_mid_list(store):
    """A shuffled schedule can put the file's short last block anywhere."""
    records = some_records(20)
    path = store.input_path()
    store.write_file(path, records, tag="w")
    got = store.read_blocks(path, [0, 2, 1], tag="r")
    assert len(got) == 20
    assert np.array_equal(got[8:12], records[16:20])  # the short block
    assert np.array_equal(got[12:], records[8:16])


def test_read_blocks_coalesces_consecutive_ids(store):
    """Consecutive full blocks become one positioned read, not three."""
    records = some_records(32)  # four full blocks
    path = store.input_path()
    store.write_file(path, records, tag="w")
    got = store.read_blocks(path, [0, 1, 2, 3], tag="r")
    assert np.array_equal(got, records)
    assert store.reads["r"] == 1
    assert store.bytes_read["r"] == records.nbytes
    # A gap breaks the run: [0, 2, 3] is two reads.
    store.read_blocks(path, [0, 2, 3], tag="r2")
    assert store.reads["r2"] == 2


def test_read_blocks_empty_and_accounting(store):
    records = some_records(16)
    path = store.input_path()
    store.write_file(path, records, tag="w")
    empty = store.read_blocks(path, [], tag="r")
    assert len(empty) == 0 and empty.dtype == NATIVE_DTYPE
    assert "r" not in store.bytes_read
    store.read_blocks(path, [1], tag="r")
    assert store.bytes_read["r"] == 8 * RECORD_BYTES


def test_bytes_view_roundtrip():
    from repro.native.records import bytes_view, records_from_bytes

    records = some_records(12)
    view = bytes_view(records[3:9])
    assert isinstance(view, memoryview)
    assert len(view) == 6 * RECORD_BYTES
    assert np.array_equal(records_from_bytes(view), records[3:9])
    assert bytes(view) == records[3:9].tobytes()


def test_write_at_places_chunks_exactly(store):
    path = store.slab_path(0)
    store.preallocate(path, 16)
    lo, hi = some_records(8), some_records(8, start=100)
    with open(path, "r+b") as handle:
        store.write_at(handle, 8, hi.tobytes(), tag="t")
        store.write_at(handle, 0, lo.tobytes(), tag="t")
    back = read_records(path, 0, 16)
    assert np.array_equal(back[:8], lo)
    assert np.array_equal(back[8:], hi)


def test_paths_are_per_rank_and_per_run(store):
    assert store.input_path() != store.input_path(rank=1)
    assert store.piece_path(0) != store.piece_path(1)
    assert store.slab_path(2, rank=1) != store.slab_path(2, rank=0)
    assert "output_0" in store.output_path()


def test_probe_cache_blocks_and_hits(store):
    records = some_records(64)
    path = store.piece_path(0)
    store.write_file(path, records, tag="t")
    cache = store.probe_cache(capacity_blocks=2)
    # Two probes in the same block: one read, one hit.
    assert cache.key_at(path, 3, "t") == int(records["key"][3])
    assert cache.key_at(path, 5, "t") == int(records["key"][5])
    assert cache.block_reads == 1
    assert cache.hits == 1
    # Touch enough distinct blocks to evict, then re-touch the first.
    for pos in (8, 16, 24, 32):
        cache.key_at(path, pos, "t")
    reads_before = cache.block_reads
    cache.key_at(path, 3, "t")
    assert cache.block_reads == reads_before + 1  # was evicted, re-read


def test_sequential_reader_streams_all_blocks(store):
    records = some_records(26)
    path = store.slab_path(1)
    store.write_file(path, records, tag="t")
    from repro.native.blockstore import SequentialReader

    reader = SequentialReader(store, path, tag="t")
    blocks = list(reader.blocks())
    assert [len(b) for b in blocks] == [8, 8, 8, 2]
    assert np.array_equal(np.concatenate(blocks), records)
    assert reader.next_block() is None


def test_sequential_reader_detects_truncation(store, tmp_path):
    records = some_records(8)
    path = store.slab_path(2)
    store.write_file(path, records, tag="t")
    from repro.native.blockstore import SequentialReader

    reader = SequentialReader(store, path, tag="t", n_records=12)
    with pytest.raises(IOError):
        reader.next_block()
        reader.next_block()


def test_record_helpers():
    recs = generate_records(0, 100, seed=5)
    assert recs.dtype == NATIVE_DTYPE
    assert np.array_equal(recs["payload"], np.arange(100))
    s = sort_records(recs)
    assert np.all(s["key"][:-1] <= s["key"][1:])
    # Stable merge of sorted parts equals one global sort.
    a, b = s[::2].copy(), s[1::2].copy()
    merged = merge_record_arrays([a, b])
    assert np.array_equal(merged["key"], s["key"])


def test_generate_records_deterministic_and_seeded():
    a = generate_records(10, 50, seed=1)
    b = generate_records(10, 50, seed=1)
    c = generate_records(10, 50, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a["key"], c["key"])
    # Slices of the global sequence agree with the whole.
    whole = generate_records(0, 100, seed=1)
    assert np.array_equal(whole[10:60], a)


def test_skew_generates_duplicates():
    recs = generate_records(0, 2000, seed=3, skew=True)
    assert len(np.unique(recs["key"])) < 2000
