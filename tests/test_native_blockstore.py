"""Unit tests for the native spill-directory block store.

The store moves byte extents; the record model maps records to bytes.
So the store's contract tests run once per model: each runs on a fixed16
store under its own name, and on a string store — whose record
boundaries straddle the block grid at odd byte offsets — through
:func:`test_string_store_contract`.
"""

import os

import numpy as np
import pytest

from repro.native.blockstore import INDEX_TAG_SUFFIX, FileBlockStore
from repro.native.records import (
    NATIVE_DTYPE,
    RECORD_BYTES,
    VarlenBatch,
    generate_records,
    make_records,
    merge_record_arrays,
    resolve_model,
    sort_records,
    varlen_index_path,
)

@pytest.fixture
def store(tmp_path):
    return FileBlockStore(str(tmp_path), rank=0, block_records=8)


def model_store(tmp_path, records: str) -> FileBlockStore:
    """A store with block_records=8, built with the ``records`` model."""
    return FileBlockStore(str(tmp_path), rank=0, block_records=8,
                          model=resolve_model(records))


def some_records(n, start=0):
    keys = np.arange(start, start + n, dtype=np.uint64) * 7
    return make_records(keys, np.arange(start, start + n, dtype=np.uint64))


def some_part(model, n, start=0):
    """``n`` records of ``model``; string keys are 0..36 bytes long, so
    record byte extents never align with the 8-record block grid."""
    if not model.varlen:
        return some_records(n, start)
    return VarlenBatch.build(
        [b"k" * (i % 37) for i in range(start, start + n)],
        np.arange(start, start + n, dtype=np.uint64),
    )


def raw(model, part) -> bytes:
    return bytes(model.bytes_view(part))


def test_roundtrip_and_accounting(tmp_path, records="fixed16"):
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 20)
    path = store.input_path()
    store.write_file(path, part, tag="t")
    assert len(model.boundaries(store, path, "t")) - 1 == 20
    back = store.read_range(path, 0, 20, tag="t")
    assert raw(model, back) == raw(model, part)
    assert store.bytes_written["t"] == part.nbytes
    assert store.bytes_read["t"] == part.nbytes
    assert store.reads["t"] == 1 and store.writes["t"] == 1
    assert os.path.exists(varlen_index_path(path)) == model.varlen
    store.remove(path)
    assert not os.path.exists(path)
    assert not os.path.exists(varlen_index_path(path))


def test_read_block_short_last_block(tmp_path, records="fixed16"):
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 20)  # 8 + 8 + 4 with block_records=8
    path = store.input_path()
    store.write_file(path, part, tag="t")
    assert len(store.read_block(path, 0, "t")) == 8
    assert len(store.read_block(path, 2, "t")) == 4
    assert raw(model, store.read_block(path, 2, "t")) == raw(
        model, model.slice(part, 16, 20))


def test_read_blocks_matches_per_block_reads(tmp_path, records="fixed16"):
    """The scatter read is bitwise the concatenation of its blocks."""
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 20)  # blocks: 8 + 8 + 4
    path = store.input_path()
    store.write_file(path, part, tag="w")
    for ids in ([0, 1, 2], [2, 0, 1], [1], [0, 2], [2, 1, 0]):
        got = store.read_blocks(path, ids, tag="r")
        want = model.concat([store.read_block(path, b, "r") for b in ids])
        assert raw(model, got) == raw(model, want), ids


def test_read_blocks_short_block_mid_list(tmp_path, records="fixed16"):
    """A shuffled schedule can put the file's short last block anywhere."""
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 20)
    path = store.input_path()
    store.write_file(path, part, tag="w")
    got = store.read_blocks(path, [0, 2, 1], tag="r")
    assert len(got) == 20
    assert raw(model, model.slice(got, 8, 12)) == raw(
        model, model.slice(part, 16, 20))  # the short block
    assert raw(model, model.slice(got, 12, 20)) == raw(
        model, model.slice(part, 8, 16))


def test_read_blocks_coalesces_consecutive_ids(tmp_path, records="fixed16"):
    """Consecutive full blocks become one positioned read, not three."""
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 32)  # four full blocks
    path = store.input_path()
    store.write_file(path, part, tag="w")
    got = store.read_blocks(path, [0, 1, 2, 3], tag="r")
    assert raw(model, got) == raw(model, part)
    assert store.reads["r"] == 1
    assert store.bytes_read["r"] == part.nbytes
    # A gap breaks the run: [0, 2, 3] is two reads.
    store.read_blocks(path, [0, 2, 3], tag="r2")
    assert store.reads["r2"] == 2


def test_read_blocks_empty_and_accounting(tmp_path, records="fixed16"):
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 16)
    path = store.input_path()
    store.write_file(path, part, tag="w")
    empty = store.read_blocks(path, [], tag="r")
    assert len(empty) == 0 and type(empty) is type(part)
    if not model.varlen:
        assert empty.dtype == NATIVE_DTYPE
    assert "r" not in store.bytes_read
    store.read_blocks(path, [1], tag="r")
    assert store.bytes_read["r"] == model.slice(part, 8, 16).nbytes


def test_out_of_range_reads_raise(tmp_path, records="fixed16"):
    """An ID or start outside the file is an error, never a short read."""
    store = model_store(tmp_path, records)
    model = store.model
    path = store.input_path()
    store.write_file(path, some_part(model, 20), "w")  # 3 blocks
    with pytest.raises(ValueError, match="block id 5"):
        store.read_blocks(path, [1, 5], "r")
    with pytest.raises(ValueError, match="block id -1"):
        store.read_blocks(path, [-1], "r")
    with pytest.raises(ValueError):
        store.read_range(path, 21, 1, "r")


def test_write_at_places_chunks_exactly(tmp_path, records="fixed16"):
    store = model_store(tmp_path, records)
    model = store.model
    path = store.slab_path(0)
    lo, hi = some_part(model, 8), some_part(model, 8, start=100)
    store.preallocate(path, lo.nbytes + hi.nbytes)
    with open(path, "r+b") as handle:
        store.write_at(handle, lo.nbytes, model.bytes_view(hi), tag="t")
        store.write_at(handle, 0, model.bytes_view(lo), tag="t")
    whole = model.concat([lo, hi])
    index = model.index_of(whole)
    if index is not None:
        # A slab has no .idx: the all-to-all hands its boundaries over.
        store.set_index(path, index)
    back = store.read_range(path, 0, 16, "t")
    assert raw(model, model.slice(back, 0, 8)) == raw(model, lo)
    assert raw(model, model.slice(back, 8, 16)) == raw(model, hi)
    assert INDEX_TAG_SUFFIX not in "".join(store.bytes_read)


def test_index_bytes_charged_under_index_tag_only(tmp_path, records="fixed16"):
    """Record bytes stay exactly conserved under the data tags; a
    model's .idx is charged under ``tag:index``, once per load."""
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 20)
    path = store.piece_path(0)
    index_bytes = 8 * (len(part) + 1) if model.varlen else 0
    store.write_file(path, part, "w")
    store.read_blocks(path, [2, 0], "r")
    store.read_range(path, 3, 9, "r")
    assert store.bytes_written == {
        "w": part.nbytes, **({"w:index": index_bytes} if index_bytes else {})
    }
    data = sum(model.slice(part, a, b).nbytes for a, b in ((16, 20), (0, 8), (3, 12)))
    assert store.bytes_read == {
        "r": data, **({"r:index": index_bytes} if index_bytes else {})
    }


def test_fetch_reads_without_charging(tmp_path, records="fixed16"):
    """The prefetcher's reader threads read uncharged: only a first
    ``.idx`` load is counted, under ``tag:index``."""
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 20)
    path = store.input_path()
    store.write_file(path, part, "w")
    got = store.fetch(path, 5, 10, "r")
    assert raw(model, got) == raw(model, model.slice(part, 5, 15))
    assert "r" not in store.bytes_read and "r" not in store.reads


def test_appender_streams(tmp_path, records="fixed16"):
    store = model_store(tmp_path, records)
    model = store.model
    part = some_part(model, 30)
    path = store.piece_path(0)
    appender = store.appender(path, "w")
    appender.append(model.slice(part, 0, 11))
    appender.append(model.slice(part, 11, 30))
    appender.close()
    assert raw(model, store.read_range(path, 0, 30, "r")) == raw(model, part)
    assert store.bytes_written["w"] == part.nbytes


#: The store contract, run once more on a string store below.
STORE_CONTRACT = [
    test_roundtrip_and_accounting,
    test_read_block_short_last_block,
    test_read_blocks_matches_per_block_reads,
    test_read_blocks_short_block_mid_list,
    test_read_blocks_coalesces_consecutive_ids,
    test_read_blocks_empty_and_accounting,
    test_out_of_range_reads_raise,
    test_write_at_places_chunks_exactly,
    test_index_bytes_charged_under_index_tag_only,
    test_fetch_reads_without_charging,
    test_appender_streams,
]


@pytest.mark.parametrize("contract", STORE_CONTRACT, ids=lambda t: t.__name__)
def test_string_store_contract(contract, tmp_path):
    contract(tmp_path, records="string")


def test_bytes_view_roundtrip():
    from repro.native.records import bytes_view, records_from_bytes

    records = some_records(12)
    view = bytes_view(records[3:9])
    assert isinstance(view, memoryview)
    assert len(view) == 6 * RECORD_BYTES
    assert np.array_equal(records_from_bytes(view), records[3:9])
    assert bytes(view) == records[3:9].tobytes()


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
