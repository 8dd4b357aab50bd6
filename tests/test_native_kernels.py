"""The native backend's two CPU kernels: ``sort_records`` and the merge.

``sort_records`` must equal a stable argsort on every input shape and
never touch its argument.  ``phases.merge`` is driven directly over a
:class:`~repro.native.blockstore.FileBlockStore`: whatever the block
size B, the batch size G (derived from M) and the pipelining knobs, its
output is the stable merge of the segments in run order — the package's
(key, run, position) tie rule — with exact byte conservation.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SortConfig
from repro.native import NativeJob
from repro.native.blockstore import FileBlockStore
from repro.native.phases import TAG_MERGE, NativeContext, merge
from repro.native.records import (
    NATIVE_DTYPE,
    RECORD_BYTES,
    make_records,
    merge_record_arrays,
    sort_records,
)
from repro.native.stats import WorkerStats

# ------------------------------------------------------------ sort_records


def _stable_reference(records):
    return records[np.argsort(records["key"], kind="stable")]


def _numbered(keys):
    keys = np.asarray(keys, dtype=np.uint64)
    return make_records(keys, np.arange(len(keys), dtype=np.uint64))


_RNG = np.random.default_rng(20)
_SORT_INPUTS = {
    "empty": _numbered([]),
    "single": _numbered([5]),
    "random": _numbered(_RNG.integers(0, 2**64, 4000, dtype=np.uint64)),
    "few-ties": _numbered(_RNG.integers(0, 40000, 4000)),     # repaired
    "dup-heavy": _numbered(_RNG.integers(0, 50, 4000)),       # stable fallback
    "all-equal": _numbered(np.full(300, 7)),
    "presorted": _numbered(np.sort(_RNG.integers(0, 900, 3000))),
    "reverse": _numbered(np.sort(_RNG.integers(0, 900, 3000))[::-1]),
    "non-contiguous": _numbered(_RNG.integers(0, 3000, 6000))[::2],
}


@pytest.mark.parametrize("name", sorted(_SORT_INPUTS))
@pytest.mark.parametrize("read_only", [False, True], ids=["rw", "ro"])
def test_sort_records_equals_stable_argsort(name, read_only):
    records = _SORT_INPUTS[name].view()
    records.flags.writeable = not read_only
    before = records.copy()

    out = sort_records(records)

    assert out.dtype == NATIVE_DTYPE
    assert np.array_equal(out, _stable_reference(before))
    assert np.array_equal(records, before)          # never mutates ...
    assert not np.shares_memory(out, records)       # ... nor aliases
    assert out.flags.writeable


@given(
    keys=st.lists(st.integers(0, 30), max_size=200),
    wide=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_sort_records_is_stable_at_any_tie_share(keys, wide):
    # ``wide`` spreads the keys out so that ties become rare enough for
    # the repair path instead of the stable fallback.
    keys = np.asarray(keys, dtype=np.uint64)
    if wide:
        keys = keys * np.uint64(1 << 20) + (
            np.arange(len(keys), dtype=np.uint64) % np.uint64(7)
        ) * (keys % np.uint64(3))
    records = _numbered(keys)
    assert np.array_equal(sort_records(records), _stable_reference(records))


def test_merge_record_arrays_takes_strided_and_read_only_parts():
    base = _numbered(np.sort(_RNG.integers(0, 60, 400)))
    strided = base[::2]
    frozen = base[1::2].copy()
    frozen.flags.writeable = False
    merged = merge_record_arrays([strided, frozen])
    both = np.concatenate([strided, frozen])
    assert np.array_equal(merged, _stable_reference(both))


# ------------------------------------------------------------ phases.merge


def _merge_job(spill, n_runs, block, piece_blocks, **knobs):
    """A feasible single-rank job with R = ``n_runs`` and the given M/3."""
    return NativeJob(
        config=SortConfig(
            data_per_node_bytes=n_runs * piece_blocks * block * RECORD_BYTES,
            memory_bytes=3 * piece_blocks * block * RECORD_BYTES,
            block_bytes=block * RECORD_BYTES,
            seed=1,
        ),
        n_workers=1,
        spill_dir=str(spill),
        **knobs,
    )


def _run_merge(spill, segments, block, piece_blocks, harvested=True, **knobs):
    """Write ``segments`` as segment files and merge them; returns
    ``(output records, OutputMeta, store, stats, job)``."""
    job = _merge_job(spill, len(segments), block, piece_blocks, **knobs)
    assert job.n_runs == len(segments) and job.piece_blocks == piece_blocks
    store = FileBlockStore(str(spill), rank=0, block_records=block)
    stats = WorkerStats(rank=0)
    store.attach_stats(stats)
    for r, seg in enumerate(segments):
        seg.tofile(store.segment_path(r))
    first_keys = (
        [[int(k) for k in seg["key"][::block]] for seg in segments]
        if harvested else None
    )
    ctx = NativeContext(rank=0, job=job, comm=None, store=store, stats=stats)
    meta = merge(ctx, [len(seg) for seg in segments], first_keys)
    out = np.fromfile(store.output_path(), dtype=NATIVE_DTYPE)
    return out, meta, store, stats, job


def _segments(lengths, key_range, seed):
    """Sorted segments with globally unique payloads (so that any
    reordering of equal keys shows)."""
    rng = np.random.default_rng(seed)
    segments, next_id = [], 0
    for n in lengths:
        keys = np.sort(rng.integers(0, key_range, n).astype(np.uint64))
        ids = np.arange(next_id, next_id + n, dtype=np.uint64)
        segments.append(make_records(keys, ids))
        next_id += n
    return segments


@st.composite
def merge_cases(draw):
    n_runs = draw(st.integers(1, 9))
    block = draw(st.integers(1, 12))
    lengths = [draw(st.integers(0, 5 * block + 3)) for _ in range(n_runs)]
    total_blocks = sum(-(-n // block) for n in lengths)
    # From the smallest feasible M (G = 1) to G >= all blocks.
    piece_blocks = draw(st.integers((n_runs + 3) // 2, n_runs + total_blocks + 1))
    return {
        "lengths": lengths,
        "block": block,
        "piece_blocks": piece_blocks,
        "key_range": draw(st.sampled_from([1, 3, 50, 2**40])),
        "seed": draw(st.integers(0, 2**16)),
        "harvested": draw(st.booleans()),
        "prefetch_blocks": draw(st.integers(1, 5)),
        "write_behind_blocks": draw(st.integers(1, 5)),
    }


@given(case=merge_cases())
@settings(max_examples=60, deadline=None)
def test_merge_is_the_stable_merge_of_the_segments(tmp_path_factory, case):
    segments = _segments(case["lengths"], case["key_range"], case["seed"])
    expect = merge_record_arrays(segments)
    nbytes = expect.nbytes
    shape = (case["block"], case["piece_blocks"], case["harvested"])

    out, meta, store, stats, job = _run_merge(
        tmp_path_factory.mktemp("sync"), segments, *shape
    )

    assert np.array_equal(out, expect)
    assert meta.n_records == len(expect) and meta.sorted_ok
    if len(expect):
        keys = expect["key"]
        assert (meta.first_key, meta.last_key) == (int(keys[0]), int(keys[-1]))
        assert meta.checksum == int(np.add.reduce(keys)) & (2**64 - 1)
    else:
        assert meta.first_key is None and meta.last_key is None
        assert meta.checksum == 0
    # Every segment byte is read once, every output byte written once.
    assert store.bytes_read.get(TAG_MERGE, 0) == nbytes
    assert store.bytes_written.get(TAG_MERGE, 0) == nbytes
    assert stats.peak_resident_bytes <= 2 * job.memory_bytes
    # The segments are reclaimed.
    assert not any(
        os.path.exists(store.segment_path(r)) for r in range(len(segments))
    )

    piped, piped_meta, piped_store, _stats, _job = _run_merge(
        tmp_path_factory.mktemp("pipe"), segments, *shape,
        prefetch_blocks=case["prefetch_blocks"],
        write_behind_blocks=case["write_behind_blocks"],
    )
    assert piped.tobytes() == out.tobytes()
    assert piped_meta.checksum == meta.checksum
    assert piped_store.bytes_read.get(TAG_MERGE, 0) == nbytes
    assert piped_store.bytes_written.get(TAG_MERGE, 0) == nbytes


@pytest.mark.parametrize("key_range", [12, 1], ids=["dup-heavy", "all-equal"])
def test_merge_tie_order_does_not_depend_on_block_size(tmp_path, key_range):
    """Regression: the per-block loop emitted everything <= the smallest
    buffer tail from *every* run, so when a run's buffered block ended in
    key k and its next block started with k, later runs' k-records were
    written first — tie order (and so the output bytes) depended on B."""
    segments = _segments([150, 90, 200, 1, 0, 170], key_range, seed=3)
    expect = merge_record_arrays(segments)
    outputs = []
    for block in (4, 32):
        out, meta, _store, _stats, _job = _run_merge(
            tmp_path / f"b{block}", segments, block, piece_blocks=8
        )
        assert meta.sorted_ok
        assert np.array_equal(out, expect), f"B = {block}"
        outputs.append(out.tobytes())
    assert outputs[0] == outputs[1]


def test_standalone_merge_without_harvested_keys(tmp_path):
    """``merge(ctx, seg_len)`` with no prediction sequence still merges,
    and its data bytes stay exactly the segment bytes (the first-key
    probes are index reads)."""
    segments = _segments([70, 33, 0, 64], 25, seed=5)
    out, meta, store, _stats, _job = _run_merge(
        tmp_path, segments, block=8, piece_blocks=6, harvested=False
    )
    expect = merge_record_arrays(segments)
    assert np.array_equal(out, expect) and meta.n_records == len(expect)
    assert store.bytes_read[TAG_MERGE] == expect.nbytes
    assert store.bytes_read[TAG_MERGE + ":index"] == 22 * RECORD_BYTES
