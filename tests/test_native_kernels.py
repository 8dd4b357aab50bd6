"""The native backend's two CPU kernels: ``sort_records`` and the merge.

``sort_records`` must equal a stable argsort on every input shape and
never touch its argument.  ``phases.merge`` is driven directly over a
:class:`~repro.native.blockstore.FileBlockStore`: whatever the block
size B, the batch size G (derived from M), the pipelining knobs and the
way each segment is spread over its piece and slab files (the extent
lists the in-place all-to-all leaves behind), its output is the stable
merge of the segments in run order — the package's (key, run, position)
tie rule — with exact byte conservation.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SortConfig
from repro.native import NativeJob
from repro.native.blockstore import FileBlockStore
from repro.native.phases import (
    TAG_MERGE,
    NativeContext,
    NativeRun,
    PieceMeta,
    SegmentLayout,
    merge,
    piece_slice,
    read_units,
    segment_layouts,
)
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


#: A record no segment contains: the filler around a kept range in its
#: piece file.  Reading one would break the output's order and count.
_POISON = make_records(
    np.full(1, 2**64 - 1, dtype=np.uint64), np.full(1, 2**64 - 1, dtype=np.uint64)
)


def _whole(seg):
    """The layout of a segment that lies wholly in the rank's own piece."""
    return SegmentLayout(0, 0, len(seg), 0)


def _lay_out(store, r, seg, layout, tail=0):
    """Put ``seg`` on disk the way the all-to-all leaves a segment: its
    kept range inside the piece file (poison records around it), lower
    and upper slab back to back in the slab file.  Returns the extents
    and the first keys the all-to-all would hand the merge."""
    lower, keep_start, kept, upper = layout
    assert layout.n_records == len(seg)
    block = store.block_records
    piece = np.concatenate([
        np.repeat(_POISON, keep_start), seg[lower : lower + kept],
        np.repeat(_POISON, tail),
    ])
    piece.tofile(store.piece_path(r))
    if lower + upper:
        np.concatenate([seg[:lower], seg[lower + kept :]]).tofile(
            store.slab_path(r)
        )
    extents = layout.extents(store, r)
    # Slab units and kept units on the piece's block grid come for free;
    # a kept range starting inside a block leaves its first key unknown.
    first_keys, pos = [], 0
    for path, start, count in read_units(extents, block):
        known = path == store.slab_path(r) or start % block == 0
        first_keys.append(int(seg["key"][pos]) if known else None)
        pos += count
    return extents, first_keys


def _run_merge(spill, segments, block, piece_blocks, harvested=True,
               layouts=None, rank=0, **knobs):
    """Lay ``segments`` out as extent lists and merge them; returns
    ``(output records, OutputMeta, store, stats, job)``."""
    job = _merge_job(spill, len(segments), block, piece_blocks, **knobs)
    assert job.n_runs == len(segments) and job.piece_blocks == piece_blocks
    store = FileBlockStore(str(spill), rank=rank, block_records=block)
    stats = WorkerStats(rank=rank)
    store.attach_stats(stats)
    layouts = layouts or [_whole(seg) for seg in segments]
    laid = [
        _lay_out(store, r, seg, layout)
        for r, (seg, layout) in enumerate(zip(segments, layouts))
    ]
    ctx = NativeContext(rank=rank, job=job, comm=None, store=store, stats=stats)
    meta = merge(
        ctx,
        [extents for extents, _keys in laid],
        [keys for _extents, keys in laid] if harvested else None,
    )
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


def _index_reads(store):
    return (
        store.bytes_read.get(TAG_MERGE + ":index", 0),
        store.reads.get(TAG_MERGE + ":index", 0),
    )


@st.composite
def merge_cases(draw):
    n_runs = draw(st.integers(1, 9))
    block = draw(st.integers(1, 12))
    lengths = [draw(st.integers(0, 5 * block + 3)) for _ in range(n_runs)]
    # 0-3 extents per segment: any cut into lower slab / kept range /
    # upper slab (each possibly empty), the kept range anywhere in its
    # piece file — on or off the block grid.
    layouts = []
    for n in lengths:
        a = draw(st.integers(0, n))
        b = draw(st.integers(a, n))
        layouts.append(
            SegmentLayout(a, draw(st.integers(0, 2 * block + 1)), b - a, n - b)
        )
    total_units = sum(-(-n // block) + 3 for n in lengths)
    # From the smallest feasible M (G = 1) to G >= all read units.
    piece_blocks = draw(st.integers((n_runs + 3) // 2, n_runs + total_units + 1))
    return {
        "lengths": lengths,
        "layouts": layouts,
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
        tmp_path_factory.mktemp("sync"), segments, *shape,
        layouts=case["layouts"],
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
    # Every segment byte is read once, every output byte written once —
    # and not a byte of the piece files outside the kept ranges.
    assert store.bytes_read.get(TAG_MERGE, 0) == nbytes
    assert store.bytes_written.get(TAG_MERGE, 0) == nbytes
    index_bytes, index_ops = _index_reads(store)
    assert index_bytes == index_ops * RECORD_BYTES  # single-record probes
    if case["harvested"]:
        # At most the kept range's first unit per run needs its key found.
        assert index_ops <= len(segments)
    assert stats.peak_resident_bytes <= 2 * job.memory_bytes
    # The merge's input is reclaimed.
    assert not any(
        os.path.exists(path(r))
        for r in range(len(segments))
        for path in (store.piece_path, store.slab_path)
    )

    piped, piped_meta, piped_store, _stats, _job = _run_merge(
        tmp_path_factory.mktemp("pipe"), segments, *shape,
        layouts=case["layouts"],
        prefetch_blocks=case["prefetch_blocks"],
        write_behind_blocks=case["write_behind_blocks"],
    )
    assert piped.tobytes() == out.tobytes()
    assert piped_meta.checksum == meta.checksum
    assert piped_store.bytes_read.get(TAG_MERGE, 0) == nbytes
    assert piped_store.bytes_written.get(TAG_MERGE, 0) == nbytes
    assert _index_reads(piped_store) == (index_bytes, index_ops)


#: (lower, keep_start, kept, upper) of a 40-record segment at B = 8.
_SHAPES = {
    "kept-only-aligned": (0, 16, 40, 0),
    "kept-only-unaligned": (0, 5, 40, 0),
    "no-lower-slab": (0, 3, 29, 11),
    "no-upper-slab": (13, 0, 27, 0),
    "nothing-kept": (22, 0, 0, 18),
    "kept-inside-one-block": (19, 9, 3, 18),
    "kept-one-record": (20, 7, 1, 19),
    "all-from-below": (40, 0, 0, 0),
    "all-from-above": (0, 0, 0, 40),
    "three-unaligned-extents": (7, 13, 22, 11),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("harvested", [True, False], ids=["harvested", "probed"])
def test_merge_reads_each_extent_shape_exactly(tmp_path, shape, harvested):
    """One segment in the named shape between two plain ones: the output
    is the stable merge, the kept range's surroundings are never read,
    and a harvested guide costs at most one index record per run."""
    segments = _segments([33, 40, 21], 9, seed=11)
    layouts = [_whole(segments[0]), SegmentLayout(*_SHAPES[shape]),
               SegmentLayout(4, 2, 10, 7)]
    out, meta, store, _stats, _job = _run_merge(
        tmp_path, segments, block=8, piece_blocks=5, harvested=harvested,
        layouts=layouts,
    )
    expect = merge_record_arrays(segments)
    assert np.array_equal(out, expect) and meta.sorted_ok
    assert store.bytes_read[TAG_MERGE] == expect.nbytes
    index_bytes, index_ops = _index_reads(store)
    assert index_bytes == index_ops * RECORD_BYTES
    if harvested:
        unaligned = sum(
            1 for lay in layouts if lay.kept and lay.keep_start % 8
        )
        assert index_ops == unaligned <= len(segments)
    else:
        assert index_ops == sum(
            len(read_units(lay.extents(store, r), 8))
            for r, lay in enumerate(layouts)
        )


@pytest.mark.parametrize("key_range", [12, 1], ids=["dup-heavy", "all-equal"])
def test_merge_tie_order_does_not_depend_on_block_size(tmp_path, key_range):
    """Regression: the per-block loop emitted everything <= the smallest
    buffer tail from *every* run, so when a run's buffered block ended in
    key k and its next block started with k, later runs' k-records were
    written first — tie order (and so the output bytes) depended on B.
    Nor may it depend on how a segment is cut into extents."""
    segments = _segments([150, 90, 200, 1, 0, 170], key_range, seed=3)
    expect = merge_record_arrays(segments)
    cut = [
        SegmentLayout(41, 3, 60, 49), SegmentLayout(0, 7, 90, 0),
        SegmentLayout(100, 0, 0, 100), SegmentLayout(0, 0, 0, 1),
        SegmentLayout(0, 0, 0, 0), SegmentLayout(5, 33, 2, 163),
    ]
    outputs = []
    for block in (4, 32):
        for name, layouts in (("whole", None), ("cut", cut)):
            out, meta, _store, _stats, _job = _run_merge(
                tmp_path / f"b{block}-{name}", segments, block,
                piece_blocks=8, layouts=layouts,
            )
            assert meta.sorted_ok
            assert np.array_equal(out, expect), f"B = {block}, {name}"
            outputs.append(out.tobytes())
    assert len(set(outputs)) == 1


def test_standalone_merge_without_harvested_keys(tmp_path):
    """``merge(ctx, segments)`` with no prediction sequence still merges,
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


# ------------------------------------------------- segment layouts, P ranks


def _inventory(lengths, n_workers):
    """Runs of the given lengths cut into exact-quantile pieces."""
    return [
        NativeRun(r, [
            PieceMeta(
                run=r, rank=j,
                n_records=(j + 1) * n // n_workers - j * n // n_workers,
                sample_keys=np.empty(0, dtype=np.uint64), sample_every=1,
            )
            for j in range(n_workers)
        ])
        for r, n in enumerate(lengths)
    ]


@st.composite
def splitter_cases(draw):
    n_workers = draw(st.sampled_from([2, 3, 4]))
    block = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(0, 6 * block + 2), min_size=1, max_size=5))
    # Any monotone splitter matrix: row i is where rank i's span starts.
    cuts = [
        sorted(draw(st.integers(0, n)) for _ in range(n_workers - 1))
        for n in lengths
    ]
    splits = [[0] * len(lengths)] + [
        [cuts[r][i] for r in range(len(lengths))] for i in range(n_workers - 1)
    ] + [list(lengths)]
    return n_workers, block, lengths, splits, draw(st.integers(0, 2**16))


@given(case=splitter_cases())
@settings(max_examples=60, deadline=None)
def test_layouts_and_merge_agree_with_the_splitters_on_every_rank(
    tmp_path_factory, case
):
    """For P in {2, 3, 4} and any splitter matrix: the layouts partition
    every run (what one rank expects from another is what that one
    sends, from ``splits`` alone), and merging each rank's extents —
    laid out as the all-to-all would leave them — gives exactly the
    stable merge of its splitter spans."""
    n_workers, block, lengths, splits, seed = case
    runs = _inventory(lengths, n_workers)
    data = _segments(lengths, 7, seed)

    moved = 0
    for rank in range(n_workers):
        layouts, slab_base = segment_layouts(runs, splits, rank)
        for r, run in enumerate(runs):
            span = range(splits[rank][r], splits[rank + 1][r])
            owners = [run.locate(g)[0] for g in span]
            assert layouts[r].n_records == len(span)
            assert layouts[r].kept == owners.count(rank)
            assert layouts[r].lower == sum(o < rank for o in owners)
            for sender in range(n_workers):
                lo, hi = piece_slice(run, splits, r, sender, rank)
                assert hi - lo == owners.count(sender)
                # Slab offsets: senders in rank order, own rank skipped.
                arriving = 0 if sender == rank else hi - lo
                assert slab_base[r][sender + 1] - slab_base[r][sender] == arriving
                moved += arriving
            assert slab_base[r][0] == 0
            if layouts[r].kept:
                assert run.offsets[rank] + layouts[r].keep_start == (
                    span[owners.index(rank)]
                )

        segments = [
            data[r][splits[rank][r] : splits[rank + 1][r]]
            for r in range(len(runs))
        ]
        total_units = sum(-(-len(seg) // block) + 3 for seg in segments)
        out, meta, store, _stats, _job = _run_merge(
            tmp_path_factory.mktemp(f"rank{rank}"), segments, block,
            piece_blocks=len(runs) + total_units + 1, layouts=layouts,
            rank=rank,
        )
        assert np.array_equal(out, merge_record_arrays(segments))
        assert store.bytes_read.get(TAG_MERGE, 0) == out.nbytes
        assert _index_reads(store)[1] <= len(runs)
    kept = sum(
        layout.kept
        for rank in range(n_workers)
        for layout in segment_layouts(runs, splits, rank)[0]
    )
    assert moved + kept == sum(lengths)
