"""The native backend's two CPU kernels: ``sort_records`` and the merge.

``sort_records`` and ``merge_record_arrays`` must equal a stable argsort
on every input shape — through each path of the packed-word order:
exact, or with its groups of tied prefixes ordered by another packed
sort — and never touch their arguments; small end-to-end sorts keep
pinned output bytes.  ``phases.merge`` is driven directly over a
:class:`~repro.native.blockstore.FileBlockStore`: whatever the block
size B, the batch size G (derived from M), the pipelining knobs and the
way each segment is spread over its piece and slab files (the extent
lists the in-place all-to-all leaves behind), its output is the stable
merge of the segments in run order — the package's (key, run, position)
tie rule — with exact byte conservation, for both record models.
"""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConfigError, SortConfig
from repro.native import NativeJob, NativeSorter, native_sort
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
    RecordBuffers,
    VarlenBatch,
    _packed_order,
    make_records,
    merge_record_arrays,
    resolve_model,
    sort_records,
    string_key_from_u64,
    write_varlen_file,
)
from repro.native.stats import WorkerStats
from repro.testing import corpus

# ------------------------------------------------------------ sort_records


def _stable_reference(records):
    return records[np.argsort(records["key"], kind="stable")]


def _numbered(keys):
    keys = np.asarray(keys, dtype=np.uint64)
    return make_records(keys, np.arange(len(keys), dtype=np.uint64))


def _low_bit_ties(n, share, seed):
    """``n`` keys spanning the whole u64 range, so the packed order keeps
    only a prefix of each, whose prefix ties are ``share`` of the
    neighbours: pairs equal above the low b = bit_length(n - 1) bits,
    some of them equal in every bit."""
    rng = np.random.default_rng(seed)
    b = (n - 1).bit_length()
    keys = rng.integers(0, 2**64, n, dtype=np.uint64)
    keys[:2] = [0, 2**64 - 1]
    m = int(n * share)
    pick = rng.permutation(np.arange(2, n))[: 2 * m]
    low = rng.integers(0, 2**b, m, dtype=np.uint64)
    low[: m // 4] = 0
    keys[pick[m:]] = keys[pick[:m]] ^ low
    return keys


def _prefix_groups(n, groups, seed):
    """``n`` keys in ``groups`` clusters at random points of the u64
    range, each 2^b wide: the packed order drops the low b bits, so a
    cluster spans at most two prefixes."""
    rng = np.random.default_rng(seed)
    b = (n - 1).bit_length()
    bases = rng.integers(0, 2**64 - 2**b, groups, dtype=np.uint64)
    keys = bases[rng.integers(0, groups, n)]
    keys += rng.integers(0, 2**b, n, dtype=np.uint64)
    keys[0] = 2**64 - 1
    return keys


_RNG = np.random.default_rng(20)
_SORT_INPUTS = {
    "empty": _numbered([]),
    "single": _numbered([5]),
    # Keys over the whole u64 range: the packed order keeps a prefix.
    "random": _numbered(_RNG.integers(0, 2**64, 4000, dtype=np.uint64)),
    "low-bit-ties": _numbered(_low_bit_ties(4000, 0.1, 1)),      # repaired
    "low-bit-ties-many": _numbered(_low_bit_ties(4000, 0.3, 2)),  # repaired
    "prefix-groups": _numbered(_prefix_groups(4000, 3, 4)),      # repaired
    "reverse-wide": _numbered(np.sort(_low_bit_ties(3000, 0.1, 3))[::-1]),
    # Narrow keys: the packed order is exact, however many of them tie.
    "few-ties": _numbered(_RNG.integers(0, 40000, 4000)),
    "dup-heavy": _numbered(_RNG.integers(0, 50, 4000)),
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
    # Narrow keys take the exact packed order.  ``wide`` spreads them over
    # the whole u64 range and adds low-bit noise inside some groups of
    # equal keys, so equal prefixes are repaired at any share of them.
    keys = np.asarray(keys, dtype=np.uint64)
    if wide:
        keys = keys * np.uint64(1 << 59) + (
            np.arange(len(keys), dtype=np.uint64) % np.uint64(7)
        ) * (keys % np.uint64(3))
    records = _numbered(keys)
    assert np.array_equal(sort_records(records), _stable_reference(records))


@given(
    n=st.integers(16, 2000),
    share=st.sampled_from([0.02, 0.1, 0.2, 0.45]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_packed_order_repairs_low_bit_ties(n, share, seed):
    """Keys wider than 2^(64 - b) that tie only in their low bits, pairs
    of them joining from 2 % to 45 % of the neighbours."""
    keys = _low_bit_ties(n, share, seed)
    assert np.array_equal(_packed_order(keys), np.argsort(keys, kind="stable"))
    records = _numbered(keys)
    assert np.array_equal(sort_records(records), _stable_reference(records))


@given(
    n=st.integers(2, 3000),
    groups=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_packed_order_sorts_large_prefix_groups(n, groups, seed):
    """Clusters of keys narrower than the bits the prefix drops, spread
    over the u64 range: whole clusters share a prefix, so the second
    packed sort orders most of the records, duplicates among them."""
    keys = _prefix_groups(n, groups, seed)
    assert np.array_equal(_packed_order(keys), np.argsort(keys, kind="stable"))


def test_packed_order_recurses_until_exact(monkeypatch):
    """Past 2^21 keys the second pass can itself keep only a prefix:
    2^20 + 3 pairs of keys sharing a 42-bit prefix over the whole u64
    range give 2^20 + 2 groups of 22 dropped bits, a 43-bit key for
    2^21 + 4 records, so its one tied pair takes a third pass."""
    widths = []

    def spy(keys):
        b = (len(keys) - 1).bit_length()
        widths.append(int(keys.max() - keys.min()).bit_length() + b)
        return packed_order(keys)

    packed_order = _packed_order
    monkeypatch.setattr("repro.native.records._packed_order", spy)
    rng = np.random.default_rng(3)
    pairs = 2**20 + 3
    prefixes = rng.integers(0, 2**42, pairs, dtype=np.uint64) << np.uint64(22)
    keys = np.repeat(prefixes, 2) | rng.integers(0, 2**22, 2 * pairs, dtype=np.uint64)
    keys[:2] = [0, 2**64 - 1]
    rng.shuffle(keys)
    assert np.array_equal(spy(keys), np.argsort(keys, kind="stable"))
    assert len(widths) == 3 and widths[1] > 64   # the second pass was inexact


@pytest.mark.parametrize("k", [1, 2, 5, 8, 11])
@pytest.mark.parametrize("plus_one", [0, 1], ids=["2^k", "2^k+1"])
@pytest.mark.parametrize("wider", [0, 1], ids=["exact", "one-bit-over"])
def test_packed_order_at_the_position_width_boundaries(k, plus_one, wider):
    """n = 2^k and 2^k + 1 (where the position width b steps), keys
    spanning 2^(64 - b) - 1 (the widest range kept whole: exact) or one
    more (a one-bit prefix: keys 2 and 3 above the minimum tie)."""
    n = 2**k + plus_one
    b = (n - 1).bit_length()
    span = 2 ** (64 - b) - 1 + wider
    rng = np.random.default_rng(n)
    lo = rng.integers(0, 2**64 - 1 - span, dtype=np.uint64, endpoint=True)
    offsets = rng.integers(0, span, n, dtype=np.uint64, endpoint=True)
    offsets[:2] = [span, 0]
    if n >= 6:
        offsets[2:4] = [3, 2]
        offsets[-1] = offsets[-2]
    keys = lo + offsets
    want = np.argsort(keys, kind="stable")
    assert np.array_equal(_packed_order(keys), want)
    records = _numbered(keys)
    assert np.array_equal(sort_records(records), records[want])


@st.composite
def merge_part_cases(draw):
    n_parts = draw(st.sampled_from([2, 3, 37]))
    return {
        "sizes": [draw(st.integers(0, 60)) for _ in range(n_parts)],
        "kinds": [
            draw(st.sampled_from(["plain", "strided", "read-only"]))
            for _ in range(n_parts)
        ],
        "key_range": draw(st.sampled_from([1, 4, 30, 1000])),
        "wide": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


@given(case=merge_part_cases())
@settings(max_examples=80, deadline=None)
def test_merge_record_arrays_is_stable_across_any_parts(case):
    """2 parts (timsort), 3 and 37 (packed order), keys tied across parts
    — narrow, or spread over the u64 range with low-bit noise so the
    packed order repairs prefix ties — and parts that are strided views
    or read-only."""
    rng = np.random.default_rng(case["seed"])
    parts, at = [], 0
    for size, kind in zip(case["sizes"], case["kinds"]):
        keys = np.sort(rng.integers(0, case["key_range"], size, dtype=np.uint64))
        if case["wide"]:
            keys = keys * np.uint64(2**54) + keys % np.uint64(2)
        part = make_records(keys, np.arange(at, at + size, dtype=np.uint64))
        at += size
        if kind == "strided":
            spaced = np.zeros(2 * size, dtype=NATIVE_DTYPE)
            spaced[::2] = part
            part = spaced[::2]
        elif kind == "read-only":
            part.flags.writeable = False
        parts.append(part)
    merged = merge_record_arrays(parts)
    assert np.array_equal(merged, _stable_reference(np.concatenate(parts)))


def test_merge_record_arrays_takes_strided_and_read_only_parts():
    base = _numbered(np.sort(_RNG.integers(0, 60, 400)))
    strided = base[::2]
    frozen = base[1::2].copy()
    frozen.flags.writeable = False
    merged = merge_record_arrays([strided, frozen])
    both = np.concatenate([strided, frozen])
    assert np.array_equal(merged, _stable_reference(both))


# ------------------------------------------- out= paths: the fixed buffers


def _lands_in(result, out):
    """``result`` is the front of ``out`` (a zero-length one included)."""
    return result.ctypes.data == out.ctypes.data and len(result) <= len(out)


def _sorted_parts(records, k=3):
    return [sort_records(p) for p in np.array_split(records, k)]


@pytest.mark.parametrize("name", sorted(_SORT_INPUTS))
@pytest.mark.parametrize("scratch", [False, True], ids=["alloc", "scratch"])
def test_sort_records_into_out_equals_the_allocating_path(name, scratch):
    records = _SORT_INPUTS[name]
    n = len(records)
    bufs = RecordBuffers(n + 2) if scratch else None
    out = np.empty(n + 2, dtype=NATIVE_DTYPE)

    got = sort_records(records, out=out, scratch=bufs)

    assert np.array_equal(got, sort_records(records))
    assert _lands_in(got, out) and not np.shares_memory(got, records)
    if n:
        with pytest.raises(ValueError):
            sort_records(records, out=np.empty(n - 1, dtype=NATIVE_DTYPE))


@pytest.mark.parametrize("name", sorted(_SORT_INPUTS))
@pytest.mark.parametrize("scratch", [False, True], ids=["alloc", "scratch"])
def test_merge_record_arrays_into_out_equals_the_allocating_path(name, scratch):
    parts = _sorted_parts(_SORT_INPUTS[name])
    n = sum(len(p) for p in parts)
    bufs = RecordBuffers(n) if scratch else None
    out = np.empty(n, dtype=NATIVE_DTYPE)

    got = merge_record_arrays(parts, out=out, scratch=bufs)

    assert np.array_equal(got, merge_record_arrays(parts))
    assert _lands_in(got, out)
    assert not any(np.shares_memory(got, p) for p in parts)
    if n:
        with pytest.raises(ValueError):
            merge_record_arrays(parts, out=out[: n - 1], scratch=bufs)


def test_merge_takes_parts_already_in_place_without_copying():
    """Parts that lie back to back at the front of the scratch's chunk —
    an exchange's landing slots — are merged where they lie."""
    parts = _sorted_parts(_SORT_INPUTS["random"], 4)
    bufs = RecordBuffers(4000)
    bounds = np.cumsum([0] + [len(p) for p in parts])
    for p, a in zip(parts, bounds):
        bufs.chunk[a : a + len(p)] = p
    bufs.chunk.flags.writeable = False  # any copy into it would raise
    slots = [bufs.chunk[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    got = merge_record_arrays(slots, out=bufs.sorted, scratch=bufs)

    assert np.array_equal(got, merge_record_arrays(parts))
    assert _lands_in(got, bufs.sorted)


@pytest.mark.parametrize("capacity", [0, 1, 1000, 1 << 15, 1 << 17])
def test_the_fixed_set_holds_40_bytes_per_record_plus_the_probe(capacity):
    """Two record buffers and the words: 16 + 16 + 8 bytes per record of
    the run chunk, plus the probe block (at most 32 Ki words), whatever
    the chunk.  The positions come from a probe-sized ramp, one block at
    a time, and still order a set of several blocks exactly."""
    bufs = RecordBuffers(capacity)
    assert bufs.nbytes <= 40 * capacity + 8 * min(capacity, 1 << 15)
    if capacity >= 2:
        order = _packed_order(np.arange(capacity, 0, -1, dtype=np.uint64), bufs)
        assert np.shares_memory(order, bufs.words)
        assert np.array_equal(order, np.arange(capacity - 1, -1, -1))


@pytest.mark.parametrize("every", [1, 3, 10**6])
def test_fixed16_encode_keys_never_views_the_records(every):
    """A piece's sample outlives its buffer, which the next run reuses:
    encoded keys are a copy even when the slice holds one key (numpy
    counts any one-element array as contiguous)."""
    model = resolve_model("fixed16")
    piece = sort_records(_SORT_INPUTS["random"])
    for part in (piece, piece[:1]):
        sample = model.encode_keys(model.keys(part)[::every])
        assert not np.shares_memory(sample, part)
        assert np.array_equal(sample, part["key"][::every])


@pytest.mark.parametrize("name", sorted(_SORT_INPUTS))
def test_block_reads_into_out_equal_the_allocating_path(tmp_path, name):
    records = np.ascontiguousarray(_SORT_INPUTS[name])
    path = str(tmp_path / "input.dat")
    records.tofile(path)
    store = FileBlockStore(str(tmp_path), rank=0, block_records=7)
    n_blocks = -(-len(records) // 7)
    ids = list(np.random.default_rng(1).permutation(n_blocks))
    out = np.empty(len(records) + 5, dtype=NATIVE_DTYPE)

    got = store.read_blocks(path, ids, "t", out=out)
    assert np.array_equal(got, store.read_blocks(path, ids, "t"))
    assert _lands_in(got, out) and not np.shares_memory(got, records)

    start = len(records) // 3
    got = store.read_range(path, start, 50, "t", out=out)
    assert np.array_equal(got, store.read_range(path, start, 50, "t"))
    assert _lands_in(got, out)

    if len(records) > 1:
        short = np.empty(len(records) - 1, dtype=NATIVE_DTYPE)
        with pytest.raises(ValueError):
            store.read_blocks(path, ids, "t", out=short)
        with pytest.raises(ValueError):
            store.read_range(path, 0, len(records), "t", out=short)


# ------------------------------------------------------------ golden bytes

#: sha256 over both ranks' output files of the sorts below (64 KiB per
#: rank), per run chunk: 10 KiB (R = 7), recorded with the argsort + tie
#: repair sort and the timsort merge, and 16 KiB (R = 4).  A new kernel
#: must keep every output byte, tie order included, at either block
#: size.  Keys that never tie give one output whatever the runs; the
#: tie-heavy keys break ties by run, so their bytes follow the chunk.
_GOLDEN = {
    "tie-heavy": "b2dcb1e2e9bb905155a3bd6e1bc63f77cfb569a5d1aa1d9f4ce874fd8b4b40af",
    "uniform": "4b06d9b1aeadbc6ca109af1b323ffb19728bcd89bff031265e11f7dc8a36d32d",
    "fig6-local-sorted":
        "0f3b74ec36ac45ee02530db62e2239c09895260e5ab8187dff13e3a03cc80bba",
}
_GOLDEN_16K = dict(
    _GOLDEN,
    **{"tie-heavy":
       "905b80d0e543ae2570a6b8e8cf3d46733110b459b277e8820c27d029cdfe7364"},
)

#: id -> (block KiB, M KiB, run chunk in blocks, R, goldens).  At 2 KiB
#: blocks a 10 KiB chunk holds 5 blocks, too few to stage R = 7 carries
#: and a fresh block, so the merge gate refuses that job: the 2 KiB
#: sorts run at 16 KiB chunks, beside 1 KiB ones.
_GOLDEN_JOBS = {
    "1": (1, 20, 10, 7, _GOLDEN),
    "2": (2, 32, 8, 4, _GOLDEN_16K),
    "1-chunk16k": (1, 32, 16, 4, _GOLDEN_16K),
}


@pytest.mark.parametrize("job_id", sorted(_GOLDEN_JOBS))
@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_fixed16_sort_output_is_pinned(tmp_path, name, job_id):
    """Tie-heavy: gensort's duplicate-heavy keys (3548 distinct among
    8192), no randomization.  Uniform: randomized runs of full-range keys.
    Fig. 6: locally sorted input, no randomization, pre-written."""
    KiB = 1024
    block_kib, memory_kib, piece_blocks, n_runs, golden = _GOLDEN_JOBS[job_id]
    config = SortConfig(
        data_per_node_bytes=64 * KiB,
        memory_bytes=memory_kib * KiB,
        block_bytes=block_kib * KiB,
        randomize=(name == "uniform"),
        seed=3,
    )
    if name == "fig6-local-sorted":
        n = config.data_per_node_bytes // RECORD_BYTES
        corpus.write_native_inputs(str(tmp_path), [
            corpus.generate("fig6_local_sorted", n, rank, 2, seed=3)
            for rank in range(2)
        ])
        result = NativeSorter(NativeJob(
            config=config, n_workers=2, spill_dir=str(tmp_path), generate=False,
        )).run()
    else:
        result = native_sort(
            config, n_workers=2, spill_dir=str(tmp_path),
            skew=(name == "tie-heavy"),
        )
    assert (result.job.piece_blocks, result.job.n_runs) == (piece_blocks, n_runs)
    assert result.validate().ok
    digest = hashlib.sha256()
    for meta in result.outputs:
        with open(meta.path, "rb") as handle:
            digest.update(handle.read())
    assert digest.hexdigest() == golden[name]


def test_a_10k_chunk_of_2k_blocks_cannot_stage_seven_runs(tmp_path):
    """The job the 2 KiB goldens ran before runs went to M/2: 10 KiB
    chunks of 2 KiB blocks hold 5 blocks, and R = 7 carries plus a fresh
    block need 8."""
    with pytest.raises(ConfigError, match="stages"):
        NativeJob(
            config=SortConfig(data_per_node_bytes=64 * 1024,
                              memory_bytes=20 * 1024, block_bytes=2 * 1024),
            n_workers=2, spill_dir=str(tmp_path),
        )


# ------------------------------------------------------------ phases.merge


def _smallest_piece_blocks(model, n_runs):
    """The smallest run chunk, in blocks, at which the merge gate admits
    R = ``n_runs``: the stage of R carry blocks and one fresh block fits
    the working copies beside the chunk the round sorts into."""
    return -(-(n_runs + 1) // (model.working_copies - 1))


def _merge_job(spill, n_runs, block, piece_blocks, records="fixed16",
               **knobs):
    """A feasible single-rank job with R = ``n_runs`` and the given run
    chunk (M / the model's ``working_copies``)."""
    copies = resolve_model(records).working_copies
    return NativeJob(
        config=SortConfig(
            data_per_node_bytes=n_runs * piece_blocks * block * RECORD_BYTES,
            memory_bytes=copies * piece_blocks * block * RECORD_BYTES,
            block_bytes=block * RECORD_BYTES,
            seed=1,
        ),
        n_workers=1,
        spill_dir=str(spill),
        records=records,
        **knobs,
    )


#: A record no segment contains, per record model: the filler around a
#: kept range in its piece file.  Reading one would break the output's
#: order and count.
_POISON = {
    "fixed16": make_records(
        np.full(1, 2**64 - 1, dtype=np.uint64),
        np.full(1, 2**64 - 1, dtype=np.uint64),
    ),
    "string": VarlenBatch.build([b"\xff\xff"], [2**64 - 1]),
}


def _raw(model, part):
    return bytes(model.bytes_view(part))


def _write(model, path, part):
    if model.varlen:
        write_varlen_file(path, part)
    else:
        part.tofile(path)


def _whole(seg):
    """The layout of a segment that lies wholly in the rank's own piece."""
    return SegmentLayout(0, 0, len(seg), 0)


def _lay_out(store, model, r, seg, layout, tail=0):
    """Put ``seg`` on disk the way the all-to-all leaves a segment: its
    kept range inside the piece file (poison records around it), lower
    and upper slab back to back in the slab file.  Returns the extents
    and the first keys the all-to-all would hand the merge."""
    lower, keep_start, kept, upper = layout
    assert layout.n_records == len(seg)
    block = store.block_records
    poison = _POISON[model.name]
    piece = model.concat(
        [poison] * keep_start + [model.slice(seg, lower, lower + kept)]
        + [poison] * tail
    )
    paths = [store.piece_path(r)]
    _write(model, paths[0], piece)
    if lower + upper:
        paths.append(store.slab_path(r))
        _write(model, paths[1], model.concat(
            [model.slice(seg, 0, lower), model.slice(seg, lower + kept, len(seg))]
        ))
    if model.varlen:
        # The all-to-all leaves every segment file's record boundaries in
        # the store's memory; the merge itself reads no ``.idx``.
        for path in paths:
            store.index(path, "setup")
    extents = layout.extents(store, r)
    # Slab units and kept units on the piece's block grid come for free;
    # a kept range starting inside a block leaves its first key unknown.
    first_keys, pos = [], 0
    for path, start, count in read_units(extents, block):
        known = path == store.slab_path(r) or start % block == 0
        first_keys.append(model.key_at(seg, pos) if known else None)
        pos += count
    return extents, first_keys


def _run_merge(spill, segments, block, piece_blocks, harvested=True,
               layouts=None, rank=0, records="fixed16", **knobs):
    """Lay ``segments`` out as extent lists and merge them; returns
    ``(output records, OutputMeta, store, stats, job)``."""
    job = _merge_job(
        spill, len(segments), block, piece_blocks, records=records, **knobs
    )
    model = job.model
    assert job.n_runs == len(segments) and job.piece_blocks == piece_blocks
    store = FileBlockStore(str(spill), rank=rank, block_records=block,
                           model=model)
    stats = WorkerStats(rank=rank)
    store.attach_stats(stats)
    layouts = layouts or [_whole(seg) for seg in segments]
    laid = [
        _lay_out(store, model, r, seg, layout)
        for r, (seg, layout) in enumerate(zip(segments, layouts))
    ]
    ctx = NativeContext(rank=rank, job=job, comm=None, store=store, stats=stats)
    meta = merge(
        ctx,
        [extents for extents, _keys in laid],
        [keys for _extents, keys in laid] if harvested else None,
    )
    out = model.read_output(store.output_path())
    return out, meta, store, stats, job


def _segments(lengths, key_range, seed, records="fixed16"):
    """Sorted segments with globally unique payloads (so that any
    reordering of equal keys shows); string keys are the order-preserving
    hex embedding of the same u64 keys."""
    rng = np.random.default_rng(seed)
    segments, next_id = [], 0
    for n in lengths:
        keys = np.sort(rng.integers(0, key_range, n).astype(np.uint64))
        ids = np.arange(next_id, next_id + n, dtype=np.uint64)
        segments.append(
            make_records(keys, ids) if records == "fixed16" else
            VarlenBatch.build([string_key_from_u64(k) for k in keys], ids)
        )
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
    return {
        "lengths": lengths,
        "layouts": layouts,
        "block": block,
        # Run chunks beyond the smallest the record model admits: from
        # G = 1 to G >= all read units.
        "spare_blocks": draw(st.integers(0, total_units)),
        "key_range": draw(st.sampled_from([1, 3, 50, 2**40])),
        "seed": draw(st.integers(0, 2**16)),
        "harvested": draw(st.booleans()),
        "prefetch_blocks": draw(st.integers(1, 5)),
        "write_behind_blocks": draw(st.integers(1, 5)),
    }


@pytest.mark.parametrize("records", ["fixed16", "string"])
@given(case=merge_cases())
@settings(max_examples=60, deadline=None)
def test_merge_is_the_stable_merge_of_the_segments(
    tmp_path_factory, records, case
):
    model = resolve_model(records)
    segments = _segments(
        case["lengths"], case["key_range"], case["seed"], records
    )
    expect = model.merge(segments)
    nbytes = expect.nbytes
    piece_blocks = _smallest_piece_blocks(model, len(segments))
    shape = (case["block"], piece_blocks + case["spare_blocks"],
             case["harvested"])

    out, meta, store, stats, job = _run_merge(
        tmp_path_factory.mktemp("sync"), segments, *shape,
        layouts=case["layouts"], records=records,
    )

    assert _raw(model, out) == _raw(model, expect)
    assert meta.n_records == len(expect) and meta.sorted_ok
    if len(expect):
        assert (meta.first_key, meta.last_key) == (
            model.key_at(expect, 0), model.key_at(expect, -1)
        )
        assert meta.checksum == model.checksum(expect)
    else:
        assert meta.first_key is None and meta.last_key is None
        assert meta.checksum == 0
    # Every segment byte is read once, every output byte written once —
    # and not a byte of the piece files outside the kept ranges.
    assert store.bytes_read.get(TAG_MERGE, 0) == nbytes
    assert store.bytes_written.get(TAG_MERGE, 0) == nbytes
    index_bytes, index_ops = _index_reads(store)
    if records == "fixed16":
        assert index_bytes == index_ops * RECORD_BYTES  # single-record probes
    if case["harvested"]:
        # At most the kept range's first unit per run needs its key found.
        assert index_ops <= len(segments)
    # Memory is budgeted in nominal 16-byte records; a string record is
    # larger, so its bound scales with the mean encoded record size.
    scale = max(1.0, nbytes / max(1, len(expect)) / RECORD_BYTES)
    assert stats.peak_resident_bytes <= 2 * job.memory_bytes * scale
    # The merge's input is reclaimed.
    assert not any(
        os.path.exists(path(r))
        for r in range(len(segments))
        for path in (store.piece_path, store.slab_path)
    )

    piped, piped_meta, piped_store, _stats, _job = _run_merge(
        tmp_path_factory.mktemp("pipe"), segments, *shape,
        layouts=case["layouts"], records=records,
        prefetch_blocks=case["prefetch_blocks"],
        write_behind_blocks=case["write_behind_blocks"],
    )
    assert _raw(model, piped) == _raw(model, out)
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


@pytest.mark.parametrize("records", ["fixed16", "string"])
@pytest.mark.parametrize("key_range", [12, 1], ids=["dup-heavy", "all-equal"])
def test_merge_tie_order_does_not_depend_on_block_size(
    tmp_path, key_range, records
):
    """Regression: the per-block loop emitted everything <= the smallest
    buffer tail from *every* run, so when a run's buffered block ended in
    key k and its next block started with k, later runs' k-records were
    written first — tie order (and so the output bytes) depended on B.
    Nor may it depend on how a segment is cut into extents — in either
    record model."""
    model = resolve_model(records)
    segments = _segments([150, 90, 200, 1, 0, 170], key_range, 3, records)
    expect = model.merge(segments)
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
                piece_blocks=8, layouts=layouts, records=records,
            )
            assert meta.sorted_ok
            assert _raw(model, out) == _raw(model, expect), f"B = {block}, {name}"
            outputs.append(_raw(model, out))
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
                first_keys=np.empty(0, dtype=np.uint64),
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
