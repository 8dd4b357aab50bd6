"""The string model's columnar kernels against a pure-Python reference.

The reference below is the row-wise formulation — ``sorted()`` over
Python ``bytes``, ``bisect``, a per-key CRC loop and a key-by-key LCP
front coder that lays its fields out in the wire's sections — and lives
only here.  Every :class:`~repro.native.records.StringModel` kernel must
agree with it on NUL-free keys of every awkward shape: empty keys, a
key of several KiB among short ones, prefix pairs, ``0xff`` bytes,
all-equal keys, keys that tie on whole 8-byte words and differ (or end)
at a word boundary, and batches of zero or one record.  Malformed LCP
input must raise, never decode to a shorter key, and two tie-heavy
end-to-end string sorts must keep their pinned output bytes.
"""

import hashlib
import os
import struct
import zlib
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SortConfig
from repro.native import NativeJob, NativeSorter, native_sort, records
from repro.native.records import (
    VarlenBatch,
    lcp_decode_batch,
    lcp_decode_keys,
    lcp_encode_batch,
    lcp_encode_keys,
    merge_varlen_batches,
    resolve_model,
    string_checksum,
    url_key_from_u64,
    write_varlen_file,
)
from repro.workloads.gensort import record_keys

MODEL = resolve_model("string")
KiB = 1024
_MASK = (1 << 64) - 1

# ------------------------------------------------------------- reference


def ref_order(keys):
    return sorted(range(len(keys)), key=keys.__getitem__)


def ref_checksum(keys, payloads, acc=0):
    for key, payload in zip(keys, payloads):
        acc = (acc + zlib.crc32(key) * 0x9E3779B1 + payload + 1) & _MASK
    return acc


def _lcp(a, b):
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def ref_encode(keys, payloads=None):
    """``u32 n | n x (u32 lcp, u32 suffix_len) | suffixes | n x u64``."""
    pairs, suffixes, prev, saved = [], [], b"", 0
    for key in keys:
        lcp = _lcp(prev, key)
        pairs.append(struct.pack("<II", lcp, len(key) - lcp))
        suffixes.append(key[lcp:])
        saved += lcp
        prev = key
    tail = [] if payloads is None else [struct.pack("<Q", p) for p in payloads]
    wire = b"".join([struct.pack("<I", len(keys))] + pairs + suffixes + tail)
    return wire, saved


def ref_decode(wire, with_payloads):
    (n,) = struct.unpack_from("<I", wire, 0)
    pairs = [struct.unpack_from("<II", wire, 4 + 8 * i) for i in range(n)]
    off = 4 + 8 * n
    keys, prev = [], b""
    for lcp, suffix_len in pairs:
        prev = prev[:lcp] + wire[off : off + suffix_len]
        off += suffix_len
        keys.append(prev)
    if not with_payloads:
        return keys
    return keys, [struct.unpack_from("<Q", wire, off + 8 * i)[0] for i in range(n)]


def batch(keys, start=0):
    return VarlenBatch.build(keys, range(start, start + len(keys)))


def payloads_of(part):
    return [int(p) for p in part.payloads()]


def raw(part):
    return bytes(part.bytes_view())


# ------------------------------------------------------------- strategies

#: Few distinct bytes, so prefixes and ties are common; 0x80 and 0xff
#: catch a signed byte comparison.
_BYTES = st.sampled_from([0x01, 0x61, 0x62, 0x7F, 0x80, 0xFF])
_SHORT = st.lists(_BYTES, max_size=5).map(bytes)
#: 6-26 bytes behind a shared ``https://``, the rest over three bytes:
#: keys that tie on whole 8-byte words and differ at any byte of the
#: next one, or run out exactly at a word boundary.
_WORDY = st.tuples(
    st.integers(6, 26),
    st.lists(st.sampled_from([0x61, 0x62, 0xFF]), min_size=18, max_size=18),
).map(lambda cut_tail: (b"https://" + bytes(cut_tail[1]))[: cut_tail[0]])
_LONG = b"\x61" * (4 * KiB) + b"\x62"


@st.composite
def key_lists(draw, max_size=30):
    keys = draw(st.lists(draw(st.sampled_from([_SHORT, _WORDY])),
                         max_size=max_size))
    if keys and draw(st.integers(0, 4)) == 0:
        keys = [keys[0]] * len(keys)  # all equal
    if draw(st.integers(0, 5)) == 0:
        keys.insert(draw(st.integers(0, len(keys))), _LONG)
    return keys


_SHAPES = [
    [],
    [b""],
    [b"x"],
    [b"", b"", b""],
    [b"a", b"ab", b"a", b"", b"ab"],
    [b"\xff", b"\xff\xff", b"\x01", b"\x80", b"\x7f"],
    [b"dup"] * 6,
    [b"b", _LONG, b"a", b"", _LONG[:-1]],
    # Equal in bytes 0-7, different at byte 8.
    [b"abcdefgh\xff", b"abcdefghb", b"abcdefgh\x01", b"abcdefgh", b"abcdefgha"],
    # Exactly one and two words, next to their one-byte extensions.
    [b"0123456789abcdef\x01", b"01234567\xff", b"0123456789abcdef",
     b"01234567", b"01234567\x01", b"0123456789abcdef"],
    [b"https://example.com/same"] * 5,
]


def with_shapes(**others):
    """Pin every shape of :data:`_SHAPES` as an explicit example."""
    def add(test):
        for keys in _SHAPES:
            test = example(keys=keys, **others)(test)
        return test
    return add


# ------------------------------------------------------------- kernels


@given(keys=key_lists())
@with_shapes()
@settings(max_examples=150, deadline=None)
def test_sort_is_the_stable_sorted_order(keys):
    part = batch(keys)
    done = MODEL.sort(part)
    order = ref_order(keys)
    assert done.keys() == [keys[i] for i in order]
    assert payloads_of(done) == order
    assert raw(done) == raw(VarlenBatch.build([keys[i] for i in order], order))
    assert MODEL.is_sorted(done)
    assert MODEL.is_sorted(part) == (order == list(range(len(keys))))
    # Parsing the bytes back (no carried column) sorts the same.
    assert raw(VarlenBatch.from_bytes(raw(part)).sort()) == raw(done)


@given(parts=st.lists(key_lists(max_size=12), max_size=4))
@example(parts=[[b"a", b"b"], [b"a", b"b"], [], [b"a"]])
@example(parts=[[_LONG], [b""], [b"\xff"] * 3])
@settings(max_examples=150, deadline=None)
def test_merge_is_stable_across_parts(parts):
    batches, keys, start = [], [], 0
    for part_keys in parts:
        srt = sorted(part_keys)
        batches.append(batch(srt, start))
        keys += srt
        start += len(srt)
    merged = MODEL.merge(batches)
    order = ref_order(keys)  # stable: (key, part, position)
    assert merged.keys() == [keys[i] for i in order]
    assert payloads_of(merged) == order
    assert raw(merge_varlen_batches(batches)) == raw(merged)


@given(keys=key_lists(), probe=_SHORT, lo=st.integers(0, 40))
@with_shapes(probe=b"a", lo=1)
@settings(max_examples=150, deadline=None)
def test_cut_matches_bisect(keys, probe, lo):
    srt = sorted(keys)
    part = batch(srt)
    probes = [probe, _LONG, _LONG + b"\x01"] + srt[:2]
    lo = min(lo, len(srt))
    for key in probes:
        assert MODEL.cut(part, key, "left", lo) == bisect_left(srt, key, lo)
        assert MODEL.cut(part, key, "right", lo) == bisect_right(srt, key, lo)


def test_record_bytes_and_columns_convert_across_blocks():
    """More records than one conversion block, of every length mod 8, a
    few long keys among them: the bytes assembled from the columns are
    the row-wise encoding, and the columns read back from those bytes
    are the keys and payloads again."""
    n = 3 * records._BLOCK_ROWS + 5
    keys = [bytes([0x61 + i % 7]) * (i % 41) for i in range(n)]
    for i in (7, n // 2, n - 1):
        keys[i] = b"\x80" * (1000 + i % 9)
    payloads = [(i * 0x9E3779B97F4A7C15) & _MASK for i in range(n)]
    want = b"".join(
        struct.pack("<I", len(k)) + k + struct.pack("<Q", p)
        for k, p in zip(keys, payloads)
    )
    built = VarlenBatch.build(keys, payloads)
    assert raw(built) == want
    parsed = VarlenBatch.from_bytes(want)
    assert parsed.keys() == keys
    assert payloads_of(parsed) == payloads


@given(keys=key_lists(), acc=st.integers(0, _MASK))
@with_shapes(acc=2**64 - 1)
@settings(max_examples=100, deadline=None)
def test_checksum_matches_the_row_wise_sum(keys, acc):
    payloads = [(2**64 - 1 - 7 * i) for i in range(len(keys))]
    part = VarlenBatch.build(keys, payloads)
    assert string_checksum(part, acc) == ref_checksum(keys, payloads, acc)
    assert MODEL.checksum(part, acc) == string_checksum(part, acc)


@given(keys=key_lists())
@with_shapes()
@settings(max_examples=150, deadline=None)
def test_batch_codec_matches_reference_and_round_trips(keys):
    for ordered in (keys, sorted(keys)):
        part = batch(ordered)
        wire, saved = lcp_encode_batch(part)
        assert (wire, saved) == ref_encode(ordered, range(len(ordered)))
        assert len(wire) == 4 + part.nbytes + 4 * len(part) - saved
        back = lcp_decode_batch(wire)
        assert raw(back) == raw(part)
        assert back.keys() == ordered
        assert ref_decode(wire, True) == (ordered, list(range(len(ordered))))


@given(keys=key_lists())
@with_shapes()
@settings(max_examples=150, deadline=None)
def test_keys_codec_matches_reference_and_round_trips(keys):
    for ordered in (keys, sorted(keys)):
        wire, saved = lcp_encode_keys(ordered)
        assert (wire, saved) == ref_encode(ordered)
        assert len(wire) == 4 + sum(map(len, ordered)) + 8 * len(ordered) - saved
        assert lcp_decode_keys(wire) == ordered
        # The model encodes a part's key column, not a list.
        column = MODEL.keys(batch(ordered))
        assert lcp_encode_keys(column) == (wire, saved)


# ------------------------------------------------------- malformed input


def _wire(pairs, suffixes, payloads=None):
    """Hand-assembled wire in the codec's section layout."""
    out = struct.pack("<I", len(pairs))
    out += b"".join(struct.pack("<II", lcp, n) for lcp, n in pairs)
    out += b"".join(suffixes)
    if payloads is not None:
        out += b"".join(struct.pack("<Q", p) for p in payloads)
    return out


_CODECS = {
    "batch": (lcp_decode_batch, [0, 1]),
    "keys": (lcp_decode_keys, None),
}


@pytest.fixture(params=sorted(_CODECS))
def codec(request):
    decode, payloads = _CODECS[request.param]
    return lambda pairs, suffixes: _wire(pairs, suffixes, payloads), decode


def test_well_formed_hand_wire_decodes(codec):
    wire, decode = codec
    out = decode(wire([(0, 2), (1, 1)], [b"ab", b"c"]))
    keys = out.keys() if isinstance(out, VarlenBatch) else out
    assert keys == [b"ab", b"ac"]


def test_lcp_longer_than_the_previous_key_raises(codec):
    wire, decode = codec
    # The row-wise decoder built b"ab"[:3] + b"c" == b"abc" from this.
    with pytest.raises(ValueError, match="exceeds the previous key"):
        decode(wire([(0, 2), (3, 1)], [b"ab", b"c"]))


def test_lcp_on_the_first_key_raises(codec):
    wire, decode = codec
    with pytest.raises(ValueError, match="first key has lcp 1"):
        decode(wire([(1, 1), (0, 1)], [b"a", b"b"]))


def test_sections_that_do_not_add_up_raise(codec):
    wire, decode = codec
    whole = wire([(0, 2), (1, 1)], [b"ab", b"c"])
    with pytest.raises(ValueError, match="sections need"):
        decode(whole[:-1])  # a section is short
    with pytest.raises(ValueError, match="pairs need"):
        decode(struct.pack("<I", 5) + whole[4:])  # more records claimed
    with pytest.raises(ValueError, match="no record count"):
        decode(whole[:2])


def test_trailing_bytes_raise(codec):
    wire, decode = codec
    with pytest.raises(ValueError, match="trailing"):
        decode(wire([(0, 2), (1, 1)], [b"ab", b"c"]) + b"\x00")


def test_nul_in_a_suffix_raises(codec):
    wire, decode = codec
    with pytest.raises(ValueError, match="NUL"):
        decode(wire([(0, 2), (1, 1)], [b"a\x00", b"c"]))


# ----------------------------------------------------------- golden bytes

#: sha256 over every rank's output file and ``.idx`` of the sort below,
#: recorded with the row-wise ``sorted()`` kernels: the columnar kernels
#: must keep every output byte, tie order included.
_GOLDEN = "985c80f03044dcaafb8e5b2321ba33fe147c5d5a46d553c43b2cbba90fa85ced"


def _digest(outputs):
    digest = hashlib.sha256()
    for meta in outputs:
        for path in (meta.path, meta.path + ".idx"):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.parametrize("block_kib", [1, 2])
def test_tie_heavy_string_sort_output_is_pinned(tmp_path, block_kib):
    result = native_sort(
        SortConfig(
            data_per_node_bytes=64 * KiB,
            memory_bytes=32 * KiB,
            block_bytes=block_kib * KiB,
            randomize=False,
            seed=3,
        ),
        n_workers=2,
        spill_dir=str(tmp_path),
        skew=True,  # 8192 records, 3548 distinct keys
        records="string",
    )
    assert result.validate().ok
    assert _digest(result.outputs) == _GOLDEN


#: The same digest for a sort whose keys all share their first word:
#: url-family keys (``https://`` + base-26 host and path) of the skewed
#: distribution, whose small values also share the next two words, so
#: every key is ordered past word 0 and most ties run to the last word.
_GOLDEN_URL = "5e9664b469f5824c1e990943fded7245d7b26db9c3ab3b1cd9a51d4a4dc97f83"


@pytest.mark.parametrize("block_kib", [1, 2])
def test_shared_first_word_string_sort_output_is_pinned(tmp_path, block_kib):
    n_workers, per_rank = 2, 4096
    values = record_keys(0, n_workers * per_rank, seed=3, skew=True)
    keys = [url_key_from_u64(int(v)) for v in values]
    assert {k[:8] for k in keys} == {b"https://"}
    whole = VarlenBatch.build(keys, range(len(keys)))
    for rank in range(n_workers):
        write_varlen_file(
            os.path.join(tmp_path, f"input_{rank}.dat"),
            whole.slice(rank * per_rank, (rank + 1) * per_rank),
        )
    result = NativeSorter(NativeJob(
        config=SortConfig(
            data_per_node_bytes=per_rank * 16,
            memory_bytes=32 * KiB,
            block_bytes=block_kib * KiB,
            randomize=False,
            seed=3,
        ),
        n_workers=n_workers,
        spill_dir=str(tmp_path),
        generate=False,
        records="string",
    )).run()
    assert result.validate().ok
    assert _digest(result.outputs) == _GOLDEN_URL
