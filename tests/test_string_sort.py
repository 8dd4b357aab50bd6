"""Variable-length (string) record model: batches, codecs, job.

The end-to-end string sorts live in the conformance tiers
(tests/test_conformance_quick.py runs a quick-matrix slice of string
twins every commit; the full matrix runs nightly).  This file covers the
units underneath: :class:`~repro.native.records.VarlenBatch`, the LCP
front-coding codecs and the job-level validation gates (the block
store's contract is tests/test_native_blockstore.py's, run against
both record models).
"""

import numpy as np
import pytest

from repro.core.config import ConfigError, SortConfig
from repro.native.job import NativeJob
from repro.native.records import (
    RECORD_BYTES,
    VarlenBatch,
    bytes_view,
    generate_string_batch,
    lcp_decode_batch,
    lcp_decode_keys,
    lcp_encode_batch,
    lcp_encode_keys,
    make_records,
    merge_record_arrays,
    merge_varlen_batches,
    records_from_bytes,
    resolve_model,
    resolve_string_family,
    string_checksum,
    string_key_from_u64,
    STRING_FAMILIES,
    logline_key_from_u64,
    url_key_from_u64,
)

KiB = 1024


# ----------------------------------------------------------- fixed satellites


def test_star_import_exposes_bytes_view():
    namespace = {}
    exec("from repro.native.records import *", namespace)
    assert "bytes_view" in namespace
    assert "VarlenBatch" in namespace


def test_merge_single_part_returns_read_only_view():
    part = make_records(
        np.array([1, 2, 3], dtype=np.uint64),
        np.array([0, 1, 2], dtype=np.uint64),
    )
    merged = merge_record_arrays([part])
    assert np.array_equal(merged, part)
    # The old fast path returned the caller's array itself: an in-place
    # mutation of the "merge result" silently corrupted the input.  Now
    # mutators fail loudly and the input stays intact.
    with pytest.raises(ValueError):
        merged["key"][0] = 99
    assert int(part["key"][0]) == 1


def test_bytes_view_roundtrip_non_contiguous():
    recs = make_records(
        np.arange(10, dtype=np.uint64), np.arange(10, dtype=np.uint64)
    )
    sliced = recs[::2]  # stride-2: not C-contiguous
    assert not sliced.flags["C_CONTIGUOUS"]
    back = records_from_bytes(bytes(bytes_view(sliced)))
    assert np.array_equal(back, sliced)


def test_records_from_bytes_rejects_ragged_buffer():
    with pytest.raises(ValueError):
        records_from_bytes(b"\x00" * (RECORD_BYTES + 1))


# -------------------------------------------------------------- VarlenBatch


def _batch(keys, start=0):
    return VarlenBatch.build(keys, range(start, start + len(keys)))


def test_varlen_batch_roundtrip_through_bytes():
    keys = [b"alpha", b"", b"beta", b"a" * 300, b"alpha"]
    batch = _batch(keys)
    assert len(batch) == 5
    assert batch.keys() == keys
    back = VarlenBatch.from_bytes(bytes(batch.bytes_view()))
    assert back.keys() == keys
    assert np.array_equal(back.payloads(), batch.payloads())


def test_varlen_batch_rejects_truncation_and_nul():
    batch = _batch([b"abc", b"defg"])
    whole = bytes(batch.bytes_view())
    with pytest.raises(ValueError):
        VarlenBatch.from_bytes(whole[:-1])
    with pytest.raises(ValueError):
        VarlenBatch.build([b"a\x00b"], [0])
    with pytest.raises(TypeError):
        VarlenBatch.build(["not-bytes"], [0])


def test_varlen_slice_take_sort_and_merge():
    keys = [b"m", b"c", b"x", b"c", b"a"]
    batch = _batch(keys)
    part = batch.slice(1, 4)
    assert part.keys() == [b"c", b"x", b"c"]
    assert [int(p) for p in part.payloads()] == [1, 2, 3]

    done = batch.sort()
    assert done.keys() == sorted(keys)
    # Stable: the two b"c" records keep input order (payload 1 before 3).
    assert [int(p) for p in done.payloads()] == [4, 1, 3, 0, 2]

    merged = merge_varlen_batches([_batch([b"a", b"c"]), _batch([b"b"], 2)])
    assert merged.keys() == [b"a", b"b", b"c"]


def test_varlen_empty_and_all_equal_keys():
    empty = VarlenBatch.empty()
    assert len(empty) == 0 and empty.keys() == []
    same = _batch([b"dup"] * 6)
    assert same.sort().keys() == [b"dup"] * 6
    wire, saved = lcp_encode_batch(same)
    # 5 of the 6 keys collapse to lcp=3, suffix="".
    assert saved == 15
    assert lcp_decode_batch(wire).keys() == [b"dup"] * 6


# ------------------------------------------------------------------ codecs


def test_lcp_keys_codec_roundtrip_and_identity():
    keys = [b"", b"sort", b"sorted", b"sorting", b"z"]
    wire, saved = lcp_encode_keys(keys)
    assert lcp_decode_keys(wire) == keys
    raw = sum(len(k) for k in keys)
    assert len(wire) == 4 + raw + 8 * len(keys) - saved
    assert saved == len(b"sort") + len(b"sort")  # "sorted", "sorting"


def test_lcp_batch_codec_roundtrip_and_identity():
    batch = generate_string_batch(0, 200, seed=7)
    srt = batch.sort()
    wire, saved = lcp_encode_batch(srt)
    assert saved > 0  # hex prefixes share bytes once sorted
    assert len(wire) == 4 + srt.nbytes + 4 * len(srt) - saved
    back = lcp_decode_batch(wire)
    assert back.keys() == srt.keys()
    assert np.array_equal(back.payloads(), srt.payloads())


def test_string_key_map_is_order_and_duplicate_preserving():
    values = [0, 1, 1, 22, 23, 2**64 - 1, 7, 7]
    keys = [string_key_from_u64(v) for v in values]
    assert sorted(keys) == [string_key_from_u64(v) for v in sorted(values)]
    assert (keys[1] == keys[2]) and (keys[6] == keys[7])
    lengths = {len(k) for k in keys}
    assert len(lengths) > 1  # really variable-length


@pytest.mark.parametrize("family", sorted(STRING_FAMILIES))
def test_every_string_family_is_order_and_duplicate_preserving(family):
    key_map = STRING_FAMILIES[family]
    rng = np.random.default_rng(11)
    values = [int(v) for v in rng.integers(0, 2**63, 500, dtype=np.uint64)]
    values += [0, 1, 1, 2**64 - 1, 2**63, 7, 7]
    keys = [key_map(v) for v in values]
    assert sorted(keys) == [key_map(v) for v in sorted(values)]
    assert key_map(7) == key_map(7)  # duplicates stay duplicates
    assert len({len(k) for k in keys}) > 1  # really variable-length


def test_real_workload_families_look_the_part():
    assert url_key_from_u64(12345).startswith(b"https://")
    assert b".example.com/" in url_key_from_u64(12345)
    line = logline_key_from_u64(10**6 + 250)
    assert line.startswith(b"00000000000001.000250Z ")
    assert resolve_string_family("url") is url_key_from_u64
    with pytest.raises(ValueError, match="unknown string family"):
        resolve_string_family("csv")


def test_string_checksum_order_independent():
    batch = generate_string_batch(0, 50, seed=3)
    srt = batch.sort()
    assert string_checksum(batch) == string_checksum(srt)
    assert string_checksum(batch.slice(0, 25), string_checksum(
        batch.slice(25, 50))) == string_checksum(batch)
    other = VarlenBatch.build([b"x"], [1])
    assert string_checksum(other) != string_checksum(batch)


# ---------------------------------------------------------------- job gates


def _string_job(tmp_path, **overrides):
    cfg = SortConfig(
        data_per_node_bytes=128 * KiB,
        memory_bytes=48 * KiB,
        block_bytes=2 * KiB,
        seed=1,
    )
    base = dict(
        config=cfg,
        n_workers=2,
        spill_dir=str(tmp_path),
        records="string",
    )
    base.update(overrides)
    return NativeJob(**base)


def test_job_accepts_string_model(tmp_path):
    job = _string_job(tmp_path)
    assert job.varlen and job.model.name == "string"
    assert job.record_bytes == RECORD_BYTES  # nominal sizing unchanged
    assert job.describe()["records"] == "string"


def test_job_rejects_unknown_model(tmp_path):
    with pytest.raises(ConfigError, match="record model"):
        _string_job(tmp_path, records="elastic")


def test_string_job_accepts_checkpoint_and_chaos(tmp_path):
    # The journal holds keys as the model's JSON values and the chaos
    # write gate counts bytes, so neither is gated by record model.
    from repro.testing.chaos import ChaosSpec

    assert _string_job(tmp_path, checkpoint=True).checkpointing
    assert _string_job(tmp_path, max_restarts=1).checkpointing
    spec = ChaosSpec(rank=0, kill_at="before:merge")
    assert _string_job(tmp_path, chaos=spec).chaos is spec


def test_service_spec_carries_records(tmp_path):
    from repro.service.jobs import JobRejected, build_native_job

    job = build_native_job({"records": "string", "n_workers": 2}, str(tmp_path))
    assert job.records == "string"
    with pytest.raises(JobRejected):
        build_native_job({"records": "nope"}, str(tmp_path))


def test_resolve_model_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_model("utf32")
    assert resolve_model("fixed16").varlen is False
    assert resolve_model("string").varlen is True
