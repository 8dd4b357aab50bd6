"""Unit tests for the checkpoint/recovery subsystem's building blocks.

End-to-end survival (kill / sever / wedge a rank, resume, compare
bitwise) lives in test_recovery_native.py; this file pins down the
pieces in isolation: the job fingerprint, the fsynced rank journal and
its replay, the resume-state phase agreement, the epoch fence at the
framing and comm layers, the dial-deadline diagnostic, and the
blockstore primitives recovery leans on (size-idempotent preallocate,
per-block CRC verification).
"""

import json
import multiprocessing as mp
import os
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native.blockstore import FileBlockStore
from repro.native.comm import PipeComm
from repro.native.comm_api import CommTimeout
from repro.native.job import NativeJob
from repro.native.records import RECORD_BYTES
from repro.net.framing import KIND_MSG, encode_frame, recv_frame, send_frame
from repro.net.rendezvous import connect_with_backoff
from repro.net.tcp import TcpComm
from repro.recovery.manifest import (
    CorruptManifest,
    ManifestMismatch,
    RankJournal,
    ResumeState,
    job_fingerprint,
)
from repro.recovery.supervisor import RestartPolicy


def make_job(tmp_path, **overrides):
    config = SortConfig(
        data_per_node_bytes=512 * RECORD_BYTES,
        memory_bytes=512 * RECORD_BYTES,
        block_bytes=16 * RECORD_BYTES,
        seed=7,
    )
    defaults = dict(config=config, n_workers=2, spill_dir=str(tmp_path))
    defaults.update(overrides)
    return NativeJob(**defaults)


# -- job fingerprint ----------------------------------------------------------


def test_fingerprint_is_stable_across_execution_knobs(tmp_path):
    base = make_job(tmp_path)
    fp = job_fingerprint(base)
    # Execution knobs change how the job runs, never what it computes:
    # a resume may legally alter any of them.
    for variant in (
        dc_replace(base, transport="tcp"),
        dc_replace(base, timeout=1.0),
        dc_replace(base, pending_sends=2),
        dc_replace(base, prefetch_blocks=2),
        dc_replace(base, max_restarts=3, epoch=1, suspect_ranks=(0,)),
        dc_replace(base, a2a_checkpoint_chunks=1),
    ):
        assert job_fingerprint(variant) == fp


def test_fingerprint_changes_with_the_computation(tmp_path):
    base = make_job(tmp_path)
    fp = job_fingerprint(base)
    assert job_fingerprint(dc_replace(base, skew=True)) != fp
    assert job_fingerprint(dc_replace(base, n_workers=3)) != fp
    other_seed = dc_replace(base, config=dc_replace(base.config, seed=8))
    assert job_fingerprint(other_seed) != fp


def test_fingerprint_tolerates_derived_sample_every(tmp_path):
    # config.sample_every defaults to None (derived: one per block); the
    # fingerprint must use the derived value, not crash on None.
    job = make_job(tmp_path)
    assert job.config.sample_every is None
    assert len(job_fingerprint(job)) == 16


# -- rank journal -------------------------------------------------------------


def journal_for(tmp_path, fingerprint="f" * 16, rank=0):
    path = os.path.join(str(tmp_path), f"manifest_{rank}.jsonl")
    return RankJournal(path, fingerprint, rank)


def test_journal_roundtrip_restores_every_phase(tmp_path):
    j = journal_for(tmp_path)
    j.begin_epoch(0)
    j.generate_done()
    run = {"run": 0, "n": 64, "samples": [1, 2], "every": 16,
           "crcs": [111, 222], "first_keys": [1, 33], "checksum": 42}
    j.rf_run_done(run)
    j.rf_done([run], checksum=42)
    j.selection_done([[10, 20], [30, 40]])
    j.a2a_mark({(0, 1): 3}, {(0, 0): 99})
    # Run 1's kept range starts inside a block: its first unit's key is
    # unknown (None) and must survive the roundtrip as None.
    j.a2a_done([[0, 0, 60, 4], [2, 5, 62, 0]], [[5, 6, 8], [7, None, 8]])
    j.merge_mark(32)
    j.merge_done({"rank": 0, "path": "out", "n_records": 128, "first_key": 1,
                  "last_key": 9, "checksum": 7, "sorted_ok": True})
    j.close()

    state = j.load_resume()
    assert state.completed_index == 4
    assert state.generate_done and state.rf_done
    assert state.rf_runs[0]["crcs"] == [111, 222]
    assert state.rf_runs[0]["first_keys"] == [1, 33]
    assert state.selection_splits == [[10, 20], [30, 40]]
    assert state.a2a_marks == {(0, 1): 3}
    assert state.a2a_first_keys == {(0, 0): 99}
    assert state.a2a_layout == [[0, 0, 60, 4], [2, 5, 62, 0]]
    assert state.a2a_unit_first_keys == [[5, 6, 8], [7, None, 8]]
    assert state.merge_records_out == 32
    assert state.merge_meta["n_records"] == 128


def test_journal_merge_meta_preserves_none_keys(tmp_path):
    # An empty output partition has no first/last key; None must survive
    # the JSON roundtrip as None, not become 0.
    j = journal_for(tmp_path)
    j.begin_epoch(0)
    j.merge_done({"rank": 0, "path": "out", "n_records": 0, "first_key": None,
                  "last_key": None, "checksum": 0, "sorted_ok": True})
    j.close()
    meta = j.load_resume().merge_meta
    assert meta["first_key"] is None and meta["last_key"] is None


def test_torn_final_line_is_tolerated(tmp_path):
    j = journal_for(tmp_path)
    j.begin_epoch(0)
    j.generate_done()
    j.close()
    # The process died mid-append: a half-written record with no newline.
    with open(j.path, "a") as handle:
        handle.write('{"t":"rf_done","checks')
    state = j.load_resume()
    assert state.generate_done
    assert not state.rf_done  # the torn record never happened


def test_corruption_before_the_final_line_raises(tmp_path):
    j = journal_for(tmp_path)
    j.begin_epoch(0)
    j.close()
    with open(j.path, "a") as handle:
        handle.write("NOT JSON\n")
        handle.write('{"t":"generate"}\n')
    with pytest.raises(CorruptManifest, match="line 2"):
        j.load_resume()


def test_foreign_fingerprint_is_refused(tmp_path):
    j = journal_for(tmp_path, fingerprint="a" * 16)
    j.begin_epoch(0)
    j.close()
    stale = journal_for(tmp_path, fingerprint="b" * 16)
    with pytest.raises(ManifestMismatch, match="refusing"):
        stale.load_resume()


def test_missing_manifest_resumes_as_none(tmp_path):
    assert journal_for(tmp_path).load_resume() is None


def test_epoch_zero_truncates_and_orphans_old_records(tmp_path):
    j = journal_for(tmp_path)
    j.begin_epoch(0)
    j.generate_done()
    j.close()
    # A fresh job (epoch 0) over the same spill path starts over.
    j2 = journal_for(tmp_path)
    j2.begin_epoch(0)
    j2.close()
    assert j2.load_resume().completed_index == -1


def test_epoch_zero_attempt_record_resets_replay_state():
    records = [
        {"t": "attempt", "fp": "x", "epoch": 0},
        {"t": "generate"},
        {"t": "attempt", "fp": "x", "epoch": 0},  # fresh job, same path
    ]
    assert not ResumeState.from_records(records).generate_done


def test_completed_index_progression():
    state = ResumeState()
    assert state.completed_index == -1
    state.generate_done = True
    assert state.completed_index == 0
    state.rf_done = True
    assert state.completed_index == 1
    state.selection_splits = [[1]]
    assert state.completed_index == 2
    state.a2a_layout = [[0, 0, 4, 0]]
    assert state.completed_index == 3
    state.merge_meta = {"rank": 0}
    assert state.completed_index == 4


def test_contiguous_rf_runs_stops_at_the_first_gap():
    state = ResumeState()
    state.rf_runs = {0: {}, 1: {}, 3: {}}
    assert state.contiguous_rf_runs() == 2


def test_journal_records_are_fsynced_line_at_a_time(tmp_path):
    j = journal_for(tmp_path)
    j.begin_epoch(0)
    j.generate_done()
    # Visible to an independent reader *before* close: durability is
    # per-append, not per-session.
    lines = open(j.path).read().splitlines()
    assert [json.loads(ln)["t"] for ln in lines] == ["attempt", "generate"]
    j.close()


# -- restart policy -----------------------------------------------------------


def test_restart_policy_budget_and_suspects():
    policy = RestartPolicy(max_restarts=2)
    assert policy.record_failure(0, 1, "boom")  # restart 1: allowed
    assert policy.suspects() == (1,)
    assert policy.record_failure(1, 0, "boom again")  # restart 2: allowed
    assert policy.suspects() == (0,)
    assert not policy.record_failure(2, 0, "third strike")  # budget spent
    assert policy.restarts_used == 3
    events = policy.to_dicts()
    assert [e["epoch"] for e in events] == [0, 1, 2]


def test_restart_policy_zero_never_restarts():
    policy = RestartPolicy(max_restarts=0)
    assert not policy.record_failure(0, None, "dead")


# -- epoch fence: framing layer -----------------------------------------------


def test_frame_fence_byte_roundtrips():
    a, b = socket.socketpair()
    try:
        b.settimeout(5.0)
        a.sendall(encode_frame(KIND_MSG, ("chunk", 0, b"x"), fence=3))
        _kind, msg, _epoch, fence, _n = recv_frame(b)
        assert fence == 3
        assert msg[0] == "chunk"
        send_frame(a, KIND_MSG, ("chunk", 1, b"y"), fence=255)
        assert recv_frame(b)[3] == 255
    finally:
        a.close()
        b.close()


def test_frame_fence_wraps_modulo_256():
    # Epoch 256 and epoch 0 share a fence byte: the u8 wraps.  Fine in
    # practice (a job restarted 256 times has bigger problems), but the
    # encoder must not overflow the header field.
    frame = encode_frame(KIND_MSG, ("m",), fence=256 & 0xFF)
    assert isinstance(frame, (bytes, bytearray))


# -- epoch fence: comm layer --------------------------------------------------


def make_pipe_pair(epochs, timeout=30.0):
    a, b = mp.Pipe(duplex=True)
    return [
        PipeComm(0, 2, {1: a}, timeout=timeout, job_epoch=epochs[0]),
        PipeComm(1, 2, {0: b}, timeout=timeout, job_epoch=epochs[1]),
    ]


def make_tcp_pair(epochs, timeout=30.0):
    a, b = socket.socketpair()
    return [
        TcpComm(0, 2, {1: a}, timeout=timeout, job_epoch=epochs[0]),
        TcpComm(1, 2, {0: b}, timeout=timeout, job_epoch=epochs[1]),
    ]


PAIR_MAKERS = {"pipe": make_pipe_pair, "tcp": make_tcp_pair}


def run_pair(comms, fn0, fn1):
    with ThreadPoolExecutor(max_workers=2) as pool:
        f0 = pool.submit(fn0, comms[0])
        f1 = pool.submit(fn1, comms[1])
        return f0.result(timeout=60), f1.result(timeout=60)


@pytest.fixture(params=sorted(PAIR_MAKERS))
def fence_transport(request):
    return request.param


def test_stale_epoch_frames_are_dropped_not_delivered(fence_transport):
    """A frame from job epoch 0 never reaches a rank running epoch 1.

    This is the wedged-predecessor scenario: a pre-restart process still
    holds a socket and pushes stale traffic into the rebuilt mesh.  The
    receiver must drop (and count) it rather than let a dead epoch's
    bytes satisfy a live epoch's receive.
    """
    comms = PAIR_MAKERS[fence_transport]([0, 1], timeout=0.4)
    try:
        def stale_sender(c):
            c.post(1, ("ghost", 0, b"stale bytes"))
            return "sent"

        def live_receiver(c):
            with pytest.raises(CommTimeout):
                c.recv_match(lambda p, m: True)
            return int(getattr(c, "fenced_drops", 0))

        _sent, drops = run_pair(comms, stale_sender, live_receiver)
        assert drops >= 1
    finally:
        for c in comms:
            c.close()


def test_matching_epoch_frames_flow_normally(fence_transport):
    comms = PAIR_MAKERS[fence_transport]([1, 1], timeout=10.0)
    try:
        def sender(c):
            c.post(1, ("chunk", 0, b"live"))
            return "sent"

        def receiver(c):
            _peer, msg = c.recv_match(lambda p, m: m[0] == "chunk")
            return msg, int(getattr(c, "fenced_drops", 0))

        _sent, (msg, drops) = run_pair(comms, sender, receiver)
        assert bytes(msg[2]) == b"live"
        assert drops == 0
    finally:
        for c in comms:
            c.close()


# -- dial deadline ------------------------------------------------------------


def test_dial_deadline_names_the_coordinator_and_address():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing ever listens here
    with pytest.raises(CommTimeout) as info:
        connect_with_backoff(
            ("127.0.0.1", port), time.monotonic() + 0.3, what="coordinator"
        )
    text = str(info.value)
    assert "coordinator" in text
    assert f"127.0.0.1:{port}" in text
    assert "last error" in text  # the final OS error rides along


# -- blockstore primitives ----------------------------------------------------


def test_preallocate_is_idempotent_on_size(tmp_path):
    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    path = os.path.join(str(tmp_path), "seg.dat")
    store.preallocate(path, 8)
    payload = bytes(range(64))
    with open(path, "r+b") as handle:
        handle.write(payload)
    # Same size: the delivered bytes survive (a resumed all-to-all must
    # keep pre-restart chunks).
    store.preallocate(path, 8)
    assert open(path, "rb").read(64) == payload
    # Different size: the file is re-created empty.
    store.preallocate(path, 16)
    assert os.path.getsize(path) == 16 * RECORD_BYTES
    assert open(path, "rb").read(64) == b"\x00" * 64


def test_verify_block_crcs_flags_only_damaged_blocks(tmp_path):
    import zlib

    store = FileBlockStore(str(tmp_path), rank=0, block_records=4)
    path = os.path.join(str(tmp_path), "piece.dat")
    rng = np.random.default_rng(3)
    records = np.zeros(12, dtype=np.dtype([("key", "<u8"), ("payload", "V8")]))
    records["key"] = rng.integers(0, 2**63, size=12, dtype=np.int64)
    store.write_file(path, records, tag="test")
    blocks = [records[i : i + 4] for i in range(0, 12, 4)]
    crcs = [
        zlib.crc32(memoryview(np.ascontiguousarray(b)).cast("B"))
        for b in blocks
    ]
    assert store.verify_block_crcs(path, crcs) == []
    # Damage one byte inside block 1.
    with open(path, "r+b") as handle:
        handle.seek(4 * RECORD_BYTES + 3)
        byte = handle.read(1)
        handle.seek(4 * RECORD_BYTES + 3)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert store.verify_block_crcs(path, crcs) == [1]
