"""Contract test: every ``Comm`` implementation honors the same protocol.

Each test runs once per transport — ``PipeComm`` over multiprocessing
pipes, ``TcpComm`` over a socketpair mesh, and ``ShmComm`` over
shared-memory rings — driven by threads (the transports are indifferent
to whether their ends live in threads or processes, and threads keep
the tests fast and debuggable).  What this file pins down is the
*shared* semantics: stash-aware matching, epoch discipline of the
collectives, wire accounting, wedged-peer escalation, teardown thread
hygiene, and the protocol shape ``native/phases.py`` relies on, so a
new transport only has to pass this file to be trusted with the sort.
"""

import multiprocessing as mp
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.native.comm import PipeComm
from repro.native.comm_api import (
    Comm,
    CommError,
    CommTimeout,
    MeshComm,
    pack_fence,
)
from repro.native.shm import ShmComm, create_shm_mesh
from repro.net.framing import FRAME_HEADER, KIND_MSG, encode_frame
from repro.net.tcp import TcpComm


def make_pipe_comms(n, timeout=30.0, **kw):
    conns = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = mp.Pipe(duplex=True)
            conns[i][j] = a
            conns[j][i] = b
    return [PipeComm(r, n, conns[r], timeout=timeout, **kw) for r in range(n)]


def make_tcp_comms(n, timeout=30.0, **kw):
    socks = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = socket.socketpair()
            socks[i][j] = a
            socks[j][i] = b
    return [TcpComm(r, n, socks[r], timeout=timeout, **kw) for r in range(n)]


def make_shm_comms(n, timeout=30.0, ring_bytes=256 * 1024, **kw):
    mesh = create_shm_mesh(mp.get_context(), n, ring_bytes=ring_bytes)
    comms = [
        ShmComm(r, n, mesh.channels[r], timeout=timeout, **kw)
        for r in range(n)
    ]
    # Every endpoint has attached: the names can go right away (POSIX
    # keeps the memory alive until the last close), so even an aborted
    # test leaves nothing behind in /dev/shm.
    mesh.unlink()
    return comms


MAKERS = {"pipe": make_pipe_comms, "tcp": make_tcp_comms, "shm": make_shm_comms}


def run_all(comms, fn):
    with ThreadPoolExecutor(max_workers=len(comms)) as pool:
        futures = [pool.submit(fn, comm) for comm in comms]
        return [f.result(timeout=60) for f in futures]


@pytest.fixture(params=sorted(MAKERS))
def transport(request):
    return request.param


@pytest.fixture
def mesh3(transport):
    comms = MAKERS[transport](3)
    yield comms
    for c in comms:
        c.close()


@pytest.fixture
def mesh2(transport):
    comms = MAKERS[transport](2)
    yield comms
    for c in comms:
        c.close()


def test_implements_the_comm_protocol(mesh2):
    for c in mesh2:
        assert isinstance(c, Comm)
        assert isinstance(c, MeshComm)


def test_recv_match_stashes_out_of_order_messages(mesh2):
    def body(c):
        peer = 1 - c.rank
        c.post(peer, ("first", c.rank))
        c.post(peer, ("second", c.rank))
        _p, second = c.recv_match(lambda p, m: m[0] == "second")
        _p, first = c.recv_match(lambda p, m: m[0] == "first")
        return first[0], second[0]

    assert run_all(mesh2, body) == [("first", "second")] * 2


def test_barrier_and_allgather(mesh3):
    def body(c):
        out = []
        for round_no in range(3):
            c.barrier()
            out.append(c.allgather((c.rank, round_no)))
        return out

    results = run_all(mesh3, body)
    for r in results:
        assert r == results[0]
    assert results[0][1] == [(0, 1), (1, 1), (2, 1)]


def test_allgather_parts_gathers_every_list_in_one_epoch(mesh3):
    """Rank r contributes r parts (rank 0 none); every rank gets every
    list, in rank order, in one epoch."""
    def body(c):
        epochs = c.collectives
        got = c.allgather_parts([(c.rank, i) for i in range(c.rank)])
        return got, c.collectives - epochs

    for got, epochs in run_all(mesh3, body):
        assert got == [[], [(1, 0)], [(2, 0), (2, 1)]]
        assert epochs == 1


def test_collectives_reject_stale_epochs(mesh2):
    """A parked message from an old epoch never satisfies a collective."""
    stale_epoch = 4090

    def body(c):
        peer = 1 - c.rank
        # A forged allgather contribution from a long-gone epoch.
        c.post(peer, ("__ag__", stale_epoch, "stale"))
        gathered = c.allgather(("fresh", c.rank))
        # The collective ignored the stale message; it is still parked.
        stale = c.try_recv_match(
            lambda p, m: m[0] == "__ag__" and m[1] == stale_epoch
        )
        return gathered, stale

    for gathered, stale in run_all(mesh2, body):
        assert gathered == [("fresh", 0), ("fresh", 1)]
        assert stale is not None and stale[1][2] == "stale"


def test_wire_accounting_per_phase_and_peer(mesh2):
    blob = b"\xab" * 2048

    def body(c):
        peer = 1 - c.rank
        c.set_phase("all_to_all")
        c.post(peer, ("chunk", 0, blob))
        c.recv_match(lambda p, m: m[0] == "chunk")
        c.flush()
        c.barrier()
        return c

    for c in run_all(mesh2, body):
        peer = 1 - c.rank
        assert c.wire_sent["all_to_all"] == len(blob)
        assert c.wire_recv["all_to_all"] == len(blob)
        assert c.peer_sent[peer] == len(blob)
        assert c.peer_recv[peer] == len(blob)
        assert c.bytes_sent == len(blob)
        if isinstance(c, TcpComm):
            # Kernel-level counts include framing: strictly larger.
            assert c.socket_bytes_sent > len(blob)
            assert c.socket_bytes_received > len(blob)


def test_exchange_delivers_every_chunk_once(mesh3):
    def body(c):
        got = []

        def outgoing():
            for dest in range(c.n_workers):
                for k in range(4):
                    yield dest, ("x", c.rank, k, bytes([dest, k]) * 200)

        c.exchange(outgoing(), lambda peer, m: got.append((peer, m[2], bytes(m[3]))))
        return sorted(got)

    results = run_all(mesh3, body)
    for rank, got in enumerate(results):
        assert len(got) == 12
        assert all(payload == bytes([rank, k]) * 200 for _s, k, payload in got)
        assert sorted({s for s, _k, _p in got}) == [0, 1, 2]


def test_alltoall_delivers_one_part_per_peer_in_rank_order(mesh3):
    """Empty parts, ``bytes`` and ``memoryview`` parts, and a 3 MiB part —
    larger than a pipe's OS buffer and an shm ring — arrive intact, one
    message per peer, in one collective epoch."""
    big = bytes(range(256)) * (3 * 2**12)
    parts = {  # (source, destination) -> part
        (0, 1): b"", (0, 2): memoryview(big),
        (1, 0): memoryview(b""), (1, 2): b"\x01\x02" * 700,
        (2, 0): memoryview(bytearray(b"\x02\x00" * 300)), (2, 1): big,
    }
    for r in range(3):
        parts[(r, r)] = bytes([r]) * 10

    def body(c):
        posted = []
        post = c.post
        c.post = lambda peer, msg: (posted.append(msg[0]), post(peer, msg))
        before = c.collectives
        got = c.alltoall([parts[(c.rank, d)] for d in range(3)])
        epochs = c.collectives - before
        c.barrier()  # the next collective's traffic stays apart
        return [bytes(g) for g in got], epochs, posted

    for rank, (got, epochs, posted) in enumerate(run_all(mesh3, body)):
        assert got == [bytes(parts[(src, rank)]) for src in range(3)]
        assert epochs == 1
        assert posted == ["__a2a__", "__a2a__", "__ag__", "__ag__"]


def test_alltoall_counts_its_own_record_part_as_local_bytes(mesh2):
    """The own part is delivered as the object it is.  A record array
    (never put in wire form) still counts its ``nbytes`` in
    ``local_bytes``, as a bytes-like own part counts its length: a
    phase's volume is its wire plus its local bytes."""
    def body(c):
        c.set_phase("merge")
        own = np.arange(5, dtype=np.uint64)
        got = c.alltoall([own if d == c.rank else b"xyz" for d in range(2)])
        c.barrier()
        c.set_phase("run_formation")
        c.alltoall([b"own!" if d == c.rank else b"" for d in range(2)])
        c.barrier()
        return got[c.rank] is own, dict(c.local_bytes)

    for same, local in run_all(mesh2, body):
        assert same
        assert local == {"merge": 40, "run_formation": 4}


def test_alltoall_into_lands_every_part_in_its_slot(mesh3):
    """``into``: one buffer per rank, each the size of what that rank
    sends here.  The parts land in them (read straight in on pipe and
    tcp, copied on shm) and ``into`` itself comes back."""
    big = bytes(range(256)) * (3 * 2**12)
    parts = {
        (0, 1): b"", (0, 2): memoryview(big),
        (1, 0): b"\x01" * 300, (1, 2): memoryview(b"\x01\x02" * 700),
        (2, 0): memoryview(bytearray(b"\x02\x00" * 300)), (2, 1): big,
    }
    for r in range(3):
        parts[(r, r)] = bytes([r]) * 10

    def body(c):
        into = [bytearray(len(parts[(src, c.rank)])) for src in range(3)]
        got = c.alltoall([parts[(c.rank, d)] for d in range(3)], into=into)
        c.barrier()
        return got is not into and all(g is i for g, i in zip(got, into)), into

    for rank, (same, into) in enumerate(run_all(mesh3, body)):
        assert same
        assert [bytes(b) for b in into] == [
            bytes(parts[(src, rank)]) for src in range(3)
        ]


def test_alltoall_into_rejects_a_part_of_the_wrong_size(mesh2):
    """A part larger or smaller than its slot is a CommError on every
    transport, never a truncated or half-filled slot."""
    def body(c):
        sends = [b"a" * 8, b"b" * 10] if c.rank == 0 else [b"c" * 6, b"d" * 8]
        try:
            c.alltoall(sends, into=[bytearray(8), bytearray(8)])
        except CommError as exc:
            return exc
        return None

    assert all(isinstance(err, CommError) for err in run_all(mesh2, body))


def _stale_mesh(transport):
    """A 2-rank mesh of restart attempt 1, plus a way to push a frame
    of attempt 0 from rank 0 to rank 1: the frame's bytes go straight
    onto rank 0's channel, the same way on every transport."""
    comms = MAKERS[transport](2, timeout=0.5, job_epoch=1)

    def stale(msg, payload):
        comms[0]._write(1, [encode_frame(
            KIND_MSG, msg + (memoryview(payload),), fence=pack_fence(0, 0)
        )])
    return comms, stale


def test_stale_frame_never_lands_in_a_registered_slot(transport):
    """A fenced-off frame of a dead attempt, tagged with the very epoch
    whose slot is registered, is drained — the stream stays in step —
    and leaves the slot untouched."""
    comms, stale = _stale_mesh(transport)
    try:
        stale(("__a2a__", 1), b"\xff" * 8)
        slot = bytearray(8)
        with pytest.raises(CommTimeout):  # rank 0 never takes part
            comms[1].alltoall([b"", b"own"], into=[slot, bytearray(3)])
        assert slot == bytearray(8)
        assert comms[1].fenced_drops == 1
        comms[0].post(1, ("after", 0))
        assert comms[1].recv_match(lambda p, m: m[0] == "after")[1] == ("after", 0)
    finally:
        for c in comms:
            c.close()


def _raised_by(fn, join_s=10.0):
    """What ``fn()`` raised (None if nothing), run on a thread that must
    finish within ``join_s``: a reader that blocks on a partial frame
    fails the test instead of hanging it."""
    out = []

    def body():
        try:
            fn()
        except BaseException as exc:
            out.append(exc)
        else:
            out.append(None)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(join_s)
    assert not thread.is_alive(), "the reader blocked on a partial frame"
    return out[0]


def test_mid_frame_eof_is_a_torn_frame(transport):
    """A peer that dies part-way through a frame is a CommError naming a
    torn frame on every channel — never a hang, never a clean close."""
    comms = MAKERS[transport](2, timeout=5.0)
    try:
        frame = encode_frame(KIND_MSG, ("hello", 1))
        comms[0]._write(1, [frame[:FRAME_HEADER.size + 2]])
        comms[0].sever()
        err = _raised_by(lambda: comms[1].recv_match(lambda p, m: True))
        assert isinstance(err, CommError) and "torn frame" in str(err)
    finally:
        for c in comms:
            c.close()


def test_wedged_sender_times_out_mid_frame(transport):
    """A peer that stops after a frame's header (nothing closed) is a
    CommTimeout of the frame read on every channel."""
    comms = MAKERS[transport](2, timeout=0.3)
    try:
        frame = encode_frame(KIND_MSG, ("hello", 1))
        comms[0]._write(1, [frame[:FRAME_HEADER.size]])
        err = _raised_by(
            lambda: comms[1].recv_match(lambda p, m: True, timeout=5.0)
        )
        assert isinstance(err, CommTimeout) and "wedged" in str(err)
    finally:
        for c in comms:
            c.close()


def test_alltoall_rejects_a_wrong_part_count(mesh2):
    with pytest.raises(ValueError):
        mesh2[0].alltoall([b"x"])


def test_recv_match_times_out(mesh2):
    with pytest.raises(CommTimeout):
        mesh2[0].recv_match(lambda p, m: True, timeout=0.1)


def test_wedged_peer_escalates_to_timeout(transport):
    """A peer that stops draining (nothing closed) must surface as
    CommTimeout, never a hang: the exchange deadline is the escape."""
    comms = MAKERS[transport](2, timeout=2.0)
    try:
        comms[1].wedge()

        def body0(c):
            def outgoing():
                for k in range(64):
                    yield 1, ("x", c.rank, k, b"\xcd" * 4096)

            with pytest.raises(CommTimeout):
                c.exchange(outgoing(), lambda p, m: None)
            return True

        assert run_all([comms[0]], body0) == [True]
    finally:
        for c in comms:
            c.close()


def _alive_sender_threads():
    return [
        t for t in threading.enumerate()
        if t.name.startswith("native-send-") and t.is_alive()
    ]


def test_close_after_comm_error_reaps_sender_thread(transport):
    """Regression: teardown after a mid-exchange failure must reap a
    sender thread blocked in a full channel, not leak it (with the
    channel fds pinned) for the life of the process."""
    before = set(threading.enumerate())
    comms = MAKERS[transport](2, timeout=1.0)
    try:
        # Rank 1 never drains: rank 0's sender eventually blocks inside
        # _transmit with the OS buffer / ring full.
        blob = b"\xee" * (1 << 20)
        for k in range(64):
            comms[0].post(1, ("big", k, blob))
        # The forced failure a collective would raise mid-exchange.
        with pytest.raises((CommTimeout, CommError)):
            comms[0].flush(timeout=0.3)
    finally:
        for c in comms:
            c.close()
    deadline = time.monotonic() + 5.0
    while _alive_sender_threads() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _alive_sender_threads() == []
    leaked = [
        t for t in threading.enumerate()
        if t not in before and t.is_alive() and not t.daemon
    ]
    assert leaked == []


def test_a_closed_peer_is_not_a_dead_one(transport):
    """A rank that finished and closed said GOODBYE first: a peer still
    waiting for a third rank drops its channel instead of reporting a
    dead PE.  At P >= 3 this is every job's end, when one rank leaves
    the final barrier while another is still in it."""
    comms = MAKERS[transport](3, timeout=10.0)
    closed = threading.Event()

    def body(c):
        if c.rank == 0:
            for peer in (1, 2):
                c.post(peer, ("done", 0))
            c.close()
            closed.set()
            return None
        assert closed.wait(10.0)
        if c.rank == 2:
            # Late enough that rank 1 reads rank 0's close first.
            time.sleep(0.3)
            c.post(1, ("late", 2))
            return [c.recv_match(lambda p, m: p == 0)[1]]
        return [c.recv_match(lambda p, m: p == src)[1] for src in (2, 0)]

    try:
        assert run_all(comms, body) == [
            None, [("late", 2), ("done", 0)], [("done", 0)],
        ]
    finally:
        for c in comms[1:]:
            c.close()


def test_selection_round_matches_across_transports(mesh3):
    """Run formation's selection round — one key-window allgather — is
    transport-blind: one collective epoch, and every rank ends with the same exact
    P-quantile splits — the ones multiway selection finds over the full
    arrays — for u64 keys and for NUL-padded ``S{w}`` keys alike."""
    import numpy as np

    from repro.algos.multiway_selection import multiway_select
    from repro.native.phases import exact_splits

    rng = np.random.default_rng(11)
    every, n = 4, 3
    u64 = [
        np.sort(rng.integers(0, 50, size, dtype=np.uint64))
        for size in (40, 23, 0)
    ]
    # Decimal strings of the same numbers sort in another order.
    strs = [np.sort(a.astype("S2") + b"k") for a in u64]
    embedded = [[int.from_bytes(bytes(k).ljust(4, b"\0"), "big") for k in a]
                for a in strs]
    lengths = [len(a) for a in u64]
    total = sum(lengths)

    for arrays, ints in ((u64, u64), (strs, embedded)):
        def body(c):
            epochs = c.collectives
            positions, shipped = exact_splits(
                c, [a[::every] for a in arrays], lengths, every, range(n),
                lambda _j, lo, hi: arrays[c.rank][lo:hi],
            )
            return positions, shipped, c.collectives - epochs

        results = run_all(mesh3, body)
        expected = [[0] * n] + [
            multiway_select(ints, d * total // n).positions
            for d in range(1, n)
        ] + [lengths]
        for positions, _shipped, epochs in results:
            assert positions == expected
            assert epochs == 1
        assert results[0][1] > 0
        assert results[2][1] == 0  # the empty rank ships nothing


@pytest.mark.parametrize("records", ["fixed16", "string"])
@pytest.mark.parametrize("n", [2, 3])
def test_phase2_reads_only_own_pieces(transport, tmp_path, n, records):
    """Native phase 2 needs nothing shared on disk: with every rank's
    store rooted in its own directory (a peer's piece file does not
    exist there), ``phases.selection`` still takes one collective epoch
    and every rank ends with the exact splitter matrix — the one
    multiway selection finds over the concatenated runs.  Duplicate-heavy
    keys tie across piece and run boundaries, one piece is empty, and
    string keys are decimal numbers, whose byte order is not their
    numeric order."""
    import numpy as np

    from repro.algos.multiway_selection import multiway_select
    from repro.core.config import SortConfig
    from repro.native.blockstore import FileBlockStore
    from repro.native.job import NativeJob
    from repro.native.phases import (
        NativeContext, NativeRun, PieceMeta, selection,
    )
    from repro.native.records import VarlenBatch, make_records
    from repro.native.stats import WorkerStats

    block = 4
    job = NativeJob(
        config=SortConfig(
            data_per_node_bytes=64 * 1024, memory_bytes=32 * 1024,
            block_bytes=block * 16, seed=3,
        ),
        n_workers=n, spill_dir=str(tmp_path), records=records,
    )
    model = job.model
    rng = np.random.default_rng(17 + n)
    values = [np.sort(rng.integers(0, 12, size)) for size in (61, 37, 50)]
    if records == "string":
        runs_keys = [np.sort(v.astype(bytes)) for v in values]
        width = 1 + max(len(k) for keys in runs_keys for k in keys)
        ints = [[int.from_bytes(bytes(k).ljust(width, b"\0"), "big")
                 for k in keys] for keys in runs_keys]

        def part(keys, ids):
            return VarlenBatch.build([bytes(k) for k in keys], ids)
    else:
        runs_keys = [v.astype(np.uint64) for v in values]
        ints = runs_keys
        part = make_records
    # Piece j of run r is the j-th slice of the sorted run; run 1's piece
    # of rank 1 is empty.
    bounds = [
        [0, *sorted(rng.integers(0, len(k) + 1, n - 1)), len(k)]
        for k in runs_keys
    ]
    bounds[1][1] = bounds[1][2] = bounds[1][1 if n > 2 else 2]

    pieces, metas = {}, []
    for r, keys in enumerate(runs_keys):
        row = []
        for j in range(n):
            lo, hi = bounds[r][j], bounds[r][j + 1]
            piece = part(keys[lo:hi], np.arange(lo, hi, dtype=np.uint64))
            pieces[r, j] = piece
            row.append(PieceMeta(
                run=r, rank=j, n_records=hi - lo,
                first_keys=model.encode_keys(model.keys(piece)[::block]),
            ))
        metas.append(row)

    def body(c):
        store = FileBlockStore(
            str(tmp_path / f"rank{c.rank}"), rank=c.rank,
            block_records=job.block_records, model=model,
        )
        for r in range(len(runs_keys)):
            store.write_file(store.piece_path(r), pieces[r, c.rank], "w")
        with pytest.raises(FileNotFoundError):
            open(store.piece_path(0, (c.rank + 1) % n), "rb")
        ctx = NativeContext(
            rank=c.rank, job=job, comm=c, store=store,
            stats=WorkerStats(rank=c.rank),
        )
        runs = [NativeRun(r, row) for r, row in enumerate(metas)]
        epochs = c.collectives
        splits = selection(ctx, runs)
        return splits, c.collectives - epochs, ctx.stats.counters

    lengths = [len(k) for k in runs_keys]
    total = sum(lengths)
    expected = [[0] * len(lengths)] + [
        multiway_select(ints, d * total // n).positions for d in range(1, n)
    ] + [lengths]
    comms = MAKERS[transport](n, timeout=10.0)
    try:
        results = run_all(comms, body)
    finally:
        for c in comms:
            c.close()
    for splits, epochs, _counters in results:
        assert splits == expected
        assert epochs == 1
    assert sum(c["selection_window_keys"] for _s, _e, c in results) > 0
