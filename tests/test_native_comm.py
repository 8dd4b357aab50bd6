"""Unit tests for the native pipe-mesh interconnect.

The mesh is exercised in-process: one ``PipeComm`` per rank, each driven
by its own thread (pipes don't care whether their ends live in threads
or processes, and threads keep the tests fast and debuggable).
"""

import multiprocessing as mp
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.native.comm import CommTimeout, PipeComm
from repro.native.phases import exact_splits


def make_comms(n, timeout=30.0):
    conns = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = mp.Pipe(duplex=True)
            conns[i][j] = a
            conns[j][i] = b
    return [PipeComm(r, n, conns[r], timeout=timeout) for r in range(n)]


def run_all(comms, fn):
    """Run ``fn(comm)`` concurrently on every rank; return results in order."""
    with ThreadPoolExecutor(max_workers=len(comms)) as pool:
        futures = [pool.submit(fn, comm) for comm in comms]
        return [f.result(timeout=60) for f in futures]


def close_all(comms):
    for comm in comms:
        comm.close()
        for conn in comm.conns.values():
            conn.close()


def test_allgather_returns_rank_ordered_contributions():
    comms = make_comms(3)
    try:
        results = run_all(comms, lambda c: c.allgather(c.rank * 10))
        assert results == [[0, 10, 20]] * 3
    finally:
        close_all(comms)


def test_repeated_collectives_stay_in_step():
    comms = make_comms(3)
    try:
        def body(c):
            out = []
            for round_no in range(5):
                c.barrier()
                out.append(c.allgather((c.rank, round_no)))
            return out

        results = run_all(comms, body)
        for r in results:
            assert r == results[0]
    finally:
        close_all(comms)


def test_allreduce():
    comms = make_comms(4)
    try:
        sums = run_all(comms, lambda c: c.allreduce(c.rank + 1, lambda a, b: a + b))
        assert sums == [10, 10, 10, 10]
        maxes = run_all(comms, lambda c: c.allreduce(c.rank, max))
        assert maxes == [3, 3, 3, 3]
    finally:
        close_all(comms)


def test_exchange_delivers_every_chunk_once():
    comms = make_comms(3)
    try:
        def body(c):
            got = []

            def outgoing():
                for dest in range(c.n_workers):
                    for k in range(4):
                        yield dest, ("x", c.rank, k, bytes([dest, k]))

            c.exchange(outgoing(), lambda peer, m: got.append((peer, m[2], m[3])))
            return sorted(got)

        results = run_all(comms, body)
        for rank, got in enumerate(results):
            # 3 senders (incl. self) x 4 chunks each, payload tagged for me.
            assert len(got) == 12
            assert all(payload == bytes([rank, k]) for _s, k, payload in got)
            assert sorted({s for s, _k, _p in got}) == [0, 1, 2]
    finally:
        close_all(comms)


def test_exchange_bounds_pending_sends():
    """The producer is never advanced past the backpressure window."""
    from repro.native.comm_api import DEFAULT_PENDING_SENDS

    comms = make_comms(2)
    try:
        def body(c):
            high_water = 0

            def outgoing():
                nonlocal high_water
                for k in range(50):
                    high_water = max(high_water, c.pending_sends())
                    yield 1 - c.rank, ("x", c.rank, k, b"\x00" * 64)

            c.exchange(outgoing(), lambda peer, m: None)
            return high_water

        marks = run_all(comms, body)
        assert all(m <= DEFAULT_PENDING_SENDS for m in marks)
    finally:
        close_all(comms)


def test_selection_round_finds_global_quantile():
    """The key-window allgather reproduces the known exact selection result."""
    rng = np.random.default_rng(3)
    n, per, every = 3, 40, 4
    arrays = [np.sort(rng.integers(0, 10**6, per, dtype=np.uint64)) for _ in range(n)]
    merged = np.sort(np.concatenate(arrays))

    comms = make_comms(n)
    try:
        def body(c):
            positions, _shipped = exact_splits(
                c, [a[::every] for a in arrays], [per] * n, every, range(n),
                lambda _j, lo, hi: arrays[c.rank][lo:hi],
            )
            return positions

        results = run_all(comms, body)
        for positions in results:
            assert positions == results[0]
            for rank in range(n):
                target = rank * (n * per) // n
                assert sum(positions[rank]) == target
                chosen = np.sort(
                    np.concatenate(
                        [arrays[s][: positions[rank][s]] for s in range(n)]
                    )
                )
                assert np.array_equal(chosen, merged[:target])
    finally:
        close_all(comms)


def test_recv_match_stashes_out_of_order_messages():
    comms = make_comms(2)
    try:
        def body(c):
            peer = 1 - c.rank
            c.post(peer, ("first", c.rank))
            c.post(peer, ("second", c.rank))
            # Consume in reverse arrival order: the stash holds "first".
            _p, second = c.recv_match(lambda p, m: m[0] == "second")
            _p, first = c.recv_match(lambda p, m: m[0] == "first")
            return first[0], second[0]

        assert run_all(comms, body) == [("first", "second")] * 2
    finally:
        close_all(comms)


def test_recv_match_times_out():
    comms = make_comms(2)
    try:
        with pytest.raises(CommTimeout):
            comms[0].recv_match(lambda p, m: True, timeout=0.1)
    finally:
        close_all(comms)


def test_flush_timeout_counts_pending_sends():
    """A peer that stops draining its pipe wedges the sender: flush must
    surface a CommTimeout naming how many messages are still queued, not
    block until the job-level timeout."""
    comms = make_comms(2)
    try:
        # 4 MiB messages overflow the OS pipe buffer, so the sender
        # thread blocks inside its first send and the rest stay queued.
        blob = b"\x00" * (4 << 20)
        n_msgs = 8
        for k in range(n_msgs):
            comms[0].post(1, ("x", k, blob))
        with pytest.raises(CommTimeout) as excinfo:
            comms[0].flush(timeout=0.3)
        message = str(excinfo.value)
        assert "flush timed out" in message
        assert f"{n_msgs} send(s) still pending" in message
        # Drain the peer so teardown's close() flushes quickly.
        for _ in range(n_msgs):
            comms[1].recv_match(lambda p, m: m[0] == "x", timeout=10.0)
    finally:
        close_all(comms)


def test_mesh_validation():
    a, b = mp.Pipe(duplex=True)
    try:
        with pytest.raises(ValueError):
            PipeComm(0, 3, {1: a})  # missing peer 2
    finally:
        a.close()
        b.close()
