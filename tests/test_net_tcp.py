"""The TCP transport's own guarantees: framing, rendezvous, failure model.

The contract tests (test_comm_contract.py) prove TcpComm behaves like any
other ``Comm``; this file tests the wire format's integrity checks (the
frame every channel carries, fuzzed through its one decoder) and what
only the socket transport has — the coordinator handshake, backoff, and
the three failure shapes (wedged peer, severed peer, announced GOODBYE).
"""

import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.native.comm_api import CommError, CommTimeout
from repro.net.framing import (
    FRAME_HEADER,
    KIND_GOODBYE,
    KIND_HELLO,
    KIND_MSG,
    KIND_RESULT,
    MAGIC,
    MAX_META_BYTES,
    MAX_PAYLOAD_BYTES,
    VERSION,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
    send_raw_frame,
)
from repro.net.rendezvous import (
    Coordinator,
    backoff_delays,
    connect_with_backoff,
    join_mesh,
    parse_hostport,
)
from repro.net.tcp import TcpComm


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


def _drain(sock, nbytes):
    """Read exactly nbytes of raw framed stream off a socket."""
    buf = bytearray()
    while len(buf) < nbytes:
        chunk = sock.recv(nbytes - len(buf))
        assert chunk, "stream ended early"
        buf.extend(chunk)
    return buf


# -- framing ------------------------------------------------------------------


def test_control_frame_roundtrip(pair):
    a, b = pair
    sent = send_frame(a, KIND_HELLO, ("hello", 3, ("127.0.0.1", 9999)))
    kind, msg, epoch, _fence, total = recv_frame(b)
    assert kind == KIND_HELLO
    assert msg == ("hello", 3, ("127.0.0.1", 9999))
    assert epoch == 0
    assert total == sent


def test_raw_payload_roundtrip_reattaches_buffer(pair):
    a, b = pair
    blob = bytes(range(256)) * 17  # >= RAW_THRESHOLD: gather-write path
    send_frame(a, KIND_MSG, ("__xch__", 7, ("piece", blob)))
    # The RAW split peels the *trailing* buffer of the outer tuple only;
    # here the buffer is nested, so it rides in the pickle.
    _kind, msg, _epoch, _fence, _total = recv_frame(b)
    assert bytes(msg[2][1]) == blob

    send_frame(a, KIND_MSG, ("chunk", 0, blob))
    _kind, msg, epoch, _fence, total = recv_frame(b)
    assert msg[0] == "chunk"
    assert isinstance(msg[2], bytearray)  # zero-copy receive buffer
    assert bytes(msg[2]) == blob
    assert total > len(blob)  # header + pickled meta + payload


def test_small_trailing_buffer_stays_in_the_pickle(pair):
    a, b = pair
    small = b"\x01" * 64  # below RAW_THRESHOLD
    send_frame(a, KIND_MSG, ("chunk", 1, small))
    _kind, msg, _epoch, _fence, _total = recv_frame(b)
    assert msg == ("chunk", 1, small)


def test_collective_tag_is_stamped_into_the_header(pair):
    a, b = pair
    send_frame(a, KIND_MSG, ("__ag__", 42, "payload"))
    _kind, _msg, epoch, _fence, _total = recv_frame(b)
    assert epoch == 42


def test_epoch_header_disagreement_is_rejected(pair):
    a, b = pair
    send_frame(a, KIND_MSG, ("__ag__", 5, None), epoch=9)
    with pytest.raises(CommError, match="epoch.*disagrees"):
        recv_frame(b)


def test_crc_corruption_is_rejected(pair):
    a, b = pair
    nbytes = send_frame(a, KIND_MSG, ("hello", 1))
    framed = _drain(b, nbytes)
    framed[FRAME_HEADER.size + 2] ^= 0xFF  # flip one meta byte in flight
    c, d = socket.socketpair()
    try:
        d.settimeout(5.0)
        c.sendall(framed)
        with pytest.raises(CommError, match="CRC mismatch"):
            recv_frame(d)
    finally:
        c.close()
        d.close()


def test_bad_magic_is_rejected(pair):
    a, b = pair
    a.sendall(b"XX" + bytes(FRAME_HEADER.size - 2))
    with pytest.raises(CommError, match="bad frame header"):
        recv_frame(b)


def test_unknown_kind_is_rejected(pair):
    a, b = pair
    a.sendall(FRAME_HEADER.pack(MAGIC, VERSION, 99, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(CommError, match="unknown frame kind"):
        recv_frame(b)


def test_implausible_length_is_rejected(pair):
    a, b = pair
    a.sendall(
        FRAME_HEADER.pack(
            MAGIC, VERSION, KIND_MSG, 0, 0, 0, 0, MAX_META_BYTES + 1, 0, 0
        )
    )
    with pytest.raises(CommError, match="implausible frame lengths"):
        recv_frame(b)


def test_mid_frame_eof_is_a_torn_frame(pair):
    a, b = pair
    a.sendall(FRAME_HEADER.pack(MAGIC, VERSION, KIND_MSG, 0, 0, 0, 0, 100, 0, 0))
    a.sendall(b"only twenty bytes...")
    a.close()
    with pytest.raises(CommError, match="torn frame"):
        recv_frame(b)


def test_clean_eof_between_frames_is_none(pair):
    a, b = pair
    send_frame(a, KIND_MSG, ("hello", 1))
    a.close()
    assert recv_frame(b)[1] == ("hello", 1)
    assert recv_frame(b) is None


def test_raw_frame_carries_preencoded_bytes_and_bad_pickles_fail(pair):
    a, b = pair
    send_raw_frame(a, KIND_RESULT, b"this is not a pickle")
    with pytest.raises(CommError, match="undecodable frame meta"):
        recv_frame(b)


def test_wedged_sender_times_out_mid_frame(pair):
    a, b = pair
    a.sendall(FRAME_HEADER.pack(MAGIC, VERSION, KIND_MSG, 0, 0, 0, 0, 1024, 0, 0))
    b.settimeout(0.2)
    with pytest.raises(CommTimeout, match="wedged"):
        recv_frame(b)


# -- the frame decoder under fuzzing ----------------------------------------
#
# Every channel (pipe, tcp, shm) feeds the one decoder, read_frame; here
# it reads from memory, so nothing can block.  Corrupt input must end in
# CommError (or None at a clean boundary), never another exception.


class _MemoryChannel:
    """``read_into`` over fixed bytes, at most ``step`` bytes per read."""

    def __init__(self, data, step):
        self._data = bytes(data)
        self._pos = 0
        self._step = step

    def __call__(self, view):
        n = min(len(view), len(self._data) - self._pos, self._step)
        view[:n] = self._data[self._pos:self._pos + n]
        self._pos += n
        return n


def _read_all(data, crc, step=1 << 20):
    """Every frame in ``data`` until a clean end; CommError propagates."""
    channel = _MemoryChannel(data, step)
    frames = []
    while True:
        frame = read_frame(channel, crc=crc)
        if frame is None:
            return frames
        frames.append(frame)


_PAYLOAD = bytes(range(256)) * 3  # never holds b"RS\x02": no header in it


@st.composite
def _msg_frames(draw):
    """A valid MSG frame of the three traffic shapes, with or without CRC."""
    epoch = draw(st.integers(0, 2**32 - 1))
    payload = memoryview(_PAYLOAD)[:draw(st.integers(1, len(_PAYLOAD)))]
    msg = draw(st.sampled_from([
        ("__ag__", epoch, ("ready", 3)),
        ("__a2a__", epoch, payload),
        ("__xch__", epoch, ("a2a", 1, 2, payload)),
    ]))
    crc = draw(st.booleans())
    fence = draw(st.integers(0, 2**40 - 1))
    return encode_frame(KIND_MSG, msg, fence=fence, crc=crc), crc


@settings(max_examples=300, deadline=None)
@given(_msg_frames(), st.data())
def test_fuzzed_frames_raise_comm_error_or_end_cleanly(frame_crc, data):
    frame, crc = frame_crc
    step = data.draw(st.integers(1, len(frame)))
    assert len(_read_all(frame, crc, step)) == 1

    # A truncation is a torn frame, except at the frame boundary.
    cut = data.draw(st.integers(0, len(frame) - 1))
    if cut == 0:
        assert _read_all(frame[:cut], crc, step) == []
    else:
        with pytest.raises(CommError):
            _read_all(frame[:cut], crc, step)

    # A length lie desynchronises the stream: CommError, CRC or not.
    field = data.draw(st.sampled_from(["meta", "payload"]))
    start, size = (14, 4) if field == "meta" else (18, 8)
    true_len = int.from_bytes(frame[start:start + size], "big")
    lie = data.draw(st.one_of(
        st.integers(0, len(frame) + 64),
        st.just(MAX_META_BYTES + 1 if field == "meta" else MAX_PAYLOAD_BYTES + 1),
    ).filter(lambda n: n != true_len))
    lied = bytearray(frame)
    lied[start:start + size] = lie.to_bytes(size, "big")
    with pytest.raises(CommError):
        _read_all(lied, crc, step)

    # A flipped header byte: CommError, or (without a CRC to catch it) a
    # frame that still decodes — never any other exception.
    pos = data.draw(st.integers(0, FRAME_HEADER.size - 1))
    flipped = bytearray(frame)
    flipped[pos] ^= data.draw(st.integers(1, 255))
    if crc:
        with pytest.raises(CommError):
            _read_all(flipped, crc, step)
    else:
        try:
            _read_all(flipped, crc, step)
        except CommError:
            pass


@settings(max_examples=300, deadline=None)
@given(_msg_frames().filter(lambda fc: fc[1]), st.data())
def test_any_flipped_byte_of_a_crc_frame_is_a_comm_error(frame_crc, data):
    frame, _crc = frame_crc
    pos = data.draw(st.integers(0, len(frame) - 1))
    flipped = bytearray(frame)
    flipped[pos] ^= data.draw(st.integers(1, 255))
    with pytest.raises(CommError):
        _read_all(flipped, crc=True)


def test_a_socket_frame_must_carry_its_crc(pair):
    a, b = pair
    a.sendall(encode_frame(KIND_MSG, ("hello", 1), crc=False))
    with pytest.raises(CommError, match="lacks the CRC"):
        recv_frame(b)


# -- rendezvous helpers -------------------------------------------------------


def test_parse_hostport():
    assert parse_hostport("10.0.0.7:7070") == ("10.0.0.7", 7070)
    assert parse_hostport("7070") == ("127.0.0.1", 7070)
    assert parse_hostport(":7070") == ("127.0.0.1", 7070)
    with pytest.raises(ValueError, match="invalid port"):
        parse_hostport("host:notaport")
    with pytest.raises(ValueError, match="out of range"):
        parse_hostport("host:70000")


def test_backoff_delays_are_jittered_exponential_and_capped():
    gen = backoff_delays(random.Random(7))
    delays = [next(gen) for _ in range(10)]
    nominal = 0.05
    for d in delays:
        assert 0.5 * nominal <= d <= 1.5 * nominal
        nominal = min(2.0, nominal * 2.0)
    # Deterministic for a given seed (replayable connect traces).
    gen2 = backoff_delays(random.Random(7))
    assert delays == [next(gen2) for _ in range(10)]
    # The cap holds forever.
    for _ in range(20):
        assert next(gen) <= 2.0 * 1.5


def test_connect_with_backoff_outlives_a_late_listener():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    def listen_late():
        time.sleep(0.25)
        server = socket.socket()
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", port))
        server.listen(1)
        time.sleep(1.0)
        server.close()

    t = threading.Thread(target=listen_late, daemon=True)
    t.start()
    sock = connect_with_backoff(("127.0.0.1", port), time.monotonic() + 10.0)
    sock.close()
    t.join()


def test_connect_with_backoff_gives_up_at_the_deadline():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    t0 = time.monotonic()
    with pytest.raises(CommTimeout, match="could not connect"):
        connect_with_backoff(("127.0.0.1", port), t0 + 0.5)
    assert time.monotonic() - t0 < 5.0


# -- rendezvous end-to-end ----------------------------------------------------


def test_rendezvous_builds_a_full_mesh_and_delivers_the_job():
    n = 3
    coordinator = Coordinator(n)
    job_sent = {"what": "a pickled job", "n": n}
    results = {}

    def worker(rank):
        job, coord, socks = join_mesh(coordinator.addr, rank, connect_timeout=15.0)
        try:
            assert sorted(socks) == [p for p in range(n) if p != rank]
            # Prove every mesh edge is a live, correctly-paired channel.
            for peer, sock in socks.items():
                send_frame(sock, KIND_MSG, ("hi", rank))
            greetings = {}
            for peer, sock in socks.items():
                sock.settimeout(10.0)
                _kind, msg, _epoch, _fence, _n = recv_frame(sock)
                greetings[peer] = msg
            # The coordinator socket is the result channel.
            send_frame(coord, KIND_RESULT, ("done", rank))
            results[rank] = (job, greetings)
        finally:
            for sock in socks.values():
                sock.close()
            coord.close()

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(n)]
    for t in threads:
        t.start()
    conns = coordinator.wait_for_workers(job_sent, time.monotonic() + 15.0)
    try:
        assert sorted(conns) == list(range(n))
        for rank, sock in conns.items():
            sock.settimeout(10.0)
            kind, msg, _epoch, _fence, _n = recv_frame(sock)
            assert kind == KIND_RESULT and msg == ("done", rank)
    finally:
        for sock in conns.values():
            sock.close()
        coordinator.close()
    for t in threads:
        t.join(timeout=15.0)
        assert not t.is_alive()
    for rank in range(n):
        job, greetings = results[rank]
        assert job == job_sent  # every worker gets the job in the WELCOME
        assert greetings == {
            p: ("hi", p) for p in range(n) if p != rank
        }


def test_rendezvous_rejects_duplicate_ranks():
    coordinator = Coordinator(2)
    worker_errors = []

    def worker():
        try:
            join_mesh(coordinator.addr, 0, connect_timeout=10.0)
        except CommError as exc:
            worker_errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    try:
        with pytest.raises(CommError, match="duplicate announcement for rank 0"):
            coordinator.wait_for_workers({}, time.monotonic() + 10.0)
    finally:
        coordinator.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    # Both workers see a clean CommError, not a hang: the coordinator
    # closed their rendezvous sockets before WELCOME.
    assert len(worker_errors) == 2


def test_coordinator_tolerates_probe_connections():
    coordinator = Coordinator(1)

    def probe_then_join():
        probe = socket.create_connection(coordinator.addr)
        probe.close()  # port scan / health check: no HELLO at all
        job, coord, socks = join_mesh(coordinator.addr, 0, connect_timeout=10.0)
        coord.close()

    t = threading.Thread(target=probe_then_join)
    t.start()
    try:
        conns = coordinator.wait_for_workers({"job": 1}, time.monotonic() + 10.0)
        for sock in conns.values():
            sock.close()
    finally:
        coordinator.close()
    t.join(timeout=10.0)
    assert not t.is_alive()


# -- TcpComm failure model ----------------------------------------------------


def _tcp_mesh(n, timeout=2.0, heartbeat_s=0.2):
    socks = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = socket.socketpair()
            socks[i][j] = a
            socks[j][i] = b
    return [
        TcpComm(r, n, socks[r], timeout=timeout, heartbeat_s=heartbeat_s)
        for r in range(n)
    ]


def test_wedged_peer_surfaces_as_mid_frame_timeout():
    comms = _tcp_mesh(2, timeout=0.5)
    try:
        comms[0].wedge()
        with pytest.raises(CommTimeout, match="peer 0 wedged mid-frame"):
            comms[1].recv_match(lambda p, m: True, timeout=5.0)
    finally:
        for c in comms:
            c.close()


def test_severed_peer_surfaces_as_dead_pe():
    comms = _tcp_mesh(2)
    try:
        comms[0].sever()
        with pytest.raises(CommError, match=r"dead PE"):
            comms[1].recv_match(lambda p, m: True, timeout=5.0)
    finally:
        for c in comms:
            c.close()


def test_goodbye_close_is_not_a_dead_pe():
    comms = _tcp_mesh(2)
    comms[0].close()
    try:
        # The peer's deliberate close must degrade to silence (timeout),
        # never to the dead-PE protocol error a kill produces.
        with pytest.raises(CommTimeout):
            comms[1].recv_match(lambda p, m: True, timeout=0.4)
        assert 0 not in comms[1].socks  # channel dropped after GOODBYE
    finally:
        comms[1].close()


def test_timeout_diagnoses_protocol_stall_vs_silent_peer():
    # Both alive and heartbeating: a timeout is a protocol stall.
    comms = _tcp_mesh(2, heartbeat_s=0.05)
    try:
        with pytest.raises(CommTimeout, match="protocol stall"):
            comms[0].recv_match(lambda p, m: False, timeout=0.5)
    finally:
        for c in comms:
            c.close()

    # A peer that never heartbeats (raw socket, no TcpComm behind it) is
    # named as silent.
    a, b = socket.socketpair()
    comm = TcpComm(0, 2, {1: a}, timeout=2.0, heartbeat_s=0.05)
    try:
        time.sleep(0.3)
        with pytest.raises(CommTimeout, match="peers silent past the heartbeat"):
            comm.recv_match(lambda p, m: True, timeout=0.2)
    finally:
        comm.close()
        b.close()


def test_heartbeats_flow_while_the_protocol_is_idle():
    comms = _tcp_mesh(2, heartbeat_s=0.05)
    try:
        # No protocol traffic at all; poll long enough for several beats.
        with pytest.raises(CommTimeout):
            comms[1].recv_match(lambda p, m: False, timeout=0.4)
        assert comms[1].socket_bytes_received >= FRAME_HEADER.size
        age = time.monotonic() - comms[1].last_heard[0]
        assert age < 1.0
    finally:
        for c in comms:
            c.close()
