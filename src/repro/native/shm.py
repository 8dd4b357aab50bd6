"""Shared-memory transport: SPSC ring buffers between same-host PEs.

:class:`ShmComm` is the third :class:`~repro.native.comm_api.MeshComm`
channel binding, next to :class:`~repro.native.comm.PipeComm` and
:class:`~repro.net.tcp.TcpComm`.  Where a pipe pays a pickle plus two
kernel copies per message and a socket pays framing plus the TCP stack,
the shm transport moves record bytes through a
:mod:`multiprocessing.shared_memory` segment: one single-producer /
single-consumer byte ring per *directed* channel, written by the
sender thread and drained by the receiver's poll loop.

Ring layout (one POSIX shm segment per directed channel)::

    offset  size  field
    0       8     head          (u64, monotonic bytes consumed)
    8       8     tail          (u64, monotonic bytes produced)
    16      4     prod_waiting  (u32, producer parked on the space doorbell)
    20      4     cons_waiting  (u32, consumer parked on the data doorbell)
    24      8     (pad to 32)
    32      cap   data          (byte ring; index = counter % cap)

Messages are a framed byte stream inside the ring (the ring itself has
no message boundaries, exactly like a TCP stream)::

    offset  size  field
    0       4     meta_len     (u32)
    4       4     payload_len  (u64 worth fits in u32 rings; u32 here)
    8       1     flags        (FLAG_RAW / FLAG_JSON / FLAG_NESTED,
                                shared with repro.net.framing)
    9       8     fence        (u64 composite (job, epoch) fence,
                                pack_fence from comm_api)
    17      ...   meta || payload

* **Record chunks** reuse the framing layer's nested-raw split: the
  protocol tuple minus its trailing buffer becomes ``meta`` and the
  buffer itself is copied *once* from the sender's memoryview into the
  ring, then *once* from the ring into a per-message buffer on the
  receive side, where it is delivered as a ``memoryview`` slice —
  no pickling of record bytes anywhere on the path.
* **Control messages** (barriers, EOFs, probes) travel as tagged JSON
  (``FLAG_JSON``) — msgpack-free, pickle-free.  Tuples round-trip
  exactly via a ``{"t": [...]}`` tagging scheme.  Messages JSON cannot
  express (numpy sample arrays in the selection allgather) fall back to
  pickle, flagged by the absence of ``FLAG_JSON``.

Wakeup is condition-based, never a spin: each ring carries two doorbell
pipes.  The consumer parks on the *data* doorbell (a
``multiprocessing.connection.wait``-able pipe) after publishing
``cons_waiting``; the producer rings it only when the flag is up.  A
producer blocked on a full ring parks symmetrically on the *space*
doorbell after publishing ``prod_waiting``.  The flag-then-recheck
handshake on both sides closes the lost-wakeup race; the 8-byte
head/tail stores are single aligned memcpys (atomic in practice on
x86-64/aarch64 — the platforms ``fork`` restricts us to).

Failure semantics match the siblings: a peer that dies or severs closes
its doorbell fds, which the other side observes as EOF and raises
:class:`CommError`; a *wedged* peer (stops draining, nothing closed)
leaves the ring full and surfaces as :class:`CommTimeout` through the
usual flush/exchange deadlines.

Segment lifetime: whoever calls :func:`create_shm_mesh` owns the names
and must call ``unlink()`` on the returned mesh once the job is over
(the driver does it in a ``finally``; the service pool when an attempt
is finalized; tests immediately after every endpoint attached — POSIX
keeps the memory alive until the last ``close``).  That discipline is
what the chaos sweep's no-leaked-``/dev/shm`` assertion checks.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import threading
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Dict, List, Optional

from ..net.framing import (
    FLAG_JSON,
    FLAG_NESTED,
    FLAG_RAW,
    MAX_META_BYTES,
    MAX_PAYLOAD_BYTES,
    reattach_payload,
    split_raw_nested,
)
from .comm_api import (
    DEFAULT_PENDING_SENDS,
    DEFAULT_TIMEOUT,
    CommError,
    CommTimeout,
    JobInterrupted,
    MeshComm,
)

__all__ = [
    "ShmComm",
    "ShmRingSpec",
    "ShmChannelSpec",
    "ShmMesh",
    "create_shm_mesh",
    "list_shm_segments",
    "DEFAULT_RING_BYTES",
    "SHM_PREFIX",
]

#: Ring header: head, tail, prod_waiting, cons_waiting.
_RING_HEADER = struct.Struct("<QQII")
_HEAD_OFF = 0
_TAIL_OFF = 8
_PROD_WAIT_OFF = 16
_CONS_WAIT_OFF = 20
_DATA_OFF = 32

#: Per-message frame header inside the ring: meta_len, payload_len,
#: flags, fence (the composite (job, epoch) fence from pack_fence).
_FRAME = struct.Struct("<IIBQ")

#: Default data capacity of one directed ring.  Sized to hold a few
#: exchange chunks (a chunk is one memory-load / P, typically well under
#: 256 KiB at bench sizings) so the producer rarely parks.
DEFAULT_RING_BYTES = 1 << 20

#: Every segment name starts with this; the chaos sweep greps /dev/shm
#: for it to assert nothing leaked.
SHM_PREFIX = "rsort-"

#: How long a parked producer/consumer sleeps per doorbell wait tick —
#: purely an upper bound on how late it notices sever/close/interrupt;
#: actual wakeup is the doorbell, not the tick.
_WAIT_TICK = 0.05


class _NotJsonable(Exception):
    """Raised by :func:`_jsonify` for objects JSON cannot carry."""


def _jsonify(obj):
    """Encode ``obj`` for JSON with exact tuple/list/dict round-trip.

    Containers become tagged one-key dicts (``{"t": [...]}`` for
    tuples, ``"l"`` lists, ``"d"`` dicts) so an allgathered
    ``("ready", 3)`` comes back a tuple, not a list.  Anything else
    non-scalar raises :class:`_NotJsonable` and the message falls back
    to pickle.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, tuple):
        return {"t": [_jsonify(x) for x in obj]}
    if isinstance(obj, list):
        return {"l": [_jsonify(x) for x in obj]}
    if isinstance(obj, dict):
        return {"d": [[_jsonify(k), _jsonify(v)] for k, v in obj.items()]}
    raise _NotJsonable(type(obj).__name__)


def _dejsonify(obj):
    if isinstance(obj, dict):
        if len(obj) != 1:
            raise CommError(f"malformed tagged JSON message: {obj!r}")
        tag, val = next(iter(obj.items()))
        if tag == "t":
            return tuple(_dejsonify(x) for x in val)
        if tag == "l":
            return [_dejsonify(x) for x in val]
        if tag == "d":
            return {_dejsonify(k): _dejsonify(v) for k, v in val}
        raise CommError(f"unknown JSON tag {tag!r}")
    return obj


def list_shm_segments(prefix: str = SHM_PREFIX) -> List[str]:
    """Names under ``/dev/shm`` starting with ``prefix`` (Linux; else [])."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []


# ------------------------------------------------------------- mesh specs


@dataclass
class ShmRingSpec:
    """Everything needed to attach one directed ring from any process.

    Connections pickle across ``multiprocessing`` channels (fd passing),
    and the segment is re-attached by name, so a spec can be shipped to
    a forked worker or through the warm pool's control pipe alike.
    """

    name: str
    capacity: int
    data_rd: Connection   # consumer parks here (data doorbell)
    data_wr: Connection   # producer rings it
    space_rd: Connection  # producer parks here (space doorbell)
    space_wr: Connection  # consumer rings it
    #: True when attaching processes run their own resource tracker
    #: (spawn start method): the attach registration must be dropped or
    #: a worker exit would unlink a segment the driver still owns.
    untrack_on_attach: bool = False

    def close(self) -> None:
        for conn in (self.data_rd, self.data_wr, self.space_rd, self.space_wr):
            try:
                conn.close()
            except OSError:
                pass


@dataclass
class ShmChannelSpec:
    """One rank's pair of directed rings to a single peer."""

    send: ShmRingSpec
    recv: ShmRingSpec

    def close(self) -> None:
        self.send.close()
        self.recv.close()


@dataclass
class ShmMesh:
    """A full pairwise ring mesh plus the unlink obligation."""

    channels: List[Dict[int, ShmChannelSpec]]
    names: List[str]
    _unlinked: bool = field(default=False, repr=False)

    def close_parent_ends(self) -> None:
        """Close the creator's doorbell copies (after workers spawned)."""
        for per_rank in self.channels:
            for chan in per_rank.values():
                chan.close()

    def unlink(self) -> None:
        """Remove every segment name (idempotent; mappings stay valid)."""
        if self._unlinked:
            return
        self._unlinked = True
        for name in self.names:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass


def create_shm_mesh(
    ctx,
    n_workers: int,
    ring_bytes: int = DEFAULT_RING_BYTES,
    job_tag: int = 0,
) -> ShmMesh:
    """Create rings + doorbells for every directed pair.

    ``channels[rank][peer]`` holds rank's send ring to ``peer`` and its
    receive ring from ``peer``.  The caller owns the segment names and
    must eventually call :meth:`ShmMesh.unlink`.
    """
    token = uuid.uuid4().hex[:8]
    untrack = getattr(ctx, "get_start_method", lambda: "fork")() == "spawn"
    rings: Dict[tuple, ShmRingSpec] = {}
    names: List[str] = []
    for i in range(n_workers):
        for j in range(n_workers):
            if i == j:
                continue
            name = f"{SHM_PREFIX}{os.getpid():x}-{token}-j{job_tag}-{i}to{j}"
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=_DATA_OFF + ring_bytes
            )
            _RING_HEADER.pack_into(seg.buf, 0, 0, 0, 0, 0)
            seg.close()
            names.append(name)
            data_rd, data_wr = ctx.Pipe(duplex=False)
            space_rd, space_wr = ctx.Pipe(duplex=False)
            rings[(i, j)] = ShmRingSpec(
                name=name, capacity=ring_bytes,
                data_rd=data_rd, data_wr=data_wr,
                space_rd=space_rd, space_wr=space_wr,
                untrack_on_attach=untrack,
            )
    channels: List[Dict[int, ShmChannelSpec]] = [dict() for _ in range(n_workers)]
    for i in range(n_workers):
        for j in range(n_workers):
            if i == j:
                continue
            channels[i][j] = ShmChannelSpec(
                send=rings[(i, j)], recv=rings[(j, i)]
            )
    return ShmMesh(channels=channels, names=names)


# ------------------------------------------------------------ ring endpoints


def _attach(spec: ShmRingSpec) -> shared_memory.SharedMemory:
    seg = shared_memory.SharedMemory(name=spec.name)
    if spec.untrack_on_attach:
        try:  # pragma: no cover - spawn-only path
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


class _RingProducer:
    """Send side of one directed ring (sender-thread only)."""

    def __init__(self, spec: ShmRingSpec):
        self._shm = _attach(spec)
        self._buf = self._shm.buf
        self.capacity = spec.capacity
        self._data = self._buf[_DATA_OFF:_DATA_OFF + spec.capacity]
        self._doorbell = spec.data_wr
        self._space = spec.space_rd
        # The producer is the sole writer of tail: cache it locally.
        self._tail = struct.unpack_from("<Q", self._buf, _TAIL_OFF)[0]
        self._closed = False

    def _head(self) -> int:
        return struct.unpack_from("<Q", self._buf, _HEAD_OFF)[0]

    def _free(self) -> int:
        # struct writes "<Q" a byte at a time, so a concurrent read of the
        # peer's counter can be torn: new low bytes over old high bytes,
        # i.e. too small.  A stale head only understates the free space;
        # the clamp keeps a badly torn one from going negative.
        return max(0, self.capacity - (self._tail - self._head()))

    def _cons_waiting(self) -> bool:
        return bool(struct.unpack_from("<I", self._buf, _CONS_WAIT_OFF)[0])

    def _ring_doorbell(self) -> None:
        try:
            self._doorbell.send_bytes(b"!")
        except (OSError, ValueError, BrokenPipeError):
            pass  # the consumer is gone; its EOF surfaces on our waits

    def _wait_space(self, deadline: float, abort) -> None:
        """Park on the space doorbell until the consumer frees bytes."""
        struct.pack_into("<I", self._buf, _PROD_WAIT_OFF, 1)
        try:
            if self._free() > 0:  # re-check after raising the flag
                return
            abort()
            if time.monotonic() > deadline:
                raise CommTimeout(
                    "shm ring full and the peer stopped draining "
                    f"(capacity {self.capacity} bytes): wedged consumer"
                )
            try:
                if self._space.poll(_WAIT_TICK):
                    while self._space.poll(0):
                        self._space.recv_bytes()
            except (EOFError, OSError) as exc:
                raise CommError(
                    "peer closed its shm space doorbell (dead PE)"
                ) from exc
        finally:
            struct.pack_into("<I", self._buf, _PROD_WAIT_OFF, 0)

    def write(self, parts, deadline: float, abort) -> None:
        """Stream ``parts`` (bytes-likes) into the ring, in order.

        Publishes tail incrementally — the consumer treats the ring as a
        byte stream, so a message larger than the ring flows through in
        pieces while the consumer drains.
        """
        for part in parts:
            mv = memoryview(part)
            if mv.ndim != 1 or mv.format != "B":
                mv = mv.cast("B")
            off, n = 0, len(mv)
            while off < n:
                free = self._free()
                if free == 0:
                    self._wait_space(deadline, abort)
                    continue
                take = min(free, n - off)
                pos = self._tail % self.capacity
                first = min(take, self.capacity - pos)
                self._data[pos:pos + first] = mv[off:off + first]
                if take > first:
                    self._data[:take - first] = mv[off + first:off + take]
                self._tail += take
                struct.pack_into("<Q", self._buf, _TAIL_OFF, self._tail)
                off += take
                if self._cons_waiting():
                    self._ring_doorbell()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in (self._doorbell, self._space):
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._data.release()
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover
            pass


class _RingConsumer:
    """Receive side of one directed ring (poll-thread only)."""

    def __init__(self, spec: ShmRingSpec):
        self._shm = _attach(spec)
        self._buf = self._shm.buf
        self.capacity = spec.capacity
        self._data = self._buf[_DATA_OFF:_DATA_OFF + spec.capacity]
        self.doorbell = spec.data_rd
        self._space = spec.space_wr
        self._head = struct.unpack_from("<Q", self._buf, _HEAD_OFF)[0]
        # Frame-decoder state: header first, then the body.
        self._frame = bytearray(_FRAME.size)
        self._frame_fill = 0
        self._body: Optional[bytearray] = None
        self._body_fill = 0
        self._meta_len = self._payload_len = self._flags = 0
        self._fence = 0
        self.eof = False
        self._closed = False

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self._buf, _TAIL_OFF)[0]

    def avail(self) -> int:
        # A torn read of tail is too small (see _RingProducer._free).
        return max(0, self._tail() - self._head)

    def mid_frame(self) -> bool:
        return self._frame_fill > 0 or self._body is not None

    def set_waiting(self, flag: int) -> None:
        struct.pack_into("<I", self._buf, _CONS_WAIT_OFF, flag)

    def _copy_out(self, dst: memoryview, n: int) -> None:
        pos = self._head % self.capacity
        first = min(n, self.capacity - pos)
        dst[:first] = self._data[pos:pos + first]
        if n > first:
            dst[first:n] = self._data[:n - first]
        self._head += n
        struct.pack_into("<Q", self._buf, _HEAD_OFF, self._head)
        if struct.unpack_from("<I", self._buf, _PROD_WAIT_OFF)[0]:
            try:
                self._space.send_bytes(b"!")
            except (OSError, ValueError, BrokenPipeError):
                pass

    def drain(self, deliver) -> bool:
        """Consume every available byte; ``deliver`` completed frames."""
        got = False
        while True:
            avail = self.avail()
            if avail == 0:
                return got
            if self._body is None:
                take = min(_FRAME.size - self._frame_fill, avail)
                self._copy_out(
                    memoryview(self._frame)[
                        self._frame_fill:self._frame_fill + take
                    ],
                    take,
                )
                self._frame_fill += take
                if self._frame_fill < _FRAME.size:
                    continue
                meta_len, payload_len, flags, fence = _FRAME.unpack(self._frame)
                if meta_len > MAX_META_BYTES or payload_len > MAX_PAYLOAD_BYTES:
                    raise CommError(
                        f"implausible shm frame lengths (meta {meta_len}, "
                        f"payload {payload_len}): ring corrupt"
                    )
                self._meta_len, self._payload_len = meta_len, payload_len
                self._flags, self._fence = flags, fence
                self._frame_fill = 0
                self._body = bytearray(meta_len + payload_len)
                self._body_fill = 0
            take = min(len(self._body) - self._body_fill, self.avail())
            if take:
                self._copy_out(
                    memoryview(self._body)[
                        self._body_fill:self._body_fill + take
                    ],
                    take,
                )
                self._body_fill += take
            if self._body_fill == len(self._body):
                body, self._body = self._body, None
                deliver(
                    self._flags, self._fence, body,
                    self._meta_len, self._payload_len,
                )
                got = True

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in (self.doorbell, self._space):
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._data.release()
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover
            pass


# ------------------------------------------------------------------ ShmComm


class ShmComm(MeshComm):
    """Collectives and point-to-point transfers over shared-memory rings."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        channels: Dict[int, ShmChannelSpec],
        timeout: float = DEFAULT_TIMEOUT,
        chaos=None,
        pending_sends: int = DEFAULT_PENDING_SENDS,
        job_epoch: int = 0,
        job_tag: int = 0,
        interrupt: Optional[Connection] = None,
        interrupt_tag: int = 0,
        own_channel_ends: bool = False,
    ):
        self.channels = channels
        self._interrupt = interrupt
        self._interrupt_tag = int(interrupt_tag)
        self._closing = threading.Event()
        self._producers: Dict[int, _RingProducer] = {}
        self._consumers: Dict[int, _RingConsumer] = {}
        try:
            for peer, chan in channels.items():
                self._producers[peer] = _RingProducer(chan.send)
                self._consumers[peer] = _RingConsumer(chan.recv)
        except Exception:
            self._teardown_endpoints()
            raise
        if own_channel_ends:
            # Process-per-rank usage (worker processes, pool PEs): the
            # specs arrived pickled, so this process holds duplicated
            # fds of *both* sides' doorbell ends.  Drop the peer's ends
            # so a dead peer turns into doorbell EOF here instead of a
            # timeout.  Threaded harnesses share the spec objects
            # between endpoints and must keep the default (False).
            for chan in channels.values():
                for conn in (
                    chan.send.data_rd, chan.send.space_wr,
                    chan.recv.data_wr, chan.recv.space_rd,
                ):
                    try:
                        conn.close()
                    except OSError:
                        pass
        super().__init__(
            rank,
            n_workers,
            peers=list(channels),
            timeout=timeout,
            pending_sends=pending_sends,
            chaos=chaos,
            job_epoch=job_epoch,
            job_tag=job_tag,
        )
        self._start_sender()

    # -- channel primitives ---------------------------------------------------

    def _abort_send(self) -> None:
        if self._closing.is_set() or self._severed:
            raise CommError(f"rank {self.rank}: shm transport closed")

    def _transmit(self, peer: int, msg: tuple) -> None:
        meta_msg, payload, nested = split_raw_nested(msg)
        flags = 0
        try:
            meta = json.dumps(
                _jsonify(meta_msg), separators=(",", ":")
            ).encode("utf-8")
            flags |= FLAG_JSON
        except _NotJsonable:
            meta = pickle.dumps(meta_msg, protocol=pickle.HIGHEST_PROTOCOL)
        parts = [b"", meta]
        payload_len = 0
        if payload is not None:
            flags |= FLAG_RAW | (FLAG_NESTED if nested else 0)
            payload_len = len(payload)
            parts.append(payload)
        parts[0] = _FRAME.pack(len(meta), payload_len, flags, self.wire_fence)
        self._producers[peer].write(
            parts, time.monotonic() + self.timeout, self._abort_send
        )

    def _check_interrupt(self) -> None:
        if self._interrupt is None:
            return
        while self._interrupt.poll(0):
            try:
                tag = self._interrupt.recv()
            except (EOFError, OSError) as exc:
                raise JobInterrupted(
                    f"rank {self.rank}: interrupt channel closed "
                    "(service shut down)"
                ) from exc
            if tag == self._interrupt_tag:
                raise JobInterrupted(
                    f"rank {self.rank}: job interrupted by the service"
                )

    def set_phase(self, phase: str) -> None:
        # Mirrors PipeComm: the phase boundary is the one guaranteed
        # passage point on a 1-worker pool job, bounding cancel latency.
        self._check_interrupt()
        super().set_phase(phase)

    def _deliver(self, peer: int, flags: int, fence: int, body: bytearray,
                 meta_len: int, payload_len: int) -> bool:
        if fence != self.wire_fence:
            # Stale bytes from a pre-restart epoch or another pool job.
            self.fenced_drops += 1
            return False
        mv = memoryview(body)
        try:
            if flags & FLAG_JSON:
                msg = _dejsonify(json.loads(bytes(mv[:meta_len]).decode("utf-8")))
            else:
                msg = pickle.loads(mv[:meta_len])
        except CommError:
            raise
        except Exception as exc:
            raise CommError(
                f"rank {self.rank}: undecodable shm frame from peer "
                f"{peer}: {exc!r}"
            ) from exc
        if flags & FLAG_RAW:
            # The record buffer is delivered as a memoryview over this
            # message's own heap buffer: one ring->heap copy total, no
            # pickling, and downstream (np.frombuffer, unpack_from,
            # file writes) consumes the view directly.
            msg = reattach_payload(msg, mv[meta_len:], bool(flags & FLAG_NESTED))
        self._stash_message(peer, msg)
        return True

    def _drain_rings(self) -> bool:
        got = False
        for peer, cons in self._consumers.items():
            def deliver(flags, fence, body, meta_len, payload_len, _p=peer):
                nonlocal got
                if self._deliver(_p, flags, fence, body, meta_len, payload_len):
                    got = True

            cons.drain(deliver)
        return got

    def _raise_if_dead_peer(self) -> None:
        for peer, cons in self._consumers.items():
            if cons.eof and cons.avail() == 0 and not cons.mid_frame():
                raise CommError(
                    f"rank {self.rank}: peer {peer} closed its shm channel "
                    "(dead PE)"
                )

    def _poll_once(self, block_timeout: float) -> bool:
        self._check_interrupt()
        self._chaos_poll()
        if self._drain_rings():
            return True
        self._raise_if_dead_peer()
        # Arm the wait flags, re-check, then park on the doorbells: the
        # producer only rings when cons_waiting is up, and the re-check
        # after raising the flag closes the lost-wakeup window.
        for cons in self._consumers.values():
            if not cons.eof:
                cons.set_waiting(1)
        try:
            if any(
                cons.avail() for cons in self._consumers.values()
            ):
                return self._drain_rings()
            wait_on = [
                cons.doorbell
                for cons in self._consumers.values()
                if not cons.eof
            ]
            if self._interrupt is not None:
                wait_on.append(self._interrupt)
            if not wait_on:
                return False
            try:
                ready = conn_wait(wait_on, timeout=max(0.0, block_timeout))
            except OSError as exc:
                raise CommError(
                    f"rank {self.rank}: shm doorbell died: {exc!r}"
                ) from exc
        finally:
            for cons in self._consumers.values():
                cons.set_waiting(0)
        if not ready:
            return False
        by_conn = {
            id(cons.doorbell): cons for cons in self._consumers.values()
        }
        for conn in ready:
            if self._interrupt is not None and conn is self._interrupt:
                self._check_interrupt()
                continue
            cons = by_conn[id(conn)]
            try:
                while cons.doorbell.poll(0):
                    cons.doorbell.recv_bytes()
            except (EOFError, OSError):
                cons.eof = True
        if self._drain_rings():
            return True
        self._raise_if_dead_peer()
        return False

    # -- lifecycle / chaos ----------------------------------------------------

    def _teardown_endpoints(self) -> None:
        for prod in self._producers.values():
            prod.close()
        for cons in self._consumers.values():
            cons.close()

    def _close_transport(self) -> None:
        # Unblock a sender parked on a full ring first (it checks the
        # closing event every wait tick), then drop every endpoint.
        self._closing.set()
        self._teardown_endpoints()

    def _sever_transport(self) -> None:
        # Close the doorbells without a goodbye: peers observe EOF at
        # their next park, exactly like a died PE.
        self._closing.set()
        self._teardown_endpoints()

    def _timeout_context(self) -> str:
        full = [
            peer
            for peer, prod in self._producers.items()
            if not prod._closed and prod._free() == 0
        ]
        if full:
            listing = ", ".join(str(p) for p in sorted(full))
            return f"; shm rings to peer(s) {listing} are full (not draining)"
        return ""
