"""Shared-memory transport: SPSC ring buffers between same-host PEs.

:class:`ShmComm` is the third :class:`~repro.native.comm_api.MeshComm`
channel binding, next to :class:`~repro.native.comm.PipeComm` and
:class:`~repro.net.tcp.TcpComm`.  All three carry the same
:mod:`repro.net.framing` frames, encoded and decoded by the core; where
a pipe moves them through the kernel, the shm transport moves them
through a :mod:`multiprocessing.shared_memory` segment: one
single-producer / single-consumer byte ring per *directed* channel,
written by the sender thread and read by the receiver's poll loop.

Ring layout (one POSIX shm segment per directed channel)::

    offset  size  field
    0       8     head          (u64, monotonic bytes consumed)
    8       8     tail          (u64, monotonic bytes produced)
    16      4     prod_waiting  (u32, producer parked on the space doorbell)
    20      4     cons_waiting  (u32, consumer parked on the data doorbell)
    24      8     (pad to 32)
    32      cap   data          (byte ring; index = counter % cap)

The ring is a byte stream without message boundaries, exactly like a
pipe or a TCP stream, so the frames need no ring-specific header: the
producer copies a frame's parts in (record bytes straight from the
sender's memoryview), the consumer copies exactly what the frame reader
asks for out — a payload straight into its ``alltoall`` landing slot
when one is registered.  A frame larger than the ring flows through in
pieces while the consumer drains.

Wakeup is condition-based, never a spin: each ring carries one doorbell,
a duplex ``multiprocessing`` pipe (an ``AF_UNIX`` socketpair) whose
producer end belongs to the sender's rank and whose consumer end to the
receiver's.  The consumer parks on its end (a
``multiprocessing.connection.wait``-able connection) after publishing
``cons_waiting``; the producer rings it, one byte into its own end, only
when the flag is up.  A producer blocked on a full ring parks
symmetrically on its end after publishing ``prod_waiting``, and the
consumer rings back.  Each direction of the doorbell carries one kind
of ring.  The flag-then-recheck handshake on both sides closes the
lost-wakeup race; the 8-byte head/tail stores are single aligned
memcpys (atomic in practice on x86-64/aarch64 — the platforms ``fork``
restricts us to).

Failure semantics match the siblings: a rank holds only its own doorbell
ends, so a peer that dies, severs or closes is EOF on the doorbells here
and, without a GOODBYE first, a :class:`CommError`; a *wedged* peer
(stops draining, nothing closed) leaves the ring full and surfaces as
:class:`CommTimeout` through the usual flush/exchange deadlines, and one
that stops mid-frame as a :class:`CommTimeout` of the frame read.

Segment lifetime: whoever calls :func:`create_shm_mesh` owns the names
and must call ``unlink()`` on the returned mesh once the job is over
(the PE pool when an attempt ends or the pool stops; tests
immediately after every endpoint attached — POSIX
keeps the memory alive until the last ``close``).  That discipline is
what the chaos sweep's no-leaked-``/dev/shm`` assertion checks.
"""

from __future__ import annotations

import os
import struct
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Dict, List, Optional

from .comm_api import (
    DEFAULT_PENDING_SENDS,
    DEFAULT_TIMEOUT,
    CommError,
    CommTimeout,
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


def list_shm_segments(prefix: str = SHM_PREFIX) -> List[str]:
    """Names under ``/dev/shm`` starting with ``prefix`` (Linux; else [])."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []


# ------------------------------------------------------------- mesh specs


@dataclass
class ShmRingSpec:
    """One rank's side of one directed ring, attachable from any process.

    The doorbell end pickles across ``multiprocessing`` channels (fd
    passing), and the segment is re-attached by name, so a spec can be
    shipped to a forked worker or through the warm pool's control pipe
    alike.
    """

    name: str
    capacity: int
    #: This side's end of the ring's doorbell: the producer rings data
    #: and parks for space on it, the consumer the other way round.
    bell: Connection
    #: True when attaching processes run their own resource tracker
    #: (spawn start method): the attach registration must be dropped or
    #: a worker exit would unlink a segment the driver still owns.
    untrack_on_attach: bool = False


@dataclass
class ShmChannelSpec:
    """One rank's pair of directed rings to a single peer.

    It holds the producer side of the send ring and the consumer side of
    the receive ring, so the peer's doorbell ends are never in it."""

    send: ShmRingSpec
    recv: ShmRingSpec

    def close(self) -> None:
        self.send.bell.close()
        self.recv.bell.close()


@dataclass
class ShmMesh:
    """A full pairwise ring mesh plus the unlink obligation."""

    channels: List[Dict[int, ShmChannelSpec]]
    names: List[str]
    _unlinked: bool = field(default=False, repr=False)

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
    """Create a ring and its doorbell for every directed pair.

    ``channels[rank][peer]`` holds rank's side of its send ring to
    ``peer`` and of its receive ring from ``peer``: each doorbell end
    sits in exactly one rank's channels.  The caller owns the segment
    names and must eventually call :meth:`ShmMesh.unlink`.
    """
    token = uuid.uuid4().hex[:8]
    untrack = getattr(ctx, "get_start_method", lambda: "fork")() == "spawn"
    # (i, j) -> the producer and the consumer side of ring i -> j.
    rings: Dict[tuple, tuple] = {}
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
            prod, cons = ctx.Pipe(duplex=True)
            rings[(i, j)] = (
                ShmRingSpec(name, ring_bytes, prod, untrack),
                ShmRingSpec(name, ring_bytes, cons, untrack),
            )
    channels = [
        {j: ShmChannelSpec(send=rings[(i, j)][0], recv=rings[(j, i)][1])
         for j in range(n_workers) if j != i}
        for i in range(n_workers)
    ]
    return ShmMesh(channels=channels, names=names)


# ------------------------------------------------------------ ring endpoints


def _ring(bell: Connection) -> None:
    """Ring the other side of a doorbell: one raw byte into this end."""
    try:
        os.write(bell.fileno(), b"!")
    except (OSError, ValueError):
        pass  # the other side is gone; its EOF surfaces on our waits


def _swallow_rings(bell: Connection) -> None:
    """Drain this end's pending rings; EOFError once the other side left."""
    while bell.poll(0):
        if not os.read(bell.fileno(), 4096):
            raise EOFError("doorbell closed")


def _attach(spec: ShmRingSpec) -> shared_memory.SharedMemory:
    seg = shared_memory.SharedMemory(name=spec.name)
    if spec.untrack_on_attach:
        try:  # pragma: no cover - spawn-only path
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


class _RingEnd:
    """One side of one directed ring: the mapping and this side's
    doorbell end.  A channel end as :class:`MeshComm` sees it: its
    ``fileno()`` is the doorbell's socket, ``close()`` unmaps too."""

    def __init__(self, spec: ShmRingSpec):
        self._shm = _attach(spec)
        self._buf = self._shm.buf
        self.capacity = spec.capacity
        self._data = self._buf[_DATA_OFF:_DATA_OFF + spec.capacity]
        self.bell = spec.bell
        self._closed = False

    def fileno(self) -> int:
        return self.bell.fileno()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.bell.close()
        except OSError:
            pass
        try:
            self._data.release()
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover
            pass


class _RingProducer(_RingEnd):
    """Send side of one directed ring (sender-thread only)."""

    def __init__(self, spec: ShmRingSpec):
        super().__init__(spec)
        # The producer is the sole writer of tail: cache it locally.
        self._tail = struct.unpack_from("<Q", self._buf, _TAIL_OFF)[0]

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

    def _wait_space(self, deadline: float) -> None:
        """Park on the doorbell until the consumer frees bytes."""
        struct.pack_into("<I", self._buf, _PROD_WAIT_OFF, 1)
        try:
            if self._free() > 0:  # re-check after raising the flag
                return
            if time.monotonic() > deadline:
                raise CommTimeout(
                    "shm ring full and the peer stopped draining "
                    f"(capacity {self.capacity} bytes): wedged consumer"
                )
            try:
                if self.bell.poll(_WAIT_TICK):
                    _swallow_rings(self.bell)
            except (EOFError, OSError) as exc:
                raise CommError(
                    "shm doorbell closed while the ring was full "
                    "(dead PE, or this rank shut down)"
                ) from exc
        finally:
            struct.pack_into("<I", self._buf, _PROD_WAIT_OFF, 0)

    def write(self, parts, deadline: float) -> None:
        """Stream ``parts`` (bytes-likes) into the ring, in order.

        Publishes tail incrementally — the consumer treats the ring as a
        byte stream, so a message larger than the ring flows through in
        pieces while the consumer drains.
        """
        for part in parts:
            mv = memoryview(part)
            off, n = 0, len(mv)
            while off < n:
                free = self._free()
                if free == 0:
                    self._wait_space(deadline)
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
                    _ring(self.bell)


class _RingConsumer(_RingEnd):
    """Receive side of one directed ring (poll-thread only)."""

    def __init__(self, spec: ShmRingSpec):
        super().__init__(spec)
        self._head = struct.unpack_from("<Q", self._buf, _HEAD_OFF)[0]
        self.eof = False

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self._buf, _TAIL_OFF)[0]

    def avail(self) -> int:
        # A torn read of tail is too small (see _RingProducer._free).
        return max(0, self._tail() - self._head)

    def set_waiting(self, flag: int) -> None:
        struct.pack_into("<I", self._buf, _CONS_WAIT_OFF, flag)

    def clear_doorbell(self) -> None:
        """Swallow pending rings; a closed doorbell marks the peer gone."""
        try:
            _swallow_rings(self.bell)
        except (EOFError, OSError):
            self.eof = True

    def read_into(self, view: memoryview, timeout: float) -> int:
        """Copy up to ``len(view)`` bytes out, waiting at most ``timeout``
        seconds for the first; 0 once the producer is gone and the ring
        is empty."""
        deadline = None
        while True:
            n = min(self.avail(), len(view))
            if n:
                self._copy_out(view, n)
                return n
            if self.eof:
                return 0
            now = time.monotonic()
            if deadline is None:
                deadline = now + timeout
            elif now > deadline:
                raise TimeoutError(f"shm ring stayed empty for {timeout}s")
            self.set_waiting(1)
            try:
                if not self.avail():  # re-check after raising the flag
                    self.bell.poll(_WAIT_TICK)
                    self.clear_doorbell()
            except (EOFError, OSError):
                self.eof = True
            finally:
                self.set_waiting(0)

    def _copy_out(self, dst: memoryview, n: int) -> None:
        pos = self._head % self.capacity
        first = min(n, self.capacity - pos)
        dst[:first] = self._data[pos:pos + first]
        if n > first:
            dst[first:n] = self._data[:n - first]
        self._head += n
        struct.pack_into("<Q", self._buf, _HEAD_OFF, self._head)
        if struct.unpack_from("<I", self._buf, _PROD_WAIT_OFF)[0]:
            _ring(self.bell)


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
    ):
        self.channels = channels
        self._producers: Dict[int, _RingProducer] = {}
        self._consumers: Dict[int, _RingConsumer] = {}
        try:
            for peer, chan in channels.items():
                self._producers[peer] = _RingProducer(chan.send)
                self._consumers[peer] = _RingConsumer(chan.recv)
        except Exception:
            for end in self._ends():
                end.close()
            raise
        super().__init__(
            rank,
            n_workers,
            peers=list(channels),
            timeout=timeout,
            pending_sends=pending_sends,
            chaos=chaos,
            job_epoch=job_epoch,
            job_tag=job_tag,
            interrupt=interrupt,
            interrupt_tag=interrupt_tag,
        )

    # -- byte channel ---------------------------------------------------------

    def _write(self, peer: int, parts: list) -> None:
        self._producers[peer].write(parts, time.monotonic() + self.timeout)

    def _read_into(self, peer: int, view: memoryview) -> int:
        return self._consumers[peer].read_into(view, self.timeout)

    def _ready_peers(self, timeout: float) -> List[int]:
        def ready():
            return [p for p, c in self._consumers.items() if c.avail() or c.eof]

        found = ready()
        if found:
            return found
        # Arm the wait flags, re-check, then park on the doorbells: the
        # producer only rings when cons_waiting is up, and the re-check
        # after raising the flag closes the lost-wakeup window.
        live = [c for c in self._consumers.values() if not c.eof]
        for cons in live:
            cons.set_waiting(1)
        try:
            if any(cons.avail() for cons in live):
                return ready()
            waits = [cons.bell for cons in live]
            if self._interrupt is not None:
                waits.append(self._interrupt)
            if not waits:
                return []
            try:
                rung = conn_wait(waits, timeout=timeout)
            except OSError as exc:
                raise CommError(
                    f"rank {self.rank}: shm doorbell died: {exc!r}"
                ) from exc
        finally:
            for cons in live:
                cons.set_waiting(0)
        for cons in live:
            if cons.bell in rung:
                cons.clear_doorbell()
        return ready()

    def _drop_channel(self, peer: int) -> None:
        self._consumers.pop(peer).close()

    def _ends(self) -> list:
        return [*self._producers.values(), *self._consumers.values()]

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
