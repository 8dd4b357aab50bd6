"""The comm contract of the native backend, and its transport-agnostic core.

Three transports carry CANONICALMERGESORT's interconnect traffic today —
:class:`repro.native.comm.PipeComm` (a full mesh of ``multiprocessing``
pipes, single host), :class:`repro.native.shm.ShmComm` (shared-memory
rings, single host) and :class:`repro.net.tcp.TcpComm` (a full mesh of
TCP sockets, any host); :func:`repro.native.transport.open_comm` picks
one for a job — and :mod:`repro.native.phases` must run unchanged over
any of them.  This module pins that surface down:

* :class:`Comm` is the typed :class:`~typing.Protocol` every transport
  satisfies (the contract is spelled out in its docstring);
* :class:`MeshComm` is the shared implementation of everything *above*
  the transport: the sender thread, the stash, the collectives (among
  them the one-round in-memory ``alltoall``), the chunked disk-streaming
  exchange, the wire accounting, the service interrupt, and the one
  message format — every message is a :mod:`repro.net.framing` frame,
  encoded once and decoded once here.  A transport subclasses it and
  provides only its byte channel: :meth:`MeshComm._write` (gather-write
  one frame's parts to a peer), :meth:`MeshComm._read_into` (read what
  a peer sent, within the comm timeout) and :meth:`MeshComm._ready_peers`
  (wait until some peer's channel is readable).

The contract
------------

**Addressing.**  ``n_workers`` ranks, ``0 .. n_workers-1``; every rank
holds one bidirectional channel to every other rank (a full mesh).

**Ordering.**  Each channel is FIFO: messages posted to a peer arrive in
post order.  There is *no* ordering across channels — a fast peer's
next-phase message can arrive before a slow peer's current-phase one.

**Epochs.**  Every collective increments a per-rank epoch counter and
tags its protocol messages with it (``("__ag__", epoch, obj)``, ...).
Because all ranks execute the same collectives in the same order, the
counters agree, and the tag rejects stale or early traffic: a receive
loop matches only its own epoch and stashes everything else.

**Stashing.**  ``recv_match(match)`` returns the first pending message
satisfying ``match(peer, msg)`` and *parks* every non-matching message
(per-peer, order-preserving) for a later receive.  Nothing is dropped.

**Deadlock-freedom.**  All sends run on a single background sender
thread fed from a queue, so the main thread always keeps draining
arrivals even when the OS-level channel to some peer is full.

**Failure.**  A dead or misbehaving peer raises :class:`CommError`; an
expected message that never arrives raises :class:`CommTimeout` (a
subclass) after ``timeout`` seconds.  Never a hang.

**Close.**  ``close()`` is one protocol for every transport: a rank
whose collectives all completed flushes its queued messages with a
GOODBYE to every peer behind them, so a peer still inside the last
collective tells a deliberate close from a dead PE's silent EOF; a rank
whose collective failed sends nothing more.  Then every channel end is
shut down, which wakes a sender blocked on a full channel, and the
sender thread is joined once.

The simulator's :class:`repro.cluster.mpi.Comm` is the third party to
this contract in spirit — same collectives, same epoch discipline — but
its API is event-driven (rank-parameterized calls returning simulation
events), so it satisfies the contract's semantics, not this Protocol's
signatures.  The correspondence is documented there.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

__all__ = [
    "Comm",
    "MeshComm",
    "CommError",
    "CommTimeout",
    "JobInterrupted",
    "DEFAULT_TIMEOUT",
    "DEFAULT_PENDING_SENDS",
    "payload_bytes",
    "message_epoch",
    "pack_fence",
]

#: Default receive timeout: generous, only to turn a wedged cluster into
#: a diagnosable error instead of a hang.
DEFAULT_TIMEOUT = 300.0

#: Default bulk-exchange backpressure: at most this many chunks parked in
#: the send queue before the producer is throttled.
DEFAULT_PENDING_SENDS = 4


class CommError(RuntimeError):
    """A peer misbehaved (protocol violation or dead connection)."""


class CommTimeout(CommError):
    """No expected message arrived within the timeout."""


class JobInterrupted(CommError):
    """The owning service interrupted this job (cancel or shutdown).

    Raised out of a comm operation on a warm-pool worker when the
    service posts an interrupt for the job currently running; the
    worker's phase body reports it like any other failure and the pool
    loop survives to take the next job.
    """


def pack_fence(job_tag: int, epoch: int) -> int:
    """Composite (job, epoch) wire fence: ``(job_tag << 8) | epoch % 256``.

    The fence a frame carries must match the receiver's exactly: a
    frame from another *job* (different ``job_tag``) or another restart
    *attempt* of the same job (different epoch) is dropped, never
    delivered.  Single-shot runs use ``job_tag=0``, which degenerates to
    the historic epoch-only fence byte.
    """
    return ((int(job_tag) & 0xFFFFFFFF) << 8) | (int(epoch) & 0xFF)


def payload_bytes(obj) -> int:
    """Record bytes riding in a message (nested bytes-like items).

    This is the *payload estimate* behind all wire accounting: control
    fields (strings, ints, array samples) are noise next to the record
    chunks, so only bytes-like items count.  Recursive over tuples
    because exchange payloads arrive wrapped (``("__xch__", epoch,
    ("a2a", r, k, buf))``).
    """
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, tuple):
        return sum(payload_bytes(item) for item in obj)
    return 0


def message_epoch(msg) -> int:
    """The collective epoch a protocol message is tagged with (0 if none).

    Framed transports stamp this into the frame header so a stale or
    cross-epoch frame can be rejected below the pickle layer.
    """
    if (
        isinstance(msg, tuple)
        and len(msg) >= 2
        and isinstance(msg[0], str)
        and msg[0].startswith("__")
        and isinstance(msg[1], int)
        and 0 <= msg[1] < 2**32
    ):
        return msg[1]
    return 0


@runtime_checkable
class Comm(Protocol):
    """What the native phases require of a transport (see module docs)."""

    rank: int
    n_workers: int
    timeout: float

    def post(self, peer: int, msg: tuple) -> None: ...

    def pending_sends(self) -> int: ...

    def flush(self, timeout: Optional[float] = None) -> None: ...

    def recv_match(
        self,
        match: Callable[[int, tuple], bool],
        timeout: Optional[float] = None,
    ) -> Tuple[int, tuple]: ...

    def try_recv_match(
        self, match: Callable[[int, tuple], bool]
    ) -> Optional[Tuple[int, tuple]]: ...

    def barrier(self) -> None: ...

    def allgather(self, obj) -> List: ...

    def allgather_parts(self, parts: Sequence) -> List[List]: ...

    def alltoall(
        self, parts: Sequence, into: Optional[Sequence] = None
    ) -> List: ...

    def allreduce(self, value, op: Callable) -> object: ...

    def exchange(
        self,
        outgoing: Iterable[Tuple[int, tuple]],
        on_chunk: Callable[[int, tuple], None],
    ) -> None: ...

    def set_phase(self, phase: str) -> None: ...

    def close(self) -> None: ...


class MeshComm:
    """Everything above the transport: collectives, stash, accounting.

    Every message travels as one :mod:`repro.net.framing` frame, with
    ``FLAG_CRC`` exactly when the class sets :attr:`frame_crc`.
    Subclasses provide the byte channel:

    * :meth:`_write` — gather-write a frame's parts to one peer (called
      from the sender thread; may block);
    * :meth:`_read_into` — read at least one byte from a peer into a
      view, 0 at EOF; ``TimeoutError`` when nothing arrives within
      :attr:`timeout`;
    * :meth:`_ready_peers` — wait at most ``timeout`` seconds until some
      peer's channel is readable (data or EOF), waking early for the
      service interrupt channel too;

    * :meth:`_ends` — every channel end this rank holds: objects with
      ``fileno()`` (a stream socket's) and ``close()``;

    plus optional hooks (``_drop_channel``, ``_on_frame``,
    ``_wedge_transport``, ``_on_send_idle``, ``_idle_seconds``,
    ``_timeout_context``).  The subclass sets its channels up before
    calling ``__init__``, which starts the sender thread.  The lifecycle
    is this class's alone: :meth:`close` and :meth:`sever` shut the
    ends down and close them.
    """

    #: Whether frames carry (and must carry) a CRC: the socket transport's.
    frame_crc = False

    def __init__(
        self,
        rank: int,
        n_workers: int,
        peers: Iterable[int],
        timeout: float = DEFAULT_TIMEOUT,
        pending_sends: int = DEFAULT_PENDING_SENDS,
        chaos=None,
        job_epoch: int = 0,
        job_tag: int = 0,
        interrupt=None,
        interrupt_tag: int = 0,
    ):
        peers = sorted(peers)
        if peers != [p for p in range(n_workers) if p != rank]:
            raise ValueError(
                f"rank {rank}/{n_workers}: need one connection per peer, "
                f"got {peers}"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if pending_sends < 1:
            raise ValueError(f"pending_sends must be >= 1, got {pending_sends}")
        self.rank = rank
        self.n_workers = n_workers
        self.peers: Tuple[int, ...] = tuple(peers)
        self.timeout = timeout
        self.max_pending_sends = int(pending_sends)
        #: Optional fault-injection spec (duck-typed; may delay polls).
        self.chaos = chaos
        #: Job epoch (restart attempt number) used to fence stale frames:
        #: a message stamped with another epoch is dropped, not delivered.
        #: Transports stamp/check it in their channel primitives.
        self.job_epoch = int(job_epoch)
        #: Numeric job identity (service multiplexing); 0 = single-shot.
        #: Combined with the epoch into the composite wire fence so two
        #: jobs' frames can never cross, even on a reused worker.
        self.job_tag = int(job_tag)
        #: The composite fence every outgoing frame carries and every
        #: incoming MSG frame must match (see :func:`pack_fence`).
        self.wire_fence = pack_fence(self.job_tag, self.job_epoch)
        #: Stale frames dropped by the (job, epoch) fence (recovery counter).
        self.fenced_drops = 0
        #: Service interrupt channel: the warm pool hands each worker a
        #: pipe the scheduler writes dispatch tags into to abort the job
        #: currently running (cancel, or a peer rank failed).  Checked
        #: at every poll and every phase boundary; a matching tag raises
        #: :class:`JobInterrupted`.  Tags for *other* dispatches (a
        #: cancel that raced the job's own completion) are drained and
        #: ignored.
        self._interrupt = interrupt
        self._interrupt_tag = int(interrupt_tag)
        #: Peers that announced a deliberate close (GOODBYE): their later
        #: EOF is a normal shutdown, not a dead PE.
        self._peer_goodbye = set()
        self._epoch = 0
        #: The last epoch whose collective completed; behind ``_epoch``
        #: once a collective failed (see :meth:`close`).
        self._settled = 0
        self._closed = False
        #: While an ``alltoall(into=...)`` runs: its epoch, and per peer
        #: the buffer that peer's part lands in (see :meth:`_landing_slot`).
        self._slots: Optional[Tuple[int, Dict[int, memoryview]]] = None
        #: Messages received but not yet consumed, per peer, in order.
        self._stash: Dict[int, deque] = {p: deque() for p in self.peers}
        self._sendq: "queue.Queue" = queue.Queue()
        self._send_lock = threading.Condition()
        self._enqueued = 0
        self._sent = 0
        self._send_error: Optional[BaseException] = None
        self._sender: Optional[threading.Thread] = None
        self._severed = False
        self._wedged = False
        #: Current phase label for the wire accounting below.
        self._phase = "startup"
        #: Bytes moved through the mesh (payload estimate), for stats.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Phase -> payload bytes actually posted to / received from peers.
        self.wire_sent: Dict[str, int] = {}
        self.wire_recv: Dict[str, int] = {}
        #: Phase -> payload bytes of exchange chunks this rank kept for
        #: itself.  Wire + local is a phase's full communication volume —
        #: the quantity the paper's N + o(N) bound is stated for.
        self.local_bytes: Dict[str, int] = {}
        #: Peer -> payload bytes sent to / received from that peer.
        self.peer_sent: Dict[int, int] = {p: 0 for p in self.peers}
        self.peer_recv: Dict[int, int] = {p: 0 for p in self.peers}
        self._start_sender()

    # -- transport primitives (subclass responsibilities) ---------------------

    def _write(self, peer: int, parts: list) -> None:
        raise NotImplementedError

    def _read_into(self, peer: int, view: memoryview) -> int:
        raise NotImplementedError

    def _ready_peers(self, timeout: float) -> List[int]:
        raise NotImplementedError

    def _ends(self) -> List:
        raise NotImplementedError

    def _drop_channel(self, peer: int) -> None:
        """Forget a peer that said GOODBYE and then closed (default: none)."""

    def _on_frame(self, peer: int, nbytes: int) -> None:
        """A frame of ``nbytes`` arrived from ``peer`` (default: nothing)."""

    def _wedge_transport(self) -> None:
        """Leave channels half-broken (chaos hook; default: none)."""

    def _idle_seconds(self) -> Optional[float]:
        """Sender-thread idle tick; ``None`` blocks until the next send."""
        return None

    def _on_send_idle(self) -> None:
        """Called on the sender thread after an idle tick (heartbeats)."""

    def _timeout_context(self) -> str:
        """Extra diagnosis appended to timeout messages (peer liveness)."""
        return ""

    # -- low-level send/recv --------------------------------------------------

    def _start_sender(self) -> None:
        self._sender = threading.Thread(
            target=self._send_loop, name=f"native-send-{self.rank}", daemon=True
        )
        self._sender.start()

    def _send_loop(self) -> None:
        while True:
            try:
                item = self._sendq.get(timeout=self._idle_seconds())
            except queue.Empty:
                try:
                    self._on_send_idle()
                except Exception:
                    # A dead peer fails the *receive* side with a clean
                    # EOF; an idle-time send error adds nothing.
                    pass
                continue
            if item is None:
                return
            peer, msg = item
            if self._wedged:
                pass
            elif msg is None:  # the GOODBYE close() queues last
                try:
                    self._write(peer, frame_parts(KIND_GOODBYE, None))
                except (OSError, CommError):
                    pass  # that peer left already; the others get theirs
            else:
                try:
                    self._transmit(peer, msg)
                except BaseException as exc:  # surface on the main thread
                    with self._send_lock:
                        self._send_error = exc
                        self._send_lock.notify_all()
                    return
            # Drop the message now: its payload can be a view of a whole
            # run chunk, which must not stay resident until the next
            # message comes along.
            item = msg = None
            with self._send_lock:
                self._sent += 1
                self._send_lock.notify_all()

    def _check_open(self) -> None:
        if self._severed:
            raise CommError(
                f"rank {self.rank}: connection severed (chaos)"
            )

    def _transmit(self, peer: int, msg: tuple) -> None:
        """Frame ``msg`` and push it to ``peer`` (sender thread only)."""
        self._write(peer, frame_parts(
            KIND_MSG, msg, fence=self.wire_fence, crc=self.frame_crc
        ))

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

    def _poll_once(self, block_timeout: float) -> bool:
        """Read one frame from every peer whose channel turns readable
        within ``block_timeout`` seconds; True if any was stashed."""
        self._check_interrupt()
        if self.chaos is not None:
            self.chaos.on_recv_poll(self.rank)
        got = False
        for peer in self._ready_peers(max(0.0, block_timeout)):
            got = self._recv_frame(peer) or got
        return got

    def _recv_frame(self, peer: int) -> bool:
        """Read and decode one frame from ``peer``; True if it was stashed.

        The one receive path of every transport: a MSG payload lands in
        its ``alltoall`` slot, a frame of another (job, epoch) is read
        whole and dropped, HEARTBEAT and GOODBYE are consumed here, and
        EOF is a dead PE unless the peer said GOODBYE first.
        """
        def into(epoch, fence, nbytes):
            if fence != self.wire_fence:
                return None  # stale: drained into a fresh buffer
            return self._landing_slot(peer, epoch, nbytes)

        try:
            frame = read_frame(
                lambda view: self._read_into(peer, view), into,
                crc=self.frame_crc,
            )
        except CommTimeout as exc:
            raise CommTimeout(
                f"rank {self.rank}: peer {peer} wedged mid-frame: {exc}"
            ) from exc
        except (CommError, OSError) as exc:
            raise CommError(f"rank {self.rank}: peer {peer}: {exc}") from exc
        if frame is None:
            if peer in self._peer_goodbye:
                # Announced shutdown: the peer finished its protocol and
                # left; everything it sent preceded the GOODBYE (FIFO).
                self._drop_channel(peer)
                return False
            raise CommError(
                f"rank {self.rank}: peer {peer} closed its channel "
                "mid-protocol (dead PE)"
            )
        kind, msg, _epoch, fence, nbytes = frame
        self._on_frame(peer, nbytes)
        if kind == KIND_GOODBYE:
            self._peer_goodbye.add(peer)
            return False
        if kind == KIND_HEARTBEAT:
            return False
        if kind != KIND_MSG:
            raise CommError(
                f"rank {self.rank}: unexpected frame kind {kind} "
                f"from peer {peer}"
            )
        if fence != self.wire_fence:
            # A stale frame from a pre-restart epoch — or, on a warm
            # service pool, from another job entirely: drop it.
            self.fenced_drops += 1
            return False
        self._stash_message(peer, msg)
        return True

    def _landing_slot(
        self, peer: int, epoch: int, nbytes: int
    ) -> Optional[memoryview]:
        """Where ``peer``'s ``nbytes``-byte payload tagged ``epoch`` lands.

        Called for a frame that passed the (job, epoch) fence, after its
        header and before its payload: when an
        ``alltoall(into=...)`` registered a slot for the peer, the payload
        is read straight into it and reattached as the slot itself.
        ``None`` means no slot: read into a fresh buffer.  A payload of
        another size than its slot is a :class:`CommError`, never a
        truncation.  Each slot takes one payload.
        """
        if self._slots is None or self._slots[0] != epoch:
            return None
        slot = self._slots[1].pop(peer, None)
        if slot is not None and nbytes != len(slot):
            raise CommError(
                f"rank {self.rank}: peer {peer} sent a {nbytes}-byte part "
                f"for a {len(slot)}-byte slot"
            )
        return slot

    def _stash_message(self, peer: int, msg: tuple) -> None:
        """Account and park one arrived message."""
        est = payload_bytes(msg)
        if est:
            self.bytes_received += est
            self.wire_recv[self._phase] = self.wire_recv.get(self._phase, 0) + est
            self.peer_recv[peer] = self.peer_recv.get(peer, 0) + est
        self._stash[peer].append(msg)

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent wire traffic to ``phase`` (stats only).

        Phase boundaries are the one place a 1-worker job (no peers, so
        no polls) is sure to pass, so the interrupt is checked here too:
        that bounds how long a cancel can go unnoticed.
        """
        self._check_interrupt()
        self._phase = phase

    def post(self, peer: int, msg: tuple) -> None:
        """Queue a message for ``peer`` (self-sends loop back locally)."""
        self._check_open()
        if self._send_error is not None:
            raise CommError(f"sender thread died: {self._send_error!r}")
        if peer == self.rank:
            self._stash.setdefault(peer, deque()).append(msg)
            return
        est = payload_bytes(msg)
        if est:
            self.bytes_sent += est
            self.wire_sent[self._phase] = self.wire_sent.get(self._phase, 0) + est
            self.peer_sent[peer] = self.peer_sent.get(peer, 0) + est
        self._enqueued += 1
        self._sendq.put((peer, msg))

    def pending_sends(self) -> int:
        """Messages queued but not yet pushed into their channel."""
        with self._send_lock:
            return self._enqueued - self._sent

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every queued message has entered its channel.

        Raises :class:`CommTimeout` — naming how many messages are still
        pending — when the deadline passes first (a wedged peer whose
        channel stopped draining).
        """
        self._check_open()
        deadline = timeout if timeout is not None else self.timeout
        with self._send_lock:
            ok = self._send_lock.wait_for(
                lambda: self._send_error is not None
                or self._sent >= self._enqueued,
                timeout=deadline,
            )
            still_pending = self._enqueued - self._sent
        if self._send_error is not None or not ok:
            # A failed flush fails the collective it completes.
            self._settled = -1
        if self._send_error is not None:
            raise CommError(f"sender thread died: {self._send_error!r}")
        if not ok:
            raise CommTimeout(
                f"rank {self.rank}: flush timed out after {deadline:.1f}s "
                f"with {still_pending} send(s) still pending"
                f"{self._timeout_context()}"
            )

    def close(self) -> None:
        """Say GOODBYE if the protocol completed, then shut down and close.

        1. If no collective failed, queue a GOODBYE to every peer still
           connected behind the queued messages, and flush them all
           within the comm timeout.  A rank whose collective failed
           sends nothing more: its peers see the EOF of a dead PE.
        2. Shut every channel end down.  Its peer sees EOF, and a sender
           blocked on a full channel wakes with an error.
        3. Join the sender thread, once, and close the ends.

        The flush cannot deadlock two closing ranks.  A rank flushes
        only messages of collectives it completed, so a peer that has
        not read them has not completed that collective.  Such a peer is
        still inside it and drains its channels, or it failed in it and
        has shut its ends down.
        """
        if self._closed:
            return
        self._closed = True
        if (self._settled == self._epoch and not self._severed
                and self._send_error is None):
            for peer in self.peers:
                if peer not in self._peer_goodbye:
                    self._enqueued += 1
                    self._sendq.put((peer, None))
            try:
                self.flush()
            except CommError:
                pass
        self._sendq.put(None)
        self._shutdown()
        self._sender.join(self.timeout)
        for end in self._ends():
            try:
                end.close()
            except OSError:
                pass

    def _shutdown(self) -> None:
        """``shutdown(SHUT_RDWR)`` every channel end this rank holds.

        Unlike a close, this acts on the socket itself, whichever
        process holds a copy: the peer reads EOF, and a thread blocked
        writing or polling on the end returns."""
        for end in self._ends():
            try:
                sock = socket.socket(fileno=end.fileno())
            except (OSError, ValueError):
                continue  # closed already
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            finally:
                sock.detach()

    # -- chaos hooks ----------------------------------------------------------

    def sever(self) -> None:
        """Chaos: abruptly drop every peer channel, as a NIC death would.

        Peers observe EOF (a :class:`CommError`); this rank's own next
        comm operation raises :class:`CommError` too, so whichever side
        touches the mesh first reports the failure.
        """
        self._severed = True
        self._sendq.put(None)  # stop the sender even if idle
        self._shutdown()

    def wedge(self) -> None:
        """Chaos: stop draining sends without closing anything.

        The mesh looks alive (no EOF) but this rank's traffic stops
        mid-stream — peers must escalate to :class:`CommTimeout`.
        """
        self._wedged = True
        self._wedge_transport()

    # -- matching receives ----------------------------------------------------

    def recv_match(
        self,
        match: Callable[[int, tuple], bool],
        timeout: Optional[float] = None,
    ) -> Tuple[int, tuple]:
        """Next message satisfying ``match(peer, msg)``, stashing the rest.

        Scans parked messages first (preserving per-peer order), then
        blocks on the transport.  Raises :class:`CommTimeout` when
        nothing matching arrives in time.
        """
        self._check_open()
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        while True:
            for peer, dq in self._stash.items():
                for i, msg in enumerate(dq):
                    if match(peer, msg):
                        del dq[i]
                        return peer, msg
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommTimeout(
                    f"rank {self.rank}: timed out waiting for a matching "
                    f"message{self._timeout_context()}"
                )
            if self._send_error is not None:
                raise CommError(f"sender thread died: {self._send_error!r}")
            self._poll_once(min(0.25, remaining))

    def try_recv_match(
        self, match: Callable[[int, tuple], bool]
    ) -> Optional[Tuple[int, tuple]]:
        """Non-blocking :meth:`recv_match` (one poll, no waiting)."""
        self._check_open()
        for peer, dq in self._stash.items():
            for i, msg in enumerate(dq):
                if match(peer, msg):
                    del dq[i]
                    return peer, msg
        if self._poll_once(0.0):
            for peer, dq in self._stash.items():
                for i, msg in enumerate(dq):
                    if match(peer, msg):
                        del dq[i]
                        return peer, msg
        return None

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> None:
        """Wait until every worker reached this point."""
        self.allgather(None)

    @property
    def collectives(self) -> int:
        """Collective epochs entered so far (every collective adds one)."""
        return self._epoch

    def _round(self, tag: str, parts: Sequence) -> List:
        """One collective epoch: ``parts[d]`` to every peer d, one message
        each; returns what every rank addressed to this one, in rank order."""
        self._epoch += 1
        epoch = self._epoch
        out: List = [None] * self.n_workers
        out[self.rank] = parts[self.rank]
        for peer in self.peers:
            self.post(peer, (tag, epoch, parts[peer]))
        need = set(self.peers)
        while need:
            peer, msg = self.recv_match(
                lambda p, m: p in need and m[0] == tag and m[1] == epoch
            )
            out[peer] = msg[2]
            need.discard(peer)
        self._settled = epoch
        return out

    def allgather(self, obj) -> List:
        """Everyone contributes ``obj``; everyone gets the rank-ordered list."""
        return self._round("__ag__", [obj] * self.n_workers)

    def allgather_parts(self, parts: Sequence) -> List[List]:
        """:meth:`allgather` of a list, one message per part.

        Everyone gets every rank's list, in rank order, in one epoch.
        The parts travel and arrive one by one, so no send or receive
        buffer holds a whole list: for block-sized key arrays the memory
        high-water stays a block's, not the list's.
        """
        self._epoch += 1
        epoch = self._epoch
        parts = list(parts)
        out: List[List] = [[] for _ in range(self.n_workers)]
        out[self.rank] = parts
        for peer in self.peers:
            for part in parts or [None]:
                self.post(peer, ("__agp__", epoch, len(parts), part))
        for peer in self.peers:
            def match(p, m, peer=peer):
                return p == peer and m[0] == "__agp__" and m[1] == epoch
            _p, (_tag, _epoch, count, part) = self.recv_match(match)
            got = [part] if count else []
            while len(got) < count:
                got.append(self.recv_match(match)[1][3])
            out[peer] = got
        self._settled = epoch
        return out

    def alltoall(
        self, parts: Sequence, into: Optional[Sequence] = None
    ) -> List:
        """Personalized all-to-all in one round: ``parts[d]`` goes to rank d.

        Returns the part every rank addressed to this one, in rank order;
        the own part is delivered locally (and counted in
        :attr:`local_bytes`, as :meth:`exchange` counts self-deliveries).
        It may be any object: one that is not bytes-like (a record array
        or batch never put in wire form) counts its ``nbytes``.
        One epoch and exactly one message per peer: no end-of-stream
        markers, no flush and no closing barrier — the epoch tag alone
        keeps a fast peer's next collective apart.  Nothing bounds the
        bytes in flight, so this is for data the caller already holds in
        memory; disk-backed streams go through :meth:`exchange`.

        With ``into`` — one writable buffer per rank, each exactly as
        large as the bytes-like part that rank sends here — the parts
        land in those buffers and ``into`` is returned.  The own part is
        copied into its slot; a peer's payload is read straight into its
        slot, and one that arrived early, before the slot existed, is
        copied into it.  A part of another size is a :class:`CommError`.

        The call returns without a flush: the sender thread may still
        hold ``parts``, so the caller must :meth:`flush` before it
        writes into their memory again.
        """
        if len(parts) != self.n_workers:
            raise ValueError(
                f"alltoall needs {self.n_workers} parts, got {len(parts)}"
            )
        own = parts[self.rank]
        est = payload_bytes(own) or int(getattr(own, "nbytes", 0))
        if est:
            self.local_bytes[self._phase] = self.local_bytes.get(self._phase, 0) + est
        if into is None:
            return self._round("__a2a__", parts)
        if len(into) != self.n_workers:
            raise ValueError(
                f"alltoall needs {self.n_workers} slots, got {len(into)}"
            )
        slots = [memoryview(buf).cast("B") for buf in into]
        own = memoryview(own).cast("B")
        if len(own) != len(slots[self.rank]):
            raise ValueError(
                f"own part of {len(own)} bytes for a "
                f"{len(slots[self.rank])}-byte slot"
            )
        slots[self.rank][:] = own
        self._slots = (self._epoch + 1, {p: slots[p] for p in self.peers})
        try:
            got = self._round("__a2a__", parts)
        finally:
            self._slots = None
        for peer in self.peers:
            if got[peer] is not slots[peer]:
                buf = memoryview(got[peer]).cast("B")
                if len(buf) != len(slots[peer]):
                    raise CommError(
                        f"rank {self.rank}: peer {peer} sent a {len(buf)}-"
                        f"byte part for a {len(slots[peer])}-byte slot"
                    )
                slots[peer][:] = buf
        return list(into)

    def allreduce(self, value, op: Callable) -> object:
        """Reduce ``value`` over all workers with binary ``op``."""
        values = self.allgather(value)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    # -- bulk chunked all-to-all ----------------------------------------------

    def exchange(
        self,
        outgoing: Iterable[Tuple[int, tuple]],
        on_chunk: Callable[[int, tuple], None],
    ) -> None:
        """Chunked, bounded-memory all-to-all for streams read from disk.

        ``outgoing`` lazily yields ``(dest, payload_msg)`` pairs; payloads
        destined for *this* rank are delivered directly.  ``on_chunk(peer,
        payload_msg)`` consumes arrivals (e.g. writes them to a spill
        file).  The producer iterator is only advanced while the send
        queue is short, so at most ``max_pending_sends`` chunks of record
        data sit in user-space buffers at any time.

        Completion: each worker sends an end-of-stream marker to every
        peer after its last chunk; the call returns once all markers are
        in, all local sends are flushed, and a closing barrier passes.
        """
        self._check_open()
        self._epoch += 1
        epoch = self._epoch
        it: Iterator[Tuple[int, tuple]] = iter(outgoing)
        producing = True
        eof_from = set()
        peers = set(self.peers)
        deadline = time.monotonic() + self.timeout

        def is_mine(p: int, m: tuple) -> bool:
            return m[0] in ("__xch__", "__xeof__") and m[1] == epoch

        while True:
            if time.monotonic() > deadline:
                owing = sorted(peers - eof_from)
                raise CommTimeout(
                    f"rank {self.rank}: exchange made no progress for "
                    f"{self.timeout:.0f}s; peers {owing} never finished "
                    f"their stream (stalled or dead PE)"
                    f"{self._timeout_context()}"
                )
            # Drain everything receivable right now.
            while True:
                got = self.try_recv_match(is_mine)
                if got is None:
                    break
                deadline = time.monotonic() + self.timeout
                peer, msg = got
                if msg[0] == "__xeof__":
                    eof_from.add(peer)
                else:
                    on_chunk(peer, msg[2])
            # Feed the sender while there is room.
            while producing and self.pending_sends() < self.max_pending_sends:
                try:
                    dest, payload = next(it)
                except StopIteration:
                    producing = False
                    for peer in peers:
                        self.post(peer, ("__xeof__", epoch))
                    break
                if dest == self.rank:
                    est = payload_bytes(payload)
                    if est:
                        self.local_bytes[self._phase] = (
                            self.local_bytes.get(self._phase, 0) + est
                        )
                    on_chunk(self.rank, payload)
                else:
                    self.post(dest, ("__xch__", epoch, payload))
            if not producing and eof_from == peers:
                break
            if peers or producing:
                # Nothing immediately actionable: wait briefly for traffic.
                if producing and self.pending_sends() >= self.max_pending_sends:
                    self._poll_once(0.005)
                elif peers and eof_from != peers:
                    self._poll_once(0.05)
            else:
                break
        self.flush()
        self.barrier()


# Imported last: the package init of repro.net pulls in TcpComm, which
# subclasses MeshComm, and framing itself imports this module's errors.
from ..net.framing import (  # noqa: E402
    KIND_GOODBYE,
    KIND_HEARTBEAT,
    KIND_MSG,
    frame_parts,
    read_frame,
)
