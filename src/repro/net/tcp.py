"""TCP transport: CANONICALMERGESORT's interconnect over real sockets.

:class:`TcpComm` is the multi-host sibling of
:class:`repro.native.comm.PipeComm`: the same
:class:`~repro.native.comm_api.MeshComm` core (collectives, stash,
chunked exchange, sender thread), with the two channel
primitives implemented over a full mesh of connected TCP sockets (built
by :func:`repro.net.rendezvous.join_mesh`) and the framing of
:mod:`repro.net.framing`.

Beyond the pipe transport it adds what a real network needs:

* **Heartbeats** — whenever the sender thread has been idle for
  ``heartbeat_s``, it pushes a tiny HEARTBEAT frame to every peer.
  Heartbeats refresh the receiver's ``last_heard`` clock and are
  otherwise invisible (never stashed, never matched).  A
  :class:`~repro.native.comm_api.CommTimeout` therefore names which
  peers have gone silent — distinguishing "the protocol is stuck" from
  "the peer is gone".
* **Idle timeouts** — a peer that stops mid-frame (wedged socket, dead
  NIC with the connection still open) trips the per-socket receive
  timeout and surfaces as :class:`CommTimeout`; a closed connection
  surfaces immediately as :class:`CommError`.  Never a hang.
* **True wire accounting** — ``socket_bytes_sent`` / ``_received``
  count every byte pushed to and pulled from the kernel, framing
  included, alongside the payload-estimate accounting of the core.
  The gap between the two is the transport's measured overhead (the
  o(N) part of the paper's N + o(N) story, on a real wire).
"""

from __future__ import annotations

import select
import socket
import time
from typing import Dict

from ..native.comm_api import (
    DEFAULT_PENDING_SENDS,
    DEFAULT_TIMEOUT,
    CommError,
    CommTimeout,
    MeshComm,
)
from .framing import (
    FRAME_HEADER,
    KIND_GOODBYE,
    KIND_HEARTBEAT,
    KIND_MSG,
    MAGIC,
    VERSION,
    recv_frame,
    send_frame,
)

__all__ = ["TcpComm", "DEFAULT_HEARTBEAT_S"]

#: Default sender-idle interval between heartbeat frames.
DEFAULT_HEARTBEAT_S = 5.0


class TcpComm(MeshComm):
    """Point-to-point and collective communication over a socket mesh."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        socks: Dict[int, socket.socket],
        timeout: float = DEFAULT_TIMEOUT,
        pending_sends: int = DEFAULT_PENDING_SENDS,
        chaos=None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        job_epoch: int = 0,
        job_tag: int = 0,
    ):
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.socks = socks
        self.heartbeat_s = heartbeat_s
        super().__init__(
            rank,
            n_workers,
            peers=list(socks),
            timeout=timeout,
            pending_sends=pending_sends,
            chaos=chaos,
            job_epoch=job_epoch,
            job_tag=job_tag,
        )
        for sock in socks.values():
            sock.settimeout(None)
        #: Monotonic timestamp of the last frame (any kind) per peer.
        self.last_heard: Dict[int, float] = {
            p: time.monotonic() for p in self.peers
        }
        #: Kernel-level byte counts, framing included (payload-estimate
        #: counts live on the MeshComm core).
        self.socket_bytes_sent = 0
        self.socket_bytes_received = 0
        #: Peers that announced a deliberate close (GOODBYE): their later
        #: EOF is a normal shutdown, not a dead PE.
        self._peer_goodbye = set()
        self._start_sender()

    # -- channel primitives ---------------------------------------------------

    def _transmit(self, peer: int, msg: tuple) -> None:
        self.socket_bytes_sent += send_frame(
            self.socks[peer], KIND_MSG, msg, fence=self.wire_fence
        )

    def _poll_once(self, block_timeout: float) -> bool:
        self._chaos_poll()
        if not self.socks:
            return False
        try:
            ready, _, _ = select.select(
                list(self.socks.values()), [], [], max(0.0, block_timeout)
            )
        except (OSError, ValueError) as exc:
            raise CommError(
                f"rank {self.rank}: mesh socket died: {exc!r}"
            ) from exc
        if not ready:
            return False
        by_sock = {s: p for p, s in self.socks.items()}
        got = False
        for sock in ready:
            peer = by_sock[sock]
            # A readable socket still bounds each frame read: a peer
            # that sent a header and then stopped is wedged, and must
            # surface as CommTimeout, not block forever.
            sock.settimeout(self.timeout)

            def into(epoch, fence, nbytes, peer=peer):
                if fence != self.wire_fence:
                    return None  # stale: drained into a fresh buffer
                return self._landing_slot(peer, epoch, nbytes)

            try:
                frame = recv_frame(sock, into)
            except CommTimeout as exc:
                raise CommTimeout(
                    f"rank {self.rank}: peer {peer} wedged mid-frame: {exc}"
                ) from exc
            except CommError as exc:
                raise CommError(f"rank {self.rank}: peer {peer}: {exc}") from exc
            finally:
                try:
                    sock.settimeout(None)
                except OSError:
                    pass
            if frame is None:
                if peer in self._peer_goodbye:
                    # Announced shutdown: the peer finished its protocol
                    # and left.  Drop the channel; anything we still
                    # needed from it would already be in flight (TCP is
                    # FIFO, so all its messages preceded the GOODBYE).
                    del self.socks[peer]
                    try:
                        sock.close()
                    except OSError:
                        pass
                    continue
                raise CommError(
                    f"rank {self.rank}: peer {peer} closed the connection "
                    "mid-protocol (dead PE)"
                )
            kind, msg, _epoch, fence, nbytes = frame
            self.socket_bytes_received += nbytes
            self.last_heard[peer] = time.monotonic()
            if kind == KIND_GOODBYE:
                self._peer_goodbye.add(peer)
                continue
            if kind == KIND_HEARTBEAT:
                continue
            if kind != KIND_MSG:
                raise CommError(
                    f"rank {self.rank}: unexpected frame kind {kind} "
                    f"from peer {peer}"
                )
            if fence != self.wire_fence:
                # Stale frame from a pre-restart epoch — or, on a warm
                # service pool, from another job entirely: drop it.
                self.fenced_drops += 1
                continue
            self._stash_message(peer, msg)
            got = True
        return got

    # -- heartbeats -----------------------------------------------------------

    def _idle_seconds(self) -> float:
        return self.heartbeat_s

    def _on_send_idle(self) -> None:
        if self._wedged or self._severed:
            return
        for sock in list(self.socks.values()):
            try:
                self.socket_bytes_sent += send_frame(sock, KIND_HEARTBEAT, None)
            except OSError:
                pass  # the receive side reports the dead peer cleanly

    def _timeout_context(self) -> str:
        now = time.monotonic()
        silent = [
            (peer, now - heard)
            for peer, heard in sorted(self.last_heard.items())
            if now - heard > 2 * self.heartbeat_s
        ]
        if not silent:
            return " (all peers recently heard from: protocol stall)"
        listing = ", ".join(f"{p} ({age:.1f}s ago)" for p, age in silent)
        return f"; peers silent past the heartbeat: {listing}"

    # -- lifecycle / chaos ----------------------------------------------------

    def _close_transport(self) -> None:
        # Announce the close first: peers still mid-protocol must be able
        # to tell this deliberate shutdown from a dead PE's silent EOF.
        # A peer that stopped draining may have left the socket buffer
        # full (with the sender thread wedged mid-write), so the goodbye
        # is time-bounded rather than blocking.
        for sock in list(self.socks.values()):
            try:
                sock.settimeout(1.0)
                self.socket_bytes_sent += send_frame(sock, KIND_GOODBYE, None)
            except OSError:
                pass
        for sock in list(self.socks.values()):
            try:
                # shutdown() — unlike close() — wakes a sender thread
                # still blocked in sendmsg on this socket (its write
                # fails with EPIPE), so shutdown's join can reap it.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.socks.clear()

    def _sever_transport(self) -> None:
        # No GOODBYE — a sever *is* the silent network loss peers must
        # diagnose as a dead PE.
        for sock in list(self.socks.values()):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.socks.clear()

    def _wedge_transport(self) -> None:
        # A valid header promising meta bytes that will never arrive:
        # every peer's next poll blocks mid-frame until its receive
        # timeout escalates to CommTimeout.
        header = FRAME_HEADER.pack(
            MAGIC, VERSION, KIND_MSG, 0, self.job_epoch & 0xFF,
            self.job_tag & 0xFFFFFFFF, 0, 1024, 0, 0
        )
        for sock in self.socks.values():
            try:
                sock.sendall(header)
            except OSError:
                pass
