"""TCP transport: CANONICALMERGESORT's interconnect over real sockets.

:class:`TcpComm` is the multi-host sibling of
:class:`repro.native.comm.PipeComm`: a socket is a file descriptor too,
so it is the same byte channel over a full mesh of connected TCP
sockets (built by :func:`repro.net.rendezvous.join_mesh`), carrying the
same :mod:`repro.net.framing` frames, which :class:`MeshComm` encodes
and decodes.  Its frames carry a CRC (``FLAG_CRC``), a pipe's do not.

Beyond the pipe transport it adds what a real network needs:

* **Heartbeats** — whenever the sender thread has been idle for
  ``heartbeat_s``, it pushes a tiny HEARTBEAT frame to every peer.
  Heartbeats refresh the receiver's ``last_heard`` clock and are
  otherwise invisible (never stashed, never matched).  A
  :class:`~repro.native.comm_api.CommTimeout` therefore names which
  peers have gone silent — distinguishing "the protocol is stuck" from
  "the peer is gone".
* **True wire accounting** — ``socket_bytes_sent`` / ``_received``
  count every byte pushed to and pulled from the kernel, framing
  included, alongside the payload-estimate accounting of the core.
  The gap between the two is the transport's measured overhead (the
  o(N) part of the paper's N + o(N) story, on a real wire).
"""

from __future__ import annotations

import socket
import time
from typing import Dict

from ..native.comm import PipeComm
from ..native.comm_api import DEFAULT_PENDING_SENDS, DEFAULT_TIMEOUT
from .framing import (
    FRAME_HEADER,
    KIND_HEARTBEAT,
    KIND_MSG,
    MAGIC,
    VERSION,
    frame_parts,
    write_parts,
)

__all__ = ["TcpComm", "DEFAULT_HEARTBEAT_S"]

#: Default sender-idle interval between heartbeat frames.
DEFAULT_HEARTBEAT_S = 5.0


class TcpComm(PipeComm):
    """Point-to-point and collective communication over a socket mesh."""

    frame_crc = True

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
        interrupt=None,
        interrupt_tag: int = 0,
    ):
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.socks = socks
        self.heartbeat_s = heartbeat_s
        for sock in socks.values():
            sock.settimeout(None)
        #: Monotonic timestamp of the last frame (any kind) per peer.
        self.last_heard: Dict[int, float] = {
            p: time.monotonic() for p in socks
        }
        #: Kernel-level byte counts, framing included (payload-estimate
        #: counts live on the MeshComm core).
        self.socket_bytes_sent = 0
        self.socket_bytes_received = 0
        super().__init__(
            rank,
            n_workers,
            socks,
            timeout=timeout,
            chaos=chaos,
            pending_sends=pending_sends,
            job_epoch=job_epoch,
            job_tag=job_tag,
            interrupt=interrupt,
            interrupt_tag=interrupt_tag,
        )

    # -- byte channel ---------------------------------------------------------

    def _write(self, peer: int, parts: list) -> None:
        self.socket_bytes_sent += write_parts(self.socks[peer].sendmsg, parts)

    def _on_frame(self, peer: int, nbytes: int) -> None:
        self.socket_bytes_received += nbytes
        self.last_heard[peer] = time.monotonic()

    # -- heartbeats -----------------------------------------------------------

    def _idle_seconds(self) -> float:
        return self.heartbeat_s

    def _on_send_idle(self) -> None:
        if self._wedged or self._severed or self._closed:
            return
        for peer in list(self.socks):
            try:
                self._write(peer, frame_parts(KIND_HEARTBEAT, None))
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

    # -- chaos ----------------------------------------------------------------

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
