"""Pipe transport for native worker processes: a full mesh of pipes.

This module plays the role :mod:`repro.cluster.mpi` plays for the
simulator — collectives and point-to-point transfers between PEs — but
over real :mod:`multiprocessing` pipes between real processes on one
host.  All protocol logic (collectives, stash-aware receives, the
chunked exchange, the sender thread, the frame codec) lives in
:class:`repro.native.comm_api.MeshComm`; :class:`PipeComm` contributes
only the byte channel: a file descriptor per peer.
:class:`repro.net.tcp.TcpComm` is the multi-host sibling over sockets,
which are file descriptors too.

Design notes
------------

* **One duplex pipe per worker pair.**  Per-channel FIFO ordering is the
  backbone of the protocols: a message posted after a phase's last
  message can never overtake it, so phases separated by collectives need
  no global sequencing, only per-message epoch tags as a safety check.

* **A single sender thread per worker.**  A write blocks when the OS
  pipe fills; if every worker blocked sending into a full pipe while its
  own inbox backed up, the mesh would deadlock.  All sends are therefore
  executed by a background thread fed from a queue, and the main thread
  is always free to drain incoming traffic.  The bulk exchange
  additionally keeps the queue short (``pending_sends``, default
  :data:`~repro.native.comm_api.DEFAULT_PENDING_SENDS`) so the amount of
  record data parked in user space stays bounded — the external-memory
  discipline extends to the interconnect.

* **Frames straight onto the fd.**  Each message is one
  :mod:`repro.net.framing` frame, gather-written with ``os.writev``
  from the caller's memory, record bytes included, and read back with
  ``os.readv`` — a payload straight into its ``alltoall`` landing slot
  when one is registered.  ``multiprocessing``'s own message layer is
  never used.  Each read waits at most the comm timeout, so a peer that
  stops mid-frame is a :class:`CommTimeout`, not a hang.

* **Socket ends.**  A duplex ``multiprocessing`` pipe end is one end of
  an ``AF_UNIX`` socketpair, so :meth:`MeshComm.close` shuts pipe and
  tcp channels down the same way: ``shutdown(SHUT_RDWR)`` is EOF at the
  peer and wakes a sender blocked on a full channel.

* **Stash-aware receives.**  A fast peer may already be sending its next
  phase's traffic while a slow peer still owes this phase's message.
  :meth:`MeshComm.recv_match` parks non-matching messages per peer and
  replays them in order, which keeps every protocol loop simple and
  starvation-free.
"""

from __future__ import annotations

import os
import select
from multiprocessing.connection import Connection
from typing import Dict, List, Optional

from ..net.framing import write_parts
from .comm_api import (
    DEFAULT_PENDING_SENDS,
    DEFAULT_TIMEOUT,
    CommError,
    CommTimeout,
    JobInterrupted,
    MeshComm,
)

__all__ = [
    "PipeComm",
    "CommError",
    "CommTimeout",
    "JobInterrupted",
    "DEFAULT_TIMEOUT",
]


class PipeComm(MeshComm):
    """Point-to-point and collective communication over a pipe mesh.

    ``conns`` maps every peer to this rank's end of their channel: any
    connected stream socket with a ``fileno()`` and a ``close()`` (a
    duplex ``multiprocessing`` pipe end here, a TCP socket for
    :class:`TcpComm`).
    """

    def __init__(
        self,
        rank: int,
        n_workers: int,
        conns: Dict[int, Connection],
        timeout: float = DEFAULT_TIMEOUT,
        chaos=None,
        pending_sends: int = DEFAULT_PENDING_SENDS,
        job_epoch: int = 0,
        job_tag: int = 0,
        interrupt: Optional[Connection] = None,
        interrupt_tag: int = 0,
    ):
        self.conns = conns
        self._fds = {p: c.fileno() for p, c in conns.items()}
        #: One poll set per peer (a frame read waits on its peer alone)
        #: and one over every peer plus the interrupt channel.
        self._pollers = {}
        self._any = select.poll()
        self._peer_of = {}
        for peer, fd in self._fds.items():
            self._pollers[peer] = select.poll()
            self._pollers[peer].register(fd, select.POLLIN)
            self._any.register(fd, select.POLLIN)
            self._peer_of[fd] = peer
        if interrupt is not None:
            self._any.register(interrupt.fileno(), select.POLLIN)
        super().__init__(
            rank,
            n_workers,
            peers=list(conns),
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
        # fileno() raises once the end is closed, so a sender thread that
        # outlives close() fails instead of writing to a reused fd number.
        fd = self.conns[peer].fileno()
        write_parts(lambda views: os.writev(fd, views), parts)

    def _read_into(self, peer: int, view: memoryview) -> int:
        if not self._pollers[peer].poll(self.timeout * 1000):
            raise TimeoutError(f"nothing from peer {peer} for {self.timeout}s")
        return os.readv(self._fds[peer], [view])

    def _ready_peers(self, timeout: float) -> List[int]:
        if not self._peer_of and self._interrupt is None:
            return []
        return [self._peer_of[fd] for fd, _ev in self._any.poll(timeout * 1000)
                if fd in self._peer_of]

    def _drop_channel(self, peer: int) -> None:
        fd = self._fds.pop(peer)
        self._any.unregister(fd)
        del self._peer_of[fd], self._pollers[peer]
        try:
            self.conns.pop(peer).close()
        except OSError:
            pass

    def _ends(self) -> list:
        return list(self.conns.values())
