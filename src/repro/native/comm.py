"""Pipe transport for native worker processes: a full mesh of pipes.

This module plays the role :mod:`repro.cluster.mpi` plays for the
simulator — collectives and point-to-point transfers between PEs — but
over real :mod:`multiprocessing` pipes between real processes on one
host.  All protocol logic (collectives, stash-aware receives, the
chunked exchange, the sender thread) lives in
:class:`repro.native.comm_api.MeshComm`; :class:`PipeComm` contributes
only the pipe-specific channel primitives.  :class:`repro.net.tcp.TcpComm`
is the multi-host sibling over the same core.

Design notes
------------

* **One duplex pipe per worker pair.**  Per-channel FIFO ordering is the
  backbone of the protocols: a message posted after a phase's last
  message can never overtake it, so phases separated by collectives need
  no global sequencing, only per-message epoch tags as a safety check.

* **A single sender thread per worker.**  ``Connection.send`` blocks when
  the OS pipe fills; if every worker blocked sending into a full pipe
  while its own inbox backed up, the mesh would deadlock.  All sends are
  therefore executed by a background thread fed from a queue, and the
  main thread is always free to drain incoming traffic.  The bulk
  exchange additionally keeps the queue short (``pending_sends``,
  default :data:`PENDING_SENDS`) so the amount of record data parked in
  user space stays bounded — the external-memory discipline extends to
  the interconnect.

* **Record bytes are never pickled.**  A message's trailing buffer (the
  one :func:`repro.net.framing.split_raw_nested` peels for the TCP and
  shm frames) travels as a raw ``send_bytes`` message right behind the
  pickled rest, so pipes, sockets and rings all deliver a run's slice
  without serializing it.  The receiver reads that message's length
  header itself and ``os.readv``-s the body straight into its
  destination — an ``alltoall`` landing slot when one is registered —
  instead of ``Connection.recv_bytes``, which assembles the body in a
  ``BytesIO`` and copies it out again.

* **Stash-aware receives.**  A fast peer may already be sending its next
  phase's traffic while a slow peer still owes this phase's message.
  :meth:`MeshComm.recv_match` parks non-matching messages per peer and
  replays them in order, which keeps every protocol loop simple and
  starvation-free.
"""

from __future__ import annotations

import os
import struct
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Dict, Optional

from ..net.framing import reattach_payload, split_raw_nested
from .comm_api import (
    DEFAULT_PENDING_SENDS,
    DEFAULT_TIMEOUT,
    CommError,
    CommTimeout,
    JobInterrupted,
    MeshComm,
    message_epoch,
)

__all__ = [
    "PipeComm",
    "CommError",
    "CommTimeout",
    "JobInterrupted",
    "DEFAULT_TIMEOUT",
    "PENDING_SENDS",
]

#: Backwards-compatible name for the default exchange backpressure bound
#: (now per-job via ``NativeJob.pending_sends``).
PENDING_SENDS = DEFAULT_PENDING_SENDS


class PipeComm(MeshComm):
    """Point-to-point and collective communication over a pipe mesh."""

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
        #: Service interrupt channel: the warm pool hands each worker a
        #: pipe the scheduler writes dispatch tags into to abort the job
        #: currently running (cancel, or a peer rank failed).  Checked
        #: at every poll and every phase boundary; a matching tag raises
        #: :class:`JobInterrupted`.  Tags for *other* dispatches (a
        #: cancel that raced the job's own completion) are drained and
        #: ignored.
        self._interrupt = interrupt
        self._interrupt_tag = int(interrupt_tag)
        super().__init__(
            rank,
            n_workers,
            peers=list(conns),
            timeout=timeout,
            pending_sends=pending_sends,
            chaos=chaos,
            job_epoch=job_epoch,
            job_tag=job_tag,
        )
        self._start_sender()

    # -- channel primitives ---------------------------------------------------

    def _transmit(self, peer: int, msg: tuple) -> None:
        # Pipes have no frame header, so the composite (job, epoch)
        # fence wraps the pickled part of the message: (fence, meta,
        # nested).  Record bytes never go through pickle: the buffer the
        # TCP and shm framing would peel off follows as one raw
        # ``send_bytes`` message (zero-copy from the caller's memory),
        # and ``nested`` — None when there is none — says where the
        # receiver reattaches it.  Both writes happen in this one call,
        # so a wedge (which stops the sender between calls) can never
        # split a message from its payload.
        meta, payload, nested = split_raw_nested(msg)
        conn = self.conns[peer]
        conn.send((self.wire_fence, meta, None if payload is None else nested))
        if payload is not None:
            conn.send_bytes(payload)

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
        # Phase boundaries are the one place a 1-worker job (no peers,
        # so no polls) is guaranteed to pass through; checking here
        # bounds how long a cancel can go unnoticed on any pool worker.
        self._check_interrupt()
        super().set_phase(phase)

    def _poll_once(self, block_timeout: float) -> bool:
        """Pull every immediately available message into the stash."""
        self._check_interrupt()
        wait_on = list(self.conns.values())
        if self._interrupt is not None:
            wait_on.append(self._interrupt)
        if not wait_on:
            return False
        self._chaos_poll()
        ready = conn_wait(wait_on, timeout=block_timeout)
        if not ready:
            return False
        by_conn = {id(c): p for p, c in self.conns.items()}
        got = False
        for conn in ready:
            if self._interrupt is not None and conn is self._interrupt:
                self._check_interrupt()
                continue
            peer = by_conn[id(conn)]
            try:
                fence, msg, nested = conn.recv()
                # The raw payload is read even for a frame about to be
                # fenced off: it is part of the same message, and leaving
                # it in the pipe would desynchronize the stream.
                payload = None
                if nested is not None:
                    payload = self._recv_payload(conn, peer, fence, msg, nested)
            except EOFError as exc:
                raise CommError(
                    f"rank {self.rank}: peer {peer} closed its pipe"
                ) from exc
            if fence != self.wire_fence:
                # A stale frame from a pre-restart epoch — or another
                # job's dispatch on a warm pool: fence it off.
                self.fenced_drops += 1
                continue
            if payload is not None:
                msg = reattach_payload(msg, payload, nested)
            self._stash_message(peer, msg)
            got = True
        return got

    def _recv_payload(self, conn: Connection, peer: int, fence: int, msg,
                      nested: bool):
        """Read the raw ``send_bytes`` message behind ``msg``: into its
        landing slot when it is a fenced-in ``alltoall`` part with one,
        else into a fresh ``bytearray``."""
        fd = conn.fileno()
        (size,) = struct.unpack("!i", _read_exact(fd, bytearray(4)))
        if size == -1:  # Connection's header for bodies past 2 GiB
            (size,) = struct.unpack("!Q", _read_exact(fd, bytearray(8)))
        slot = None
        if fence == self.wire_fence and not nested:
            slot = self._landing_slot(peer, message_epoch(msg), size)
        return _read_exact(fd, bytearray(size) if slot is None else slot)

    def _close_transport(self) -> None:
        # Closing the pipe ends here is what reaps a sender thread still
        # blocked in Connection.send to a peer that stopped draining (a
        # collective raised mid-exchange): its write fails immediately
        # and the thread exits instead of leaking with the fds pinned.
        for conn in self.conns.values():
            try:
                conn.close()
            except OSError:
                pass

    def _sever_transport(self) -> None:
        for conn in self.conns.values():
            try:
                conn.close()
            except OSError:
                pass


def _read_exact(fd: int, buf):
    """Fill ``buf`` from the pipe ``fd``; returns ``buf``.  EOF first is
    an ``EOFError``, as it is for ``Connection.recv``."""
    view = memoryview(buf)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError("pipe closed mid-message")
        view = view[got:]
    return buf
