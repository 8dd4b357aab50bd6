"""Rendezvous: how independent worker processes become a full TCP mesh.

One listening endpoint (the driver's :class:`Coordinator`) bootstraps
everything:

1. every worker opens its *own* ephemeral mesh listener, then dials the
   coordinator (with jittered exponential backoff — workers may start
   before the coordinator, or race its ``listen``);
2. the worker sends ``HELLO(rank, (host, port))`` announcing
   its rank and where its mesh listener can be reached.  The advertised
   host is the address the coordinator connection uses locally, so it is
   reachable from the coordinator's side of the network by construction;
3. once all ``n_workers`` ranks are present, the coordinator answers
   every worker with ``WELCOME(n_workers, table, job)`` — the full
   rank → address table, plus the pickled job (a worker never holds the
   job before the handshake, spawned or launched bare as ``python -m
   repro worker``).  On a recovery restart (``job.epoch > 0``) the
   reply is a ``RESUME`` frame instead, carrying the same table and job
   plus the manifest digest the rejoining worker's on-disk journal must
   match;
4. each worker builds the mesh with a deterministic tie-break: rank i
   **dials** every rank j > i (``MESH(i)`` announces the dialer) and
   **accepts** from every rank j < i.  Dial-all-then-accept-all cannot
   deadlock: every listener is already bound before the table is
   published, and a TCP accept queue completes handshakes whether or
   not ``accept()`` has been called yet.

The coordinator connection stays open after rendezvous and becomes the
worker's **result channel** (:class:`ResultChannel`) — the TCP
equivalent of the pipe a same-host worker reports its stats or
traceback on, with the same object surface on both ends, so the
driver's one fail-fast result collector and the chaos harness's
torn/wedged-result faults apply unchanged.
"""

from __future__ import annotations

import random
import select
import socket
import time
from typing import Callable, Dict, Optional, Tuple

from ..native.comm_api import CommError, CommTimeout, pack_fence
from ..recovery.manifest import job_fingerprint
from .framing import (
    KIND_GOODBYE,
    KIND_HELLO,
    KIND_MESH,
    KIND_RESULT,
    KIND_RESUME,
    KIND_WELCOME,
    recv_frame,
    send_frame,
    send_raw_frame,
)

__all__ = [
    "parse_hostport",
    "backoff_delays",
    "connect_with_backoff",
    "Coordinator",
    "join_mesh",
    "ResultChannel",
]

#: Per-attempt connect timeout while backing off toward the deadline.
_ATTEMPT_TIMEOUT = 5.0

#: Handshake frames are tiny; a peer that takes longer than this to
#: complete one is wedged, not slow.
_HANDSHAKE_TIMEOUT = 30.0


def parse_hostport(text: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """``"host:port"`` or bare ``"port"`` → ``(host, port)``."""
    text = text.strip()
    host, sep, port_s = text.rpartition(":")
    if not sep:
        host, port_s = default_host, text
    if not host:
        host = default_host
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"invalid port in {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in {text!r}")
    return host, port


def backoff_delays(
    rng: Optional[random.Random] = None,
    base: float = 0.05,
    factor: float = 2.0,
    cap: float = 2.0,
):
    """Jittered exponential backoff delays: base·factor^k, capped, ±50%.

    The jitter keeps a gang of workers restarted together from hammering
    the coordinator in lockstep.
    """
    if rng is None:
        rng = random.Random()
    delay = base
    while True:
        yield delay * rng.uniform(0.5, 1.5)
        delay = min(cap, delay * factor)


def connect_with_backoff(
    addr: Tuple[str, int],
    deadline: float,
    rng: Optional[random.Random] = None,
    what: str = "peer",
) -> socket.socket:
    """Dial ``addr`` until it answers or ``deadline`` (monotonic) passes.

    The deadline caps *total* dial time across all backoff attempts — a
    never-listening address fails with :class:`CommTimeout` naming
    ``what`` (e.g. ``"coordinator"``) and the address, rather than
    retrying forever.
    """
    delays = backoff_delays(rng)
    last_error: Optional[Exception] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise CommTimeout(
                f"could not connect to {what} at {addr[0]}:{addr[1]} "
                f"before the dial deadline (last error: {last_error!r})"
            )
        try:
            sock = socket.create_connection(
                addr, timeout=min(_ATTEMPT_TIMEOUT, remaining)
            )
            sock.settimeout(None)
            _set_nodelay(sock)
            return sock
        except OSError as exc:
            last_error = exc
        time.sleep(min(next(delays), max(0.0, deadline - time.monotonic())))


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle; small protocol messages must not wait for ACKs."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not a TCP socket (AF_UNIX test meshes)


class Coordinator:
    """The driver's rendezvous endpoint (and result-channel acceptor)."""

    def __init__(self, n_workers: int, host: str = "127.0.0.1", port: int = 0):
        self.n_workers = n_workers
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(n_workers + 8)
        self.host, self.port = self._listener.getsockname()[:2]

    @property
    def addr(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def wait_for_workers(
        self,
        job,
        deadline: float,
        health: Optional[Callable[[], None]] = None,
    ) -> Dict[int, socket.socket]:
        """Collect all HELLOs, then WELCOME everyone with the peer table.

        ``health`` is polled between accepts so a spawned worker that
        died before announcing itself fails the rendezvous immediately
        instead of at the deadline.  Returns rank → result-channel
        socket.

        Raises :class:`CommTimeout` naming the missing ranks on
        deadline, :class:`CommError` on duplicate or out-of-range rank
        announcements.
        """
        conns: Dict[int, socket.socket] = {}
        table: Dict[int, Tuple[str, int]] = {}
        try:
            while len(conns) < self.n_workers:
                if health is not None:
                    health()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = sorted(
                        set(range(self.n_workers)) - set(conns)
                    )
                    raise CommTimeout(
                        f"rendezvous timed out: workers {missing} never "
                        f"connected to {self.host}:{self.port}"
                    )
                self._listener.settimeout(min(0.25, remaining))
                try:
                    sock, _peer_addr = self._listener.accept()
                except socket.timeout:
                    continue
                _set_nodelay(sock)
                sock.settimeout(_HANDSHAKE_TIMEOUT)
                frame = recv_frame(sock)
                if frame is None:
                    sock.close()
                    continue  # probe connection (port scan, health check)
                kind, msg, _epoch, _fence, _n = frame
                if kind != KIND_HELLO or not (
                    isinstance(msg, tuple) and len(msg) == 3 and msg[0] == "hello"
                ):
                    sock.close()
                    raise CommError(
                        f"rendezvous: expected HELLO, got kind {kind} {msg!r}"
                    )
                _tag, rank, mesh_addr = msg
                if not (isinstance(rank, int) and 0 <= rank < self.n_workers):
                    sock.close()
                    raise CommError(
                        f"rendezvous: rank {rank!r} out of range 0..{self.n_workers - 1}"
                    )
                if rank in conns:
                    sock.close()
                    raise CommError(
                        f"rendezvous: duplicate announcement for rank {rank}"
                    )
                sock.settimeout(None)
                conns[rank] = sock
                table[rank] = (str(mesh_addr[0]), int(mesh_addr[1]))
            epoch = int(getattr(job, "epoch", 0))
            for rank, sock in conns.items():
                if epoch > 0:
                    # A rejoining worker gets a RESUME frame: the job
                    # plus the manifest digest it must find on disk.
                    send_frame(
                        sock,
                        KIND_RESUME,
                        (
                            "resume",
                            self.n_workers,
                            sorted(table.items()),
                            job,
                            epoch,
                            job_fingerprint(job),
                        ),
                        fence=pack_fence(getattr(job, "job_tag", 0), epoch),
                    )
                else:
                    send_frame(
                        sock,
                        KIND_WELCOME,
                        (
                            "welcome",
                            self.n_workers,
                            sorted(table.items()),
                            job,
                        ),
                    )
        except BaseException:
            for sock in conns.values():
                try:
                    sock.close()
                except OSError:
                    pass
            raise
        return conns

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def join_mesh(
    connect: Tuple[str, int],
    rank: int,
    connect_timeout: float = 60.0,
):
    """Worker side of the handshake: returns ``(job, coord_sock, socks)``.

    ``socks`` maps every peer rank to a connected, NODELAY mesh socket.
    The job is the one the coordinator sends in the WELCOME or RESUME.
    """
    deadline = time.monotonic() + connect_timeout
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    coord: Optional[socket.socket] = None
    socks: Dict[int, socket.socket] = {}
    try:
        listener.bind(("0.0.0.0", 0))
        listener.listen(64)
        listen_port = listener.getsockname()[1]

        coord = connect_with_backoff(connect, deadline, what="coordinator")
        # Advertise the local address of the coordinator connection: the
        # one interface the coordinator's network is known to reach.
        adv_host = coord.getsockname()[0]
        send_frame(
            coord, KIND_HELLO, ("hello", rank, (adv_host, listen_port))
        )
        coord.settimeout(max(1.0, deadline - time.monotonic()))
        frame = recv_frame(coord)
        if frame is None:
            raise CommError(
                "coordinator closed the connection before WELCOME "
                "(duplicate rank, or the job failed during rendezvous)"
            )
        kind, msg, _epoch, _fence, _n = frame
        if kind == KIND_WELCOME and (
            isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "welcome"
        ):
            _tag, n_workers, table_items, job = msg
        elif kind == KIND_RESUME and (
            isinstance(msg, tuple) and len(msg) == 6 and msg[0] == "resume"
        ):
            # A restart epoch: the coordinator re-admits us with the job
            # and the manifest digest our on-disk journal must match.
            _tag, n_workers, table_items, job, epoch, digest = msg
            if job is not None and job_fingerprint(job) != digest:
                raise CommError(
                    f"RESUME manifest digest {digest!r} does not match the "
                    "job it carries; refusing to rejoin a different job's "
                    "mesh"
                )
        else:
            raise CommError(
                f"expected WELCOME or RESUME, got kind {kind} {msg!r}"
            )
        if job is None:
            raise CommError("coordinator sent no job")
        coord.settimeout(None)
        table = {int(r): (str(h), int(p)) for r, (h, p) in table_items}

        # Deterministic mesh: dial up, accept down.
        for peer in range(rank + 1, n_workers):
            sock = connect_with_backoff(
                table[peer], deadline, what=f"mesh peer {peer}"
            )
            send_frame(sock, KIND_MESH, ("mesh", rank))
            socks[peer] = sock
        expected = set(range(rank))
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommTimeout(
                    f"rank {rank}: peers {sorted(expected)} never dialed "
                    "our mesh listener"
                )
            listener.settimeout(min(1.0, remaining))
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            _set_nodelay(sock)
            sock.settimeout(_HANDSHAKE_TIMEOUT)
            frame = recv_frame(sock)
            if frame is None:
                sock.close()
                continue
            kind, msg, _epoch, _fence, _n = frame
            if kind != KIND_MESH or not (
                isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "mesh"
            ):
                sock.close()
                raise CommError(f"rank {rank}: expected MESH, got {msg!r}")
            peer = int(msg[1])
            if peer not in expected:
                sock.close()
                raise CommError(
                    f"rank {rank}: unexpected mesh dial from rank {peer}"
                )
            sock.settimeout(None)
            socks[peer] = sock
            expected.discard(peer)
        return job, coord, socks
    except BaseException:
        for sock in socks.values():
            try:
                sock.close()
            except OSError:
                pass
        if coord is not None:
            try:
                coord.close()
            except OSError:
                pass
        raise
    finally:
        listener.close()


class ResultChannel:
    """A worker's result channel, over its rendezvous socket.

    Mirrors the :class:`multiprocessing.connection.Connection` surface of
    the control pipe a same-host (pool) worker reports on, on both ends:

    * the worker's half (``send`` / ``send_bytes`` / ``fileno`` /
      ``close``) keeps :func:`repro.native.worker._run_phases` and the
      chaos result-corruption faults transport-blind: ``send_bytes`` of
      a truncated pickle arrives as a well-formed frame of garbage, and
      a chaos write of raw junk via ``fileno`` tears the frame stream
      itself;
    * the driver's half (``fileno`` / ``poll`` / ``recv``) lets the
      driver's one result collector wait on it next to pipes and process
      sentinels.  ``recv`` does the frame checks: a close — silent or
      with GOODBYE — before any result raises :class:`EOFError`, a torn
      frame or a frame of another kind raises :class:`CommError`.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, obj) -> None:
        send_frame(self._sock, KIND_RESULT, obj)

    def send_bytes(self, data: bytes) -> None:
        send_raw_frame(self._sock, KIND_RESULT, data)

    def fileno(self) -> int:
        return self._sock.fileno()

    def poll(self, timeout: float = 0.0) -> bool:
        readable, _, _ = select.select([self._sock], [], [], timeout)
        return bool(readable)

    def recv(self):
        frame = recv_frame(self._sock)
        if frame is None:
            raise EOFError(
                "closed its result channel without reporting a result"
            )
        kind, payload = frame[0], frame[1]
        if kind == KIND_GOODBYE:
            # A deliberate close is still not a result: a worker that
            # says GOODBYE on its result channel has abandoned the job.
            raise EOFError(
                "closed its result channel deliberately (GOODBYE) "
                "without reporting a result"
            )
        if kind != KIND_RESULT:
            raise CommError(f"frame kind {kind} on the result channel")
        return payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
