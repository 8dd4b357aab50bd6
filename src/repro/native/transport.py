"""Which transport carries a job: the one place that turns a job into a mesh.

The sort code never knows which fabric carries its collectives — it
talks to a :class:`~repro.native.comm_api.Comm`.  This module is the only
place that maps ``job.transport`` onto a concrete mesh and comm class:

* :func:`local_mesh` builds a same-host job's endpoints — one duplex
  pipe per worker pair (``"pipe"``) or a pair of shared-memory rings per
  worker pair (``"shm"``) — for the PE pool
  (:meth:`repro.native.pool.WarmPool.dispatch`), which starts every
  same-host PE;
* :func:`open_comm` turns one rank's endpoints (pipe ends, ring specs,
  or the connected sockets :func:`repro.net.rendezvous.join_mesh`
  returns for ``"tcp"``) into that rank's comm, reading every transport
  parameter from the job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .comm import PipeComm
from .comm_api import Comm
from .job import NativeJob

__all__ = ["LocalMesh", "local_mesh", "open_comm"]


@dataclass
class LocalMesh:
    """A same-host job's full mesh, built by the pool at dispatch.

    ``endpoints[rank]`` maps every peer to rank's end of their channel:
    a pipe end, or rank's side of the two rings with its doorbell ends.
    Every fd belongs to exactly one rank's endpoints.  Each end is a
    ``multiprocessing`` connection whose fd the pool passes to its rank
    as ``SCM_RIGHTS``, so each rank holds only its own ends.
    """

    endpoints: List[Dict[int, object]]
    #: The :class:`~repro.native.shm.ShmMesh` behind the rings (``None``
    #: for pipes).
    shm: object = None

    def close_parent_ends(self) -> None:
        """Close the creator's copies once they are sent, so a dead
        worker turns into EOF for its peers, not a silent hang."""
        for per_rank in self.endpoints:
            for end in per_rank.values():
                end.close()

    def release(self) -> None:
        """Unlink the shm segments (idempotent; a no-op for pipes).

        POSIX keeps the memory alive for workers still attached, so this
        is safe as soon as the attempt is over, whatever its outcome."""
        if self.shm is not None:
            self.shm.unlink()


def local_mesh(ctx, job: NativeJob) -> LocalMesh:
    """Build ``job``'s pipe pairs or shm rings with ``ctx`` (pipe or shm)."""
    if job.transport == "shm":
        from . import shm

        # The ring size is read here, at call time, so a test can shrink
        # the module constant.
        mesh = shm.create_shm_mesh(
            ctx, job.n_workers, ring_bytes=shm.DEFAULT_RING_BYTES,
            job_tag=job.job_tag,
        )
        return LocalMesh(mesh.channels, mesh)
    endpoints: List[Dict[int, object]] = [dict() for _ in range(job.n_workers)]
    for i in range(job.n_workers):
        for j in range(i + 1, job.n_workers):
            endpoints[i][j], endpoints[j][i] = ctx.Pipe(duplex=True)
    return LocalMesh(endpoints)


def open_comm(
    rank: int,
    job: NativeJob,
    endpoints: Dict[int, object],
    interrupt=None,
    interrupt_tag: int = 0,
) -> Comm:
    """Rank ``rank``'s comm over ``endpoints``, in its own process.

    ``interrupt`` is the warm pool's abort channel: a dispatch tag equal
    to ``interrupt_tag`` written into it aborts the job with
    :class:`~repro.native.comm_api.JobInterrupted`.
    """
    common = dict(
        timeout=job.timeout,
        chaos=job.chaos,
        pending_sends=job.pending_sends,
        job_epoch=job.epoch,
        job_tag=job.job_tag,
        interrupt=interrupt,
        interrupt_tag=interrupt_tag,
    )
    if job.transport == "tcp":
        from ..net.tcp import TcpComm as comm_class
    elif job.transport == "shm":
        from .shm import ShmComm as comm_class
    else:
        comm_class = PipeComm
    return comm_class(rank, job.n_workers, endpoints, **common)
