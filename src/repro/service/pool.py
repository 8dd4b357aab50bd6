"""The warm PE pool: persistent worker processes serving many jobs.

Single-shot runs (:class:`~repro.native.driver.NativeSorter`) fork P
processes per sort and throw them away.  The service instead keeps a
pool of *persistent* workers, each owning two long-lived channels back
to the scheduler:

* a duplex **control pipe** — carries ``("run", seq, job, rank, endpoints)``
  dispatches down and ``("result", seq, payload)`` reports up, where
  ``payload`` is exactly the tuple a single-shot worker would have sent
  on its result pipe;
* a one-way **interrupt pipe** — the scheduler drops a dispatch
  sequence number in to abort the matching job mid-phase (cancel,
  service shutdown); the worker's comm polls it between messages and
  raises :class:`~repro.native.comm_api.JobInterrupted`, so the job
  unwinds and the warm process lives on.

The mesh is **fresh per job**: at dispatch time the scheduler builds
the job's pipe pairs or shm rings with the one-shot driver's own
:func:`~repro.native.transport.local_mesh`, ships each worker its
endpoints *through* the control pipe (the message names each end by
index, and the fds ride right behind it as ``SCM_RIGHTS``), then
closes its own copies; each worker
opens its comm through the one PE entry point,
:func:`~repro.native.worker.worker_main`.  Reusing mesh pipes across jobs
would let one job's stale bytes corrupt the next; fresh pipes plus the
(job, epoch) wire fence make cross-job delivery structurally
impossible.  What *is* reused — the point of the pool — is the warm
process: an imported interpreter, hot numpy, and the two control
channels.

A worker that dies (chaos kill, crash, or the scheduler's own SIGTERM
when the attempt it was running failed elsewhere, :meth:`WarmPool.terminate`)
is detected by the scheduler via its process sentinel and replaced
with a fresh process under a new worker id; the pool never shrinks.
A worker starts with SIGTERM at its default, whatever handler the
service process installed, so that stop is a death; one still alive
:data:`~repro.native.driver.SIGKILL_AFTER_S` later is killed
(:meth:`WarmPool.overdue`).
"""

from __future__ import annotations

import io
import multiprocessing as mp
import pickle
import signal
import socket
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Dict, List, Optional

from ..native.driver import SIGKILL_AFTER_S, reap
from ..native.job import NativeJob
from ..native.transport import LocalMesh, local_mesh
from ..native.worker import worker_main

__all__ = ["WarmPool", "WorkerHandle", "pool_worker_main"]

#: Control-pipe verbs (parent -> worker).
CMD_RUN = "run"
CMD_STOP = "stop"
#: Control-pipe verbs (worker -> parent).
MSG_RESULT = "result"


class _ResultProxy:
    """Adapts the shared control pipe to the worker result-channel shape.

    :func:`~repro.native.worker.worker_main` reports through an object
    with ``send``; this proxy tags each report with the dispatch
    sequence number so the scheduler can route it to the right attempt.
    ``close`` is a no-op — the control pipe outlives the job.  The
    chaos hooks' raw-corruption entry points (``send_bytes``/``fileno``)
    degrade to a malformed-but-framed report: service chaos kills
    processes, it does not tear the multiplexed control stream.
    """

    def __init__(self, ctrl, seq: int):
        self._ctrl = ctrl
        self._seq = seq

    def send(self, obj) -> None:
        self._ctrl.send((MSG_RESULT, self._seq, obj))

    def send_bytes(self, raw: bytes) -> None:
        self._ctrl.send((MSG_RESULT, self._seq, ("torn", raw)))

    def fileno(self) -> int:
        return self._ctrl.fileno()

    def close(self) -> None:
        pass


def _send_ends(ctrl, head: tuple, endpoints) -> None:
    """Send ``head + (endpoints, fd count)`` down ``ctrl``, each
    connection pickled as its index in the fds sent right after it as
    ``SCM_RIGHTS``.  ``multiprocessing``'s own pickling would park a
    duplicate of every end in the service's resource sharer until the
    worker fetched it — for good, if the worker died first; an fd in
    flight closes with its receiver."""
    fds: List[int] = []

    def persistent_id(obj):
        if isinstance(obj, Connection):
            fds.append(obj.fileno())
            return len(fds) - 1, obj.readable, obj.writable
        return None

    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(endpoints)
    ctrl.send(head + (buf.getvalue(), len(fds)))
    if fds:
        with socket.fromfd(ctrl.fileno(), socket.AF_UNIX,
                           socket.SOCK_STREAM) as sock:
            socket.send_fds(sock, [b"F"], fds)


def _recv_ends(ctrl, data: bytes, n_fds: int):
    """The endpoints :func:`_send_ends` sent, with their fds."""
    fds: List[int] = []
    if n_fds:
        with socket.fromfd(ctrl.fileno(), socket.AF_UNIX,
                           socket.SOCK_STREAM) as sock:
            fds = socket.recv_fds(sock, 1, n_fds)[1]
        if len(fds) != n_fds:
            raise EOFError(f"expected {n_fds} mesh fds, got {len(fds)}")
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = lambda pid: Connection(fds[pid[0]], *pid[1:])
    return unpickler.load()


def pool_worker_main(worker_id: int, ctrl, interrupt) -> None:
    """Persistent pool-worker loop: serve dispatches until told to stop.

    Each dispatch runs through the one PE entry point,
    :func:`~repro.native.worker.worker_main`, with the interrupt channel
    armed with the dispatch's sequence number (a stale interrupt for an
    earlier job drains harmlessly); it closes the per-job mesh whatever
    the outcome, while the control and interrupt channels persist.
    Exits on an explicit ``("stop",)``, on control-pipe EOF (the service
    died), or via ``os._exit`` from an injected chaos kill inside a job.

    SIGTERM is the scheduler's stop, so it is reset to its default: a
    worker forked after the service installed its own handler would
    otherwise inherit it and live on.  SIGINT is ignored: a terminal's
    Ctrl-C reaches the service too, which shuts its workers down.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            cmd = ctrl.recv()
        except (EOFError, OSError):
            return
        if not isinstance(cmd, tuple) or not cmd:
            continue
        if cmd[0] == CMD_STOP:
            return
        if cmd[0] == CMD_RUN:
            seq, job, job_rank, data, n_fds = cmd[1:6]
            try:
                endpoints = _recv_ends(ctrl, data, n_fds)
            except (EOFError, OSError):
                return
            worker_main(
                job_rank, job, endpoints, _ResultProxy(ctrl, seq),
                interrupt, seq,
            )


@dataclass
class WorkerHandle:
    """Scheduler-side view of one pool worker."""

    worker_id: int
    proc: object
    ctrl: object  # service end of the duplex control pipe
    interrupt: object  # service (write) end of the interrupt pipe
    #: Dispatch sequence currently running, or None when idle.
    busy_seq: Optional[int] = None
    job_id: Optional[str] = None
    job_rank: Optional[int] = None
    busy_since: Optional[float] = None
    jobs_run: int = 0
    busy_seconds: float = 0.0
    #: When the scheduler sent it SIGTERM (:meth:`WarmPool.terminate`):
    #: dispatch nothing more to it, even if it reports before it dies.
    stopped_at: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    @property
    def idle(self) -> bool:
        return self.busy_seq is None

    def mark_busy(self, seq: int, job_id: str, rank: int) -> None:
        self.busy_seq = seq
        self.job_id = job_id
        self.job_rank = rank
        self.busy_since = time.monotonic()

    def mark_idle(self) -> None:
        if self.busy_since is not None:
            self.busy_seconds += time.monotonic() - self.busy_since
            self.jobs_run += 1
        self.busy_seq = None
        self.job_id = None
        self.job_rank = None
        self.busy_since = None


class WarmPool:
    """A fixed-size pool of persistent worker processes."""

    def __init__(self, size: int, ctx=None):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if ctx is None:
            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._ctx = ctx
        self.size = size
        self._next_worker_id = 0
        self.respawns = 0
        #: Live meshes by dispatch seq: the scheduler owns shm segment
        #: names and unlinks them when the attempt finalizes (success,
        #: failure, or service shutdown) — the no-/dev/shm-leak
        #: guarantee for pool jobs.
        self._meshes: Dict[int, LocalMesh] = {}
        # Start the resource tracker *before* forking any worker: a pool
        # PE that later attaches a shm ring must inherit this process's
        # tracker (registrations are then idempotent set-adds and the
        # scheduler's unlink clears them) rather than lazily spawn its
        # own, which would warn about "leaked" segments at exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - non-POSIX fallback
            pass
        self.handles: List[WorkerHandle] = [self._spawn() for _ in range(size)]

    def _spawn(self) -> WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        ctrl_parent, ctrl_child = self._ctx.Pipe(duplex=True)
        intr_read, intr_write = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=pool_worker_main,
            args=(worker_id, ctrl_child, intr_read),
            name=f"pool-pe-{worker_id}",
            daemon=True,
        )
        proc.start()
        # The parent's copies of the child-side ends must close so a dead
        # worker turns into EOF/sentinel wakeups, never a silent hang.
        ctrl_child.close()
        intr_read.close()
        return WorkerHandle(
            worker_id=worker_id, proc=proc, ctrl=ctrl_parent,
            interrupt=intr_write,
        )

    def idle_handles(self) -> List[WorkerHandle]:
        return [
            h for h in self.handles
            if h.idle and h.stopped_at is None and h.proc.is_alive()
        ]

    def dispatch(self, job: NativeJob, seq: int, job_id: str,
                 handles: List[WorkerHandle]) -> None:
        """Ship ``job`` to ``handles`` (rank = position in the list).

        Builds the fresh pairwise mesh, sends each worker its dispatch,
        and closes the scheduler's copies of every mesh end — after
        which a worker death propagates to its peers as pipe EOF.
        """
        if len(handles) != job.n_workers:
            raise ValueError(
                f"job wants {job.n_workers} workers, got {len(handles)}"
            )
        mesh = local_mesh(self._ctx, job)
        # Registered before the sends: whatever happens mid-dispatch,
        # release_mesh(seq) can always unlink the segments.
        self._meshes[seq] = mesh
        try:
            for rank, handle in enumerate(handles):
                # The endpoints ride the control pipe: pipe ends and ring
                # doorbells as passed fds, ring segments by name
                # (attached in the worker).
                _send_ends(handle.ctrl, (CMD_RUN, seq, job, rank),
                           mesh.endpoints[rank])
                handle.mark_busy(seq, job_id, rank)
        finally:
            mesh.close_parent_ends()

    def release_mesh(self, seq: int) -> None:
        """Release the mesh of dispatch ``seq`` (shm: unlink the rings).

        Idempotent, called from the single attempt-finalization point in
        the scheduler; a straggler rank finishing an already-failed
        attempt keeps its mapping (see :meth:`LocalMesh.release`).
        """
        mesh = self._meshes.pop(seq, None)
        if mesh is not None:
            mesh.release()

    def interrupt(self, handle: WorkerHandle, seq: int) -> None:
        """Ask ``handle`` to abort dispatch ``seq`` (best effort)."""
        try:
            handle.interrupt.send(seq)
        except (OSError, ValueError):
            pass

    def terminate(self, handle: WorkerHandle) -> None:
        """Stop ``handle``'s process (SIGTERM) mid-job; the scheduler
        sees it die like any other worker and respawns it."""
        handle.stopped_at = time.monotonic()
        handle.proc.terminate()

    def overdue(self) -> List[WorkerHandle]:
        """Stopped workers still alive :data:`SIGKILL_AFTER_S` after
        their SIGTERM: the scheduler kills them, and respawns them like
        any dead worker."""
        now = time.monotonic()
        return [
            h for h in self.handles
            if h.stopped_at is not None
            and now - h.stopped_at >= SIGKILL_AFTER_S
            and h.proc.is_alive()
        ]

    def respawn(self, handle: WorkerHandle) -> WorkerHandle:
        """Replace a dead worker in place; returns the new handle."""
        idx = self.handles.index(handle)
        for conn in (handle.ctrl, handle.interrupt):
            try:
                conn.close()
            except OSError:
                pass
        handle.proc.join(timeout=5.0)
        # Release the dead process's sentinel now, not whenever the last
        # reference to its handle goes.
        handle.proc.close()
        fresh = self._spawn()
        self.handles[idx] = fresh
        self.respawns += 1
        return fresh

    def stop(self) -> None:
        """Tear the pool down: interrupt, stop, escalate to SIGKILL."""
        for seq in list(self._meshes):
            self.release_mesh(seq)
        for handle in self.handles:
            if handle.busy_seq is not None:
                self.interrupt(handle, handle.busy_seq)
        for handle in self.handles:
            try:
                handle.ctrl.send((CMD_STOP,))
            except (OSError, ValueError):
                pass
            # Closing the interrupt write-end makes any still-running
            # job abort with "interrupt channel closed" at its next poll.
            try:
                handle.interrupt.close()
            except OSError:
                pass
        for handle in self.handles:
            handle.proc.join(timeout=5.0)
        reap([handle.proc for handle in self.handles])
        for handle in self.handles:
            try:
                handle.ctrl.close()
            except OSError:
                pass
