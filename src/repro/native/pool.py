"""The PE pool: the one way to start, feed, read and stop same-host PEs.

A one-shot pipe or shm sort (:class:`~repro.native.driver.NativeSorter`)
builds a pool of P for its attempt, dispatches the job to all P and
stops the pool; the sort service (:class:`~repro.service.daemon.SortService`)
keeps one pool warm and multiplexes many jobs over it.  Each worker
owns two long-lived channels back to its supervisor:

* a duplex **control pipe** — carries ``("run", seq, job, rank, endpoints)``
  dispatches down and ``("result", seq, payload)`` reports up, where
  ``payload`` is an ``("ok", ...)`` result or an ``("error", ...)``
  report (:meth:`~repro.native.driver.Attempt.received`);
* a one-way **interrupt pipe** — the supervisor drops a dispatch
  sequence number in to abort the matching job mid-phase (cancel,
  service shutdown); the worker's comm polls it between messages and
  raises :class:`~repro.native.comm_api.JobInterrupted`, so the job
  unwinds and the warm process lives on.

The mesh is **fresh per dispatch**: the pool builds the job's pipe pairs
or shm rings with :func:`~repro.native.transport.local_mesh`, ships each
worker its endpoints *through* the control pipe (the message names each
end by index, and the fds ride right behind it as ``SCM_RIGHTS``), then
closes its own copies, so each rank holds only its own ends; each
worker opens its comm through the one PE entry point,
:func:`~repro.native.worker.worker_main`.  Fresh pipes plus the
(job, epoch) wire fence make cross-job delivery structurally
impossible; what is reused is the process and its two channels.

Both supervisors run the same :meth:`WarmPool.step` over the attempts
(:class:`~repro.native.driver.Attempt`) the pool is running: feed each
attempt its ranks' reports and deaths, respawn dead workers (a warm pool
never shrinks; a one-shot pool is retired at dispatch, so its PEs exit
as they report and none is respawned), kill stopped workers that
outlive their SIGTERM by :data:`~repro.native.driver.SIGKILL_AFTER_S`,
expire attempts at their deadline, and stop a failed attempt's pending
ranks (SIGTERM) unless its job was cancelled.  A worker starts with
SIGTERM at its default, whatever handler its parent installed, so that
stop is a death.
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
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional

from .driver import (
    SIGKILL_AFTER_S, Attempt, NativeSortError, read_result, reap,
)
from .job import NativeJob
from .transport import LocalMesh, local_mesh
from .worker import worker_main

__all__ = ["Dispatch", "WarmPool", "WorkerHandle", "pool_worker_main"]

#: Control-pipe verbs (parent -> worker).
CMD_RUN = "run"
CMD_STOP = "stop"
#: Control-pipe verbs (worker -> parent).
MSG_RESULT = "result"


class _ResultProxy:
    """Adapts the shared control pipe to the worker result-channel shape.

    :func:`~repro.native.worker.worker_main` reports through an object
    with ``send``; this proxy tags each report with the dispatch
    sequence number so the supervisor can route it to the right attempt.
    ``close`` is a no-op — the control pipe outlives the job.  The chaos
    hooks' raw entry points (``send_bytes``/``fileno``) write to the
    control pipe itself, so a torn frame there is read as a torn result.
    """

    def __init__(self, ctrl, seq: int):
        self._ctrl = ctrl
        self._seq = seq

    def send(self, obj) -> None:
        self._ctrl.send((MSG_RESULT, self._seq, obj))

    def send_bytes(self, raw: bytes) -> None:
        self._ctrl.send_bytes(raw)

    def fileno(self) -> int:
        return self._ctrl.fileno()

    def close(self) -> None:
        pass


def _send_ends(ctrl, head: tuple, endpoints) -> None:
    """Send ``head + (endpoints, fd count)`` down ``ctrl``, each
    connection pickled as its index in the fds sent right after it as
    ``SCM_RIGHTS``.  ``multiprocessing``'s own pickling would park a
    duplicate of every end in the sender's resource sharer until the
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
    Exits on an explicit ``("stop",)``, on control-pipe EOF (the
    supervisor died), or via ``os._exit`` from an injected chaos kill
    inside a job.

    SIGTERM is the supervisor's stop, so it is reset to its default: a
    worker forked after its parent installed its own handler would
    otherwise inherit it and live on.  SIGINT is ignored: a terminal's
    Ctrl-C reaches the supervisor too, which stops its workers.
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
    """Supervisor-side view of one pool worker."""

    worker_id: int
    proc: object
    ctrl: object  # supervisor end of the duplex control pipe
    interrupt: object  # supervisor (write) end of the interrupt pipe
    #: Dispatch sequence currently running, or None when idle.
    busy_seq: Optional[int] = None
    job_id: Optional[str] = None
    job_rank: Optional[int] = None
    busy_since: Optional[float] = None
    jobs_run: int = 0
    busy_seconds: float = 0.0
    #: When the supervisor sent it SIGTERM (:meth:`WarmPool.terminate`):
    #: dispatch nothing more to it, even if it reports before it dies.
    stopped_at: Optional[float] = None
    #: Told to exit once idle (:meth:`WarmPool.retire`): not respawned.
    retired: bool = False

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


@dataclass
class Dispatch:
    """One attempt of one job on a set of pool workers."""

    seq: int
    job_id: str
    handles: Dict[int, WorkerHandle]  # rank -> handle
    attempt: Attempt
    mesh: LocalMesh
    #: Its ranks were interrupted (:meth:`WarmPool.cancel`): a failure
    #: then stops nothing, only the deadline does.
    cancelled: bool = False


class WarmPool:
    """A fixed-size pool of persistent worker processes."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self.size = size
        self._next_worker_id = 0
        self._next_seq = 1
        self.respawns = 0
        #: Running dispatches by seq, until :meth:`step` returns them.
        self.running: Dict[int, Dispatch] = {}
        # Start the resource tracker *before* forking any worker: a pool
        # PE that later attaches a shm ring must inherit this process's
        # tracker (registrations are then idempotent set-adds and the
        # pool's unlink clears them) rather than lazily spawn its own,
        # which would warn about "leaked" segments at exit.
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
            if h.idle and h.stopped_at is None and not h.retired
            and h.proc.is_alive()
        ]

    def dispatch(self, job: NativeJob, job_id: str,
                 handles: List[WorkerHandle]) -> Dispatch:
        """Start an attempt of ``job`` on ``handles`` (rank = position).

        Builds the fresh pairwise mesh, sends each worker its dispatch,
        and closes the pool's copies of every mesh end — after which a
        worker death propagates to its peers as EOF.  A rank whose
        dispatch could not be sent has ended, and fails the attempt.
        """
        seq = self._next_seq
        self._next_seq += 1
        run = Dispatch(seq, job_id, dict(enumerate(handles)),
                       Attempt(job, time.monotonic()),
                       local_mesh(self._ctx, job))
        self.running[seq] = run
        try:
            for rank, handle in run.handles.items():
                # The endpoints ride the control pipe: pipe ends and ring
                # doorbells as passed fds, ring segments by name
                # (attached in the worker).
                _send_ends(handle.ctrl, (CMD_RUN, seq, job, rank),
                           run.mesh.endpoints[rank])
                handle.mark_busy(seq, job_id, rank)
        except Exception as exc:  # a worker died in the dispatch window
            for rank, handle in run.handles.items():
                if handle.busy_seq != seq:
                    run.attempt.ended(
                        rank, None, f"dispatch to worker {rank} failed: {exc}"
                    )
        finally:
            run.mesh.close_parent_ends()
        return run

    def wait(self, *extra) -> None:
        """Block until a worker reports or dies, one of ``extra`` is
        ready, or 0.25 s pass (deadlines and stops are timed)."""
        try:
            conn_wait([*extra, *(h.ctrl for h in self.handles),
                       *(h.proc.sentinel for h in self.handles)], 0.25)
        except OSError:
            # A pipe was torn down under us (respawn/shutdown race);
            # the next step sorts it out.
            time.sleep(0.01)

    def step(self) -> List[Dispatch]:
        """Apply the one attempt rule (:class:`Attempt`) to every running
        dispatch; return those with no rank pending, their meshes
        released (shm: the rings unlinked).

        Each worker's reports are fed in before its death, as the driver
        settles a rank: a worker that reported and exited did report.  A
        dead worker is respawned unless it was retired.  A stopped worker
        still alive :data:`SIGKILL_AFTER_S` after its SIGTERM is killed,
        and its attempt told so.  At its deadline, or at its first own failure
        unless it was cancelled, an attempt's pending workers are stopped
        (SIGTERM); a later step feeds their exits in.
        """
        for handle in list(self.handles):
            dead = not handle.proc.is_alive()
            self._drain(handle)
            if dead:
                self._died(handle)
        now = time.monotonic()
        for handle in self.handles:
            if (handle.stopped_at is not None
                    and now - handle.stopped_at >= SIGKILL_AFTER_S
                    and handle.proc.is_alive()):
                run = self.running.get(handle.busy_seq)
                if run is not None:
                    run.attempt.escalate(handle.job_rank)
                handle.proc.kill()
        ended: List[Dispatch] = []
        for run in list(self.running.values()):
            attempt = run.attempt
            late = now >= attempt.deadline
            if late:
                attempt.expire()
            if late or (attempt.failed and not run.cancelled):
                for rank in attempt.stop():
                    self.terminate(run.handles[rank])
            if not attempt.pending:
                del self.running[run.seq]
                run.mesh.release()
                ended.append(run)
        return ended

    def _drain(self, handle: WorkerHandle) -> None:
        """Feed ``handle``'s control frames to their attempts.

        A frame is read as the driver reads a result
        (:func:`~repro.native.driver.read_result`).  A close before a
        frame's first byte — EOF, or a reset when the worker died with a
        stop or a dispatch unread — is the worker's death, left to the
        sentinel.  A frame that ends early or does not unpickle ends the
        worker's rank as unreadable, and the worker, its stream torn, is
        stopped — unless it was stopped already, which is then what
        tore it.
        """
        while handle.ctrl.poll(0):
            with socket.fromfd(handle.ctrl.fileno(), socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                try:
                    if not sock.recv(1, socket.MSG_PEEK):
                        return
                except ConnectionResetError:
                    return
            rank = handle.job_rank
            try:
                msg = read_result(handle.ctrl.recv, rank, handle.proc)
            except NativeSortError as exc:
                if handle.stopped_at is None:
                    run = self.running.get(handle.busy_seq)
                    if run is not None and rank in run.attempt.pending:
                        run.attempt.ended(rank, handle.proc.exitcode, str(exc))
                    self.terminate(handle)
                return
            if (isinstance(msg, tuple) and len(msg) == 3
                    and msg[0] == MSG_RESULT):
                self._route(handle, msg[1], msg[2])

    def _route(self, handle: WorkerHandle, seq: int, payload) -> None:
        rank = handle.job_rank
        if handle.busy_seq == seq:
            handle.mark_idle()
        run = self.running.get(seq)
        if run is not None and rank in run.attempt.pending:
            run.attempt.received(rank, payload)

    def _died(self, handle: WorkerHandle) -> None:
        """Feed a dead worker's exit to its attempt, release its process
        and channels at once, and respawn it in place unless retired."""
        seq, rank = handle.busy_seq, handle.job_rank
        code = handle.proc.exitcode
        handle.mark_idle()
        for conn in (handle.ctrl, handle.interrupt):
            try:
                conn.close()
            except OSError:
                pass
        handle.proc.join(timeout=5.0)
        handle.proc.close()
        idx = self.handles.index(handle)
        if handle.retired:
            del self.handles[idx]
        else:
            self.handles[idx] = self._spawn()
            self.respawns += 1
        run = self.running.get(seq) if seq is not None else None
        if run is not None and rank in run.attempt.pending:
            run.attempt.ended(rank, code)

    def cancel(self, run: Dispatch) -> None:
        """Ask ``run``'s pending workers to abort it (cancel, shutdown):
        they unwind in their warm processes and report."""
        run.cancelled = True
        for rank in run.attempt.pending:
            try:
                run.handles[rank].interrupt.send(run.seq)
            except (OSError, ValueError):
                pass

    def terminate(self, handle: WorkerHandle) -> None:
        """Stop ``handle``'s process (SIGTERM) mid-job; :meth:`step` sees
        it die like any other worker."""
        handle.stopped_at = time.monotonic()
        handle.proc.terminate()

    def retire(self, handles: List[WorkerHandle]) -> None:
        """Tell ``handles`` to exit once idle: a stop queued behind their
        current dispatch, so a one-shot PE exits as soon as it reports.
        A retired worker that dies is not respawned."""
        for handle in handles:
            handle.retired = True
            try:
                handle.ctrl.send((CMD_STOP,))
            except (OSError, ValueError):
                pass

    def stop(self) -> None:
        """Tear the pool down: interrupt, stop, escalate to SIGKILL."""
        for run in list(self.running.values()):
            run.mesh.release()
            self.cancel(run)
        self.retire(self.handles)
        for handle in self.handles:
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
