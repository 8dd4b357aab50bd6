"""Sort-as-a-service: a multi-job scheduler over the warm PE pool.

:class:`SortService` is the long-running counterpart of the single-shot
:class:`~repro.native.driver.NativeSorter`: it keeps one
:class:`~repro.native.pool.WarmPool` of persistent worker processes
warm and multiplexes any number of client sort jobs over it.

One **scheduler thread** owns all mutable state (under one lock shared
with the thin client-facing entry points) and runs the whole control
loop: admission, dispatch, result collection, failure handling,
restarts, and worker respawn.  It blocks in the pool's wait
(:meth:`~repro.native.pool.WarmPool.wait`) over a wakeup pipe
(submissions, cancels, shutdown poke it) and every pool worker's
control pipe and process sentinel, then runs the pool's supervisor
step, the one a one-shot sort runs too.

**Isolation between jobs** rests on three mechanisms, each introduced
by an earlier layer and composed here:

* fresh per-job mesh pipes (:meth:`WarmPool.dispatch`) — no shared data
  path between jobs at all;
* the (job, epoch) wire fence — a frame from job A cannot be delivered
  into job B even if a channel were shared;
* per-job spill namespaces — cleanup of one job (abort included)
  cannot touch another's blocks.

**Admission control** is strict FIFO over two budgets: aggregate
worker memory (``P·M`` per job) and aggregate spill footprint (3 data
copies per job at the end of its merge, plus what a job without
randomization may ship in its all-to-all — :func:`.jobs.job_costs`).  The head job blocks the queue
until it fits — jobs whose combined cost exceeds a budget are thereby
*provably serialized*, and nothing ever starves.

**Failure handling** is the one-shot driver's rule, applied per
attempt by the same step over the same
:class:`~repro.native.driver.Attempt`: a
worker's error report, its death without a result, or the deadline
fails only the attempt it was running; the attempt's other workers
are stopped at once (SIGTERM) and respawned like any dead worker, and
the rank that ended by itself is blamed over its peers' reports of
the dead channel.  The job's own
:class:`~repro.recovery.supervisor.RestartPolicy` then decides whether
it re-queues (at the *front*, epoch + 1, implicated rank marked
suspect) or fails for good.  A cancel interrupts the job's workers
instead, so they unwind inside their warm processes.  The pool keeps
serving every other job throughout.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from ..native.blockstore import purge_namespace
from ..native.driver import NativeSortError
from ..native.pool import Dispatch, WarmPool, WorkerHandle
from ..recovery.supervisor import RestartPolicy
from .jobs import (
    ADMITTED,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRejected,
    ServiceError,
    ServiceJob,
    build_native_job,
    job_costs,
    stamp_identity,
)
from .stats import ServiceStats

__all__ = ["SortService"]


class SortService:
    """A persistent sort service over a warm pool of ``pool_size`` PEs."""

    def __init__(
        self,
        pool_size: int = 4,
        spill_root: str = "spill-service",
        listen: Optional[str] = "127.0.0.1:0",
        memory_budget_bytes: Optional[int] = None,
        spill_budget_bytes: Optional[int] = None,
    ):
        self.spill_root = str(spill_root)
        self.pool = WarmPool(pool_size)
        self.memory_budget_bytes = (
            int(memory_budget_bytes)
            if memory_budget_bytes is not None
            else pool_size * 64 * 2**20
        )
        #: ``None`` = unmetered spill (the budget is opt-in).
        self.spill_budget_bytes = (
            int(spill_budget_bytes) if spill_budget_bytes is not None else None
        )
        self._lock = threading.RLock()
        self._jobs: Dict[str, ServiceJob] = {}
        self._queue: "deque[ServiceJob]" = deque()
        self._next_num = 1
        self._reserved_mem = 0
        self._reserved_spill = 0
        self._stopping = False
        self._closed = False
        self.stats = ServiceStats()
        self._wake_r, self._wake_w = mp.Pipe(duplex=False)
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="sort-service-scheduler",
            daemon=True,
        )
        self._scheduler.start()
        self._server: Optional[_ControlServer] = None
        if listen is not None:
            self._server = _ControlServer(self, listen)

    # -- client-facing API (any thread) ---------------------------------------

    @property
    def addr(self):
        """The control endpoint ``(host, port)``, or None when not serving."""
        return self._server.addr if self._server is not None else None

    def submit(self, spec: dict) -> str:
        """Queue a sort described by ``spec``; returns the job id.

        Raises :class:`JobRejected` for a job this service can *never*
        run (an invalid spec, more workers than the pool, or a cost
        above a whole budget) — distinct from a feasible job that
        merely has to wait.  Every rejection counts in ``stats.rejected``.
        """
        with self._lock:
            if self._stopping:
                raise ServiceError("service is shutting down")
            try:
                native = build_native_job(spec, self.spill_root)
                mem_cost, spill_cost = job_costs(native)
                if native.n_workers > self.pool.size:
                    raise JobRejected(
                        f"job wants {native.n_workers} workers, pool has "
                        f"{self.pool.size}"
                    )
                if mem_cost > self.memory_budget_bytes:
                    raise JobRejected(
                        f"job memory cost {mem_cost} exceeds the service "
                        f"budget {self.memory_budget_bytes}"
                    )
                if (
                    self.spill_budget_bytes is not None
                    and spill_cost > self.spill_budget_bytes
                ):
                    raise JobRejected(
                        f"job spill cost {spill_cost} exceeds the service "
                        f"budget {self.spill_budget_bytes}"
                    )
            except JobRejected:
                self.stats.rejected += 1
                raise
            num = self._next_num
            self._next_num += 1
            job_id = f"j{num}"
            native = stamp_identity(native, num, job_id)
            job = ServiceJob(
                id=job_id,
                num=num,
                label=str(spec.get("label", "")),
                job=native,
                attempt_job=native,
                mem_cost=mem_cost,
                spill_cost=spill_cost,
                policy=RestartPolicy(native.max_restarts),
            )
            self._jobs[job_id] = job
            self._queue.append(job)
            self.stats.submitted += 1
            self.stats.note_queue_depth(len(self._queue))
        self._wake()
        return job_id

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._get(job_id)
            pos = None
            for i, queued in enumerate(self._queue):
                if queued.id == job_id:
                    pos = i
                    break
            return job.snapshot(queue_position=pos)

    def jobs_snapshot(self) -> List[dict]:
        with self._lock:
            return [
                self._jobs[jid].snapshot()
                for jid in sorted(self._jobs, key=lambda j: self._jobs[j].num)
            ]

    def stats_snapshot(self) -> dict:
        with self._lock:
            return self.stats.snapshot(
                self.pool,
                queue_depth=len(self._queue),
                running=len(self.pool.running),
                reserved_mem=self._reserved_mem,
                reserved_spill=self._reserved_spill,
                memory_budget=self.memory_budget_bytes,
                spill_budget=self.spill_budget_bytes,
            )

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its state after the request.

        A queued job dies immediately; a running job is interrupted and
        lands in CANCELLED once its workers unwind.  A job that already
        finished is left alone (the race goes to the sort).
        """
        with self._lock:
            job = self._get(job_id)
            if job.state in TERMINAL_STATES:
                return job.state
            job.cancel_requested = True
            if job.state == QUEUED:
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                self._finish_terminal(job, CANCELLED, "cancelled while queued")
            else:
                for run in self.pool.running.values():
                    if run.job_id == job_id:
                        self.pool.cancel(run)
            state = job.state
        self._wake()
        return state

    def wait(self, job_id: str, timeout: Optional[float] = None) -> ServiceJob:
        """Block until ``job_id`` reaches a terminal state; returns it."""
        with self._lock:
            job = self._get(job_id)
        if not job.done.wait(timeout):
            raise ServiceError(f"timed out waiting for job {job_id}")
        return job

    def worker_pids(self, job_id: str) -> List[int]:
        """PIDs of the pool workers currently running ``job_id``."""
        with self._lock:
            for run in self.pool.running.values():
                if run.job_id == job_id:
                    return [
                        h.pid
                        for h in run.handles.values()
                        if h.busy_seq == run.seq
                    ]
        return []

    def close(self, timeout: float = 60.0) -> None:
        """Shut down: cancel everything, drain, stop the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
            while self._queue:
                job = self._queue.popleft()
                job.cancel_requested = True
                self._finish_terminal(job, CANCELLED, "service shut down")
            for run in self.pool.running.values():
                self._jobs[run.job_id].cancel_requested = True
                self.pool.cancel(run)
        self._wake()
        self._scheduler.join(timeout=timeout)
        if self._server is not None:
            self._server.close()
        self.pool.stop()
        with self._lock:
            for job in self._jobs.values():
                if job.state not in TERMINAL_STATES:
                    self._finish_terminal(job, CANCELLED, "service shut down")
        for conn in (self._wake_r, self._wake_w):
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduler internals (lock held unless noted) -------------------------

    def _get(self, job_id: str) -> ServiceJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"!")
        except (OSError, ValueError):
            pass

    def _scheduler_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping and not self.pool.running:
                    return
                self._try_admit()
            self.pool.wait(self._wake_r)
            with self._lock:
                while True:
                    try:
                        if not self._wake_r.poll(0):
                            break
                        self._wake_r.recv_bytes()
                    except (OSError, EOFError):
                        break
                for run in self.pool.step():
                    self._finalize_attempt(run)

    def _try_admit(self) -> None:
        """Strict-FIFO admission: the head blocks until it fits.

        ``break`` (never ``continue``) when the head job does not fit —
        that is what makes over-budget combinations *provably*
        serialized and starvation impossible.
        """
        while self._queue and not self._stopping:
            job = self._queue[0]
            if job.cancel_requested:
                self._queue.popleft()
                self._finish_terminal(job, CANCELLED, "cancelled while queued")
                continue
            idle = self.pool.idle_handles()
            if job.job.n_workers > len(idle):
                break
            if self._reserved_mem + job.mem_cost > self.memory_budget_bytes:
                break
            if (
                self.spill_budget_bytes is not None
                and self._reserved_spill + job.spill_cost
                > self.spill_budget_bytes
            ):
                break
            self._queue.popleft()
            self._admit_and_dispatch(job, idle[: job.job.n_workers])

    def _admit_and_dispatch(self, job: ServiceJob,
                            handles: List[WorkerHandle]) -> None:
        now = time.monotonic()
        job.state = ADMITTED
        if job.admitted is None:
            job.admitted = now
            job.admission_wait = now - job.created
            self.stats.note_admission_wait(job.admission_wait)
        if job.started is None:
            job.started = now
        self._reserved_mem += job.mem_cost
        self._reserved_spill += job.spill_cost
        run = self.pool.dispatch(job.attempt_job, job.id, handles)
        if not run.attempt.failed:  # a worker may die in the dispatch window
            job.state = RUNNING
            self.stats.dispatches += 1

    def _finalize_attempt(self, run: Dispatch) -> None:
        job = self._jobs[run.job_id]
        self._reserved_mem = max(0, self._reserved_mem - job.mem_cost)
        self._reserved_spill = max(0, self._reserved_spill - job.spill_cost)
        try:
            result = run.attempt.outcome(time.monotonic() - job.started)
        except NativeSortError as exc:
            if job.cancel_requested:
                self._finish_terminal(job, CANCELLED, "cancelled while running")
                return
            retry = job.policy.retry(run.attempt.job, exc)
            if retry is None:
                self._finish_terminal(job, FAILED, str(exc))
                return
            # Restart: back to the *front* of the queue at the next
            # epoch — recovery must never starve behind new arrivals.
            self.stats.restarts += 1
            job.attempt_job = retry
            job.state = QUEUED
            self._queue.appendleft(job)
            return
        result.stats.restarts = job.policy.restarts_used
        result.stats.recovery_events = job.policy.to_dicts()
        report = result.validate()
        if not report.ok:
            self._finish_terminal(
                job, FAILED, "invalid output: " + "; ".join(report.issues)
            )
            return
        job.result = result
        self._finish_terminal(job, DONE, None)

    def _finish_terminal(self, job: ServiceJob, state: str,
                         error: Optional[str]) -> None:
        job.state = state
        job.error = error
        job.finished = time.monotonic()
        if state == DONE:
            self.stats.done += 1
        elif state == FAILED:
            self.stats.failed += 1
            if job.job.cleanup_on_abort:
                purge_namespace(self.spill_root, job.namespace)
        else:
            self.stats.cancelled += 1
            # A cancelled job's partial spill state is garbage by
            # definition; the namespace makes this surgically safe.
            purge_namespace(self.spill_root, job.namespace)
        job.done.set()


# ----------------------------------------------------------- control server


class _ControlServer:
    """JSON-over-TCP control plane, reusing the framing layer.

    Every request and reply is one :data:`~repro.net.framing.KIND_CTRL`
    frame whose metadata is a JSON object — the service never unpickles
    anything a client sent, so an untrusted client can at worst submit
    absurd specs, which admission rejects.
    """

    def __init__(self, service: SortService, listen: str):
        from ..net.rendezvous import parse_hostport

        host, port = parse_hostport(listen)
        self._service = service
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.addr = self._sock.getsockname()[:2]
        self._closing = False
        self._accepter = threading.Thread(
            target=self._accept_loop, name="sort-service-accept", daemon=True
        )
        self._accepter.start()

    def close(self) -> None:
        self._closing = True
        try:
            self._sock.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="sort-service-conn", daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        from ..native.comm_api import CommError
        from ..net.framing import KIND_CTRL, recv_frame, send_json_frame

        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except CommError:
                    return
                if frame is None:
                    return
                kind, msg, _epoch, _fence, _nbytes = frame
                if kind != KIND_CTRL or not isinstance(msg, dict):
                    send_json_frame(
                        conn, KIND_CTRL,
                        {"ok": False, "error": "expected a CTRL JSON object"},
                    )
                    continue
                try:
                    reply = self._handle(msg)
                except (ServiceError, JobRejected) as exc:
                    reply = {"ok": False, "error": str(exc)}
                except Exception as exc:  # never tear the conn on a bug
                    reply = {"ok": False, "error": f"internal: {exc!r}"}
                send_json_frame(conn, KIND_CTRL, reply)
                if msg.get("cmd") == "shutdown":
                    return
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, msg: dict) -> dict:
        svc = self._service
        cmd = msg.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pong": True}
        if cmd == "submit":
            spec = msg.get("spec")
            if not isinstance(spec, dict):
                raise ServiceError("submit needs a 'spec' object")
            return {"ok": True, "id": svc.submit(spec)}
        if cmd == "status":
            return {"ok": True, "job": svc.status(msg.get("id", ""))}
        if cmd == "jobs":
            return {"ok": True, "jobs": svc.jobs_snapshot()}
        if cmd == "stats":
            return {"ok": True, "stats": svc.stats_snapshot()}
        if cmd == "cancel":
            return {"ok": True, "state": svc.cancel(msg.get("id", ""))}
        if cmd == "result":
            job_id = msg.get("id", "")
            timeout = msg.get("timeout")
            job = svc.wait(
                job_id, float(timeout) if timeout is not None else None
            )
            reply = {"ok": True, "job": job.snapshot()}
            if job.state == DONE and job.result is not None:
                res = job.result
                reply["result"] = {
                    "validation": {
                        "ok": True,
                        "total_keys": sum(
                            m.n_records for m in res.outputs
                        ),
                        "checksum": f"{res.input_checksum:#x}",
                    },
                    "outputs": [
                        {
                            "rank": m.rank,
                            "path": m.path,
                            "n_records": m.n_records,
                        }
                        for m in res.outputs
                    ],
                    "stats": res.stats.to_dict(),
                }
            return reply
        if cmd == "shutdown":
            threading.Thread(
                target=svc.close, name="sort-service-shutdown", daemon=True
            ).start()
            return {"ok": True, "stopping": True}
        raise ServiceError(f"unknown command {cmd!r}")
