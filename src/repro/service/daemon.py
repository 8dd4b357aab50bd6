"""Sort-as-a-service: a multi-job scheduler over the warm PE pool.

:class:`SortService` is the long-running counterpart of the single-shot
:class:`~repro.native.driver.NativeSorter`: it owns a
:class:`~repro.service.pool.WarmPool` of persistent worker processes
and multiplexes any number of client sort jobs over it.

One **scheduler thread** owns all mutable state (under one lock shared
with the thin client-facing entry points) and runs the whole control
loop: admission, dispatch, result collection, failure handling,
restarts, and worker respawn.  It blocks in one
``multiprocessing.connection.wait`` over

* a wakeup pipe (submissions, cancels, shutdown poke it),
* every pool worker's control pipe (results),
* every pool worker's process sentinel (deaths).

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

**Failure handling** applies the recovery subsystem per job: a worker
death (or error report) fails only the attempt it was running; the
job's own :class:`~repro.recovery.supervisor.RestartPolicy` decides
whether it re-queues (at the *front*, epoch + 1, implicated rank marked
suspect) or fails for good.  The dead worker is respawned and the pool
keeps serving every other job throughout.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Set

from ..native.blockstore import purge_namespace
from ..native.driver import assemble_result
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
from .pool import MSG_RESULT, WarmPool, WorkerHandle
from .stats import ServiceStats

__all__ = ["SortService"]

#: Grace beyond a job's own timeout before the scheduler declares an
#: attempt wedged and interrupts it; one more grace period later the
#: still-busy workers are killed outright (their deaths then unwind the
#: attempt through the normal sentinel path).
ATTEMPT_GRACE = 30.0
KILL_GRACE = 15.0


@dataclass
class _Attempt:
    """One dispatch of one job onto a set of pool workers."""

    seq: int
    job_id: str
    epoch: int
    handles: Dict[int, WorkerHandle]  # rank -> handle
    outstanding: Set[int]  # ranks still owing a result
    started: float
    deadline: float
    results: Dict[int, tuple] = field(default_factory=dict)
    failed: bool = False
    fail_rank: Optional[int] = None
    fail_error: str = ""
    interrupted: bool = False
    killed: bool = False


class SortService:
    """A persistent sort service over a warm pool of ``pool_size`` PEs."""

    def __init__(
        self,
        pool_size: int = 4,
        spill_root: str = "spill-service",
        listen: Optional[str] = "127.0.0.1:0",
        memory_budget_bytes: Optional[int] = None,
        spill_budget_bytes: Optional[int] = None,
        ctx=None,
    ):
        self.spill_root = str(spill_root)
        self.pool = WarmPool(pool_size, ctx)
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
        self._attempts: Dict[int, _Attempt] = {}
        self._next_num = 1
        self._next_seq = 1
        self._reserved_mem = 0
        self._reserved_spill = 0
        self._stopping = False
        self._closed = False
        self.stats = ServiceStats()
        self._wake_r, self._wake_w = self.pool._ctx.Pipe(duplex=False)
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
                running=len(self._attempts),
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
                for attempt in self._attempts.values():
                    if attempt.job_id == job_id:
                        self._interrupt_attempt(attempt)
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
            for attempt in self._attempts.values():
                if attempt.job_id == job_id:
                    return [
                        h.pid
                        for h in attempt.handles.values()
                        if h.busy_seq == attempt.seq
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
            for attempt in self._attempts.values():
                self._jobs[attempt.job_id].cancel_requested = True
                self._interrupt_attempt(attempt)
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
                if self._stopping and not self._attempts:
                    return
                self._try_admit()
                waits = [self._wake_r]
                sentinels = {}
                for handle in self.pool.handles:
                    waits.append(handle.ctrl)
                    sentinels[handle.proc.sentinel] = handle
                waits.extend(sentinels)
            try:
                conn_wait(waits, timeout=0.25)
            except OSError:
                # A pipe was torn down under us (respawn/shutdown race);
                # the state re-check below sorts it out.
                time.sleep(0.01)
            with self._lock:
                while True:
                    try:
                        if not self._wake_r.poll(0):
                            break
                        self._wake_r.recv_bytes()
                    except (OSError, EOFError):
                        break
                for handle in list(self.pool.handles):
                    self._drain_ctrl(handle)
                for handle in list(self.pool.handles):
                    if not handle.proc.is_alive():
                        self._worker_died(handle)
                self._check_deadlines()

    def _drain_ctrl(self, handle: WorkerHandle) -> None:
        while True:
            try:
                if not handle.ctrl.poll(0):
                    return
                msg = handle.ctrl.recv()
            except (OSError, EOFError):
                # Death surfaces through the sentinel pass right after.
                return
            if (
                not isinstance(msg, tuple)
                or len(msg) != 3
                or msg[0] != MSG_RESULT
            ):
                continue
            _verb, seq, payload = msg
            self._route_result(handle, seq, payload)

    def _route_result(self, handle: WorkerHandle, seq: int, payload) -> None:
        rank = handle.job_rank
        if handle.busy_seq == seq:
            handle.mark_idle()
        attempt = self._attempts.get(seq)
        if attempt is None or rank is None or rank not in attempt.outstanding:
            return  # late report from an attempt already torn down
        attempt.outstanding.discard(rank)
        if (
            isinstance(payload, tuple)
            and len(payload) == 5
            and payload[0] == "ok"
        ):
            attempt.results[rank] = payload
        elif (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == "error"
        ):
            self._fail_attempt(attempt, int(payload[1]), str(payload[2]))
        else:
            self._fail_attempt(
                attempt, rank, f"malformed result: {payload!r}"
            )
        if not attempt.outstanding:
            self._finalize_attempt(attempt)

    def _worker_died(self, handle: WorkerHandle) -> None:
        seq, rank = handle.busy_seq, handle.job_rank
        pid, code = handle.pid, handle.proc.exitcode
        handle.mark_idle()
        self.pool.respawn(handle)
        if seq is None:
            return
        attempt = self._attempts.get(seq)
        if attempt is None or rank not in attempt.outstanding:
            return
        attempt.outstanding.discard(rank)
        death = f"pool worker died mid-job (pid {pid}, exit code {code})"
        if attempt.failed and not attempt.killed:
            # A surviving peer's "closed its pipe" CommError may race in
            # ahead of the sentinel; the death is the root cause, so it
            # wins the attribution (unless *we* killed the worker past
            # the deadline grace, where the timeout message stands).
            attempt.fail_rank = rank
            attempt.fail_error = death
        self._fail_attempt(attempt, rank, death)
        if not attempt.outstanding:
            self._finalize_attempt(attempt)

    def _fail_attempt(self, attempt: _Attempt, rank: Optional[int],
                      error: str) -> None:
        if not attempt.failed:
            attempt.failed = True
            attempt.fail_rank = rank
            attempt.fail_error = error
        self._interrupt_attempt(attempt)

    def _interrupt_attempt(self, attempt: _Attempt) -> None:
        if attempt.interrupted:
            return
        attempt.interrupted = True
        for handle in attempt.handles.values():
            if handle.busy_seq == attempt.seq:
                self.pool.interrupt(handle, attempt.seq)

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for attempt in list(self._attempts.values()):
            if now >= attempt.deadline and not attempt.failed:
                self._fail_attempt(
                    attempt, None,
                    f"attempt timed out after "
                    f"{attempt.deadline - attempt.started:.0f}s",
                )
            if now >= attempt.deadline + KILL_GRACE and not attempt.killed:
                attempt.killed = True
                for handle in attempt.handles.values():
                    if (
                        handle.busy_seq == attempt.seq
                        and handle.proc.is_alive()
                    ):
                        handle.proc.terminate()

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
        self._reserved_mem += job.mem_cost
        self._reserved_spill += job.spill_cost
        seq = self._next_seq
        self._next_seq += 1
        native = job.attempt_job()
        attempt = _Attempt(
            seq=seq,
            job_id=job.id,
            epoch=job.epoch,
            handles=dict(enumerate(handles)),
            outstanding=set(range(native.n_workers)),
            started=now,
            deadline=now + native.timeout + ATTEMPT_GRACE,
        )
        self._attempts[seq] = attempt
        try:
            self.pool.dispatch(native, seq, job.id, handles)
        except Exception as exc:  # a worker died in the dispatch window
            dispatched = {
                rank
                for rank, h in attempt.handles.items()
                if h.busy_seq == seq
            }
            attempt.outstanding = dispatched
            self._fail_attempt(attempt, None, f"dispatch failed: {exc}")
            if not attempt.outstanding:
                self._finalize_attempt(attempt)
            return
        job.state = RUNNING
        if job.started is None:
            job.started = now
        self.stats.dispatches += 1

    def _finalize_attempt(self, attempt: _Attempt) -> None:
        self._attempts.pop(attempt.seq, None)
        # Whatever the outcome, the attempt's shm mesh (if its job ran
        # the shm transport) is done: unlink the segment names now.  A
        # straggler PE still attached keeps its mapping until it closes.
        self.pool.release_mesh(attempt.seq)
        job = self._jobs[attempt.job_id]
        self._reserved_mem = max(0, self._reserved_mem - job.mem_cost)
        self._reserved_spill = max(0, self._reserved_spill - job.spill_cost)
        if attempt.failed:
            if job.cancel_requested:
                self._finish_terminal(job, CANCELLED, "cancelled while running")
            elif job.job.checkpointing and job.policy.record_failure(
                attempt.epoch, attempt.fail_rank, attempt.fail_error
            ):
                # Restart: back to the *front* of the queue at the next
                # epoch — recovery must never starve behind new arrivals.
                self.stats.restarts += 1
                job.epoch = attempt.epoch + 1
                job.suspects = job.policy.suspects()
                job.state = QUEUED
                self._queue.appendleft(job)
            else:
                self._finish_terminal(job, FAILED, attempt.fail_error)
            return
        ordered = [attempt.results[rank] for rank in sorted(attempt.results)]
        result = assemble_result(
            job.attempt_job(), ordered, time.monotonic() - job.started
        )
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
            if getattr(job.job, "cleanup_on_abort", False):
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
