"""Driver: spawn the worker PEs, wire the mesh, collect the result.

The native counterpart of :class:`repro.core.canonical.CanonicalMergeSort`'s
top-level ``sort``: it owns process lifecycle and failure handling, while
all sorting happens inside :mod:`repro.native.worker`.  Two transports
(``job.transport``):

* ``"pipe"`` — the driver builds one duplex pipe per worker pair (the
  full mesh the simulator's ``cluster.mpi`` models), plus one result
  pipe per worker for stats and error reporting;
* ``"tcp"`` — the driver opens a rendezvous endpoint
  (:class:`repro.net.rendezvous.Coordinator`), the workers dial in,
  receive the job and the peer table, and build their own socket mesh.
  The rendezvous connections double as the result channels.  With
  ``job.spawn_workers=False`` no processes are spawned at all — the
  driver waits for externally launched ``python -m repro worker`` PEs
  (other terminals, other hosts).

Failure handling is transport-blind: a worker that reports an error, a
torn or wedged result message, or a death without a report all raise
:class:`NativeSortError` well inside the timeout.  When the job
checkpoints (``max_restarts > 0`` or ``checkpoint=True``) the failure
instead feeds a supervisor loop (see :mod:`repro.recovery`): the driver
re-runs the job at an incremented epoch, the respawned workers resume
from their manifests at the last globally completed phase boundary, and
the stale frames of the dead attempt are fenced off by epoch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, replace as dc_replace
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional

import numpy as np

from ..core.config import SortConfig
from ..workloads.validation import ValidationReport
from .comm_api import DEFAULT_PENDING_SENDS
from .job import NativeJob
from .phases import OutputMeta
from .stats import NativeStats, WorkerStats
from .worker import shm_worker_main, tcp_worker_main, worker_main

__all__ = [
    "NativeSorter",
    "NativeSortResult",
    "NativeSortError",
    "native_sort",
    "assemble_result",
]

_MASK = 0xFFFFFFFFFFFFFFFF

#: How long the driver will wait for the *rest* of a result message once
#: its first bytes have arrived.  Results are small; if a complete
#: message does not materialize in this window the worker died mid-send
#: (a torn/wedged result pipe) and the job must fail fast, not hang.
RESULT_RECV_TIMEOUT = 10.0


def assemble_result(
    job: NativeJob, results: List[tuple], total_time: float
) -> NativeSortResult:
    """Fold per-rank ``("ok", ...)`` payloads into one sort result.

    Shared by the single-shot driver and the sort service's scheduler —
    both collect the same worker reports, whatever channel carried them.
    """
    workers: List[WorkerStats] = []
    outputs: List[OutputMeta] = []
    input_checksum = 0
    n_runs = 0
    for payload in results:
        _tag, stats, out_meta, chk, worker_runs = payload
        workers.append(stats)
        outputs.append(out_meta)
        input_checksum = (input_checksum + chk) & _MASK
        n_runs = max(n_runs, worker_runs)
    outputs.sort(key=lambda m: m.rank)

    native_stats = NativeStats(
        workers,
        total_time=total_time,
        n_runs=n_runs,
        total_records=job.total_records,
        record_bytes=job.record_bytes,
    )
    return NativeSortResult(
        job=job,
        stats=native_stats,
        outputs=outputs,
        input_checksum=input_checksum,
    )


def _cleanup_spill(job: NativeJob) -> None:
    """Delete this job's spill files — and *only* this job's.

    Un-namespaced (single-shot) jobs own their directory and remove it
    wholesale; namespaced jobs share it and remove only their prefix,
    so an abort can never delete a concurrent job's blocks.
    """
    namespace = getattr(job, "spill_namespace", "")
    if namespace:
        from .blockstore import purge_namespace

        purge_namespace(job.spill_dir, namespace)
    else:
        shutil.rmtree(job.spill_dir, ignore_errors=True)


class NativeSortError(RuntimeError):
    """A worker process failed or disappeared.

    ``rank`` names the worker implicated in the failure when the driver
    could attribute it (dead process, error report, torn result); the
    supervisor marks that rank suspect on the next epoch so it
    CRC-verifies its retained spill state before resuming.
    """

    def __init__(self, message: str, rank: Optional[int] = None):
        super().__init__(message)
        self.rank = rank


@dataclass
class NativeSortResult:
    """Outcome of one native sort (files still on disk until cleanup)."""

    job: NativeJob
    stats: NativeStats
    outputs: List[OutputMeta]
    #: Order-independent sum of all input keys, accumulated by the
    #: workers while they streamed the input during run formation.
    input_checksum: int

    def validate(self) -> ValidationReport:
        """Valsort-style verification from the streaming per-rank metadata.

        Works at any scale without re-reading the output: sortedness and
        checksums were computed while the merge wrote each file.
        """
        issues: List[str] = []
        total = sum(meta.n_records for meta in self.outputs)
        if total != self.job.total_records:
            issues.append(
                f"count mismatch: {self.job.total_records} in, {total} out"
            )
        for meta in self.outputs:
            if not meta.sorted_ok:
                issues.append(f"rank {meta.rank} output is not sorted")
        last: Optional[int] = None
        for meta in self.outputs:
            if meta.n_records == 0:
                continue
            if last is not None and meta.first_key is not None and meta.first_key < last:
                issues.append(
                    f"boundary violation between rank {meta.rank - 1} and {meta.rank}"
                )
            last = meta.last_key
        n_workers = len(self.outputs)
        if total == self.job.total_records:
            for meta in self.outputs:
                want = (
                    (meta.rank + 1) * total // n_workers
                    - meta.rank * total // n_workers
                )
                if meta.n_records != want:
                    issues.append(
                        f"rank {meta.rank} holds {meta.n_records} records, "
                        f"canonical share is {want}"
                    )
        out_sum = 0
        for meta in self.outputs:
            out_sum = (out_sum + meta.checksum) & _MASK
        if out_sum != self.input_checksum:
            issues.append(
                f"checksum mismatch: {self.input_checksum:#x} in, {out_sum:#x} out"
            )
        return ValidationReport(
            ok=not issues, issues=issues, total_keys=total, checksum=out_sum
        )

    def output_keys(self) -> List:
        """Per-rank output keys (reads the files; test-scale only).

        ``uint64`` arrays under the fixed model, lists of byte strings
        under the string model — both compare with ``<`` and slot into
        the conformance oracle unchanged.
        """
        model = self.job.model
        return [model.output_keys(meta.path) for meta in self.outputs]

    def output_records(self, rank: int):
        """One rank's decoded output (record array or VarlenBatch)."""
        return self.job.model.read_output(self.outputs[rank].path)

    def cleanup(self) -> None:
        """Delete this job's spill files (the whole dir when un-namespaced)."""
        _cleanup_spill(self.job)


class NativeSorter:
    """Run CANONICALMERGESORT with ``n_workers`` OS processes as PEs."""

    def __init__(self, job: NativeJob):
        self.job = job
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")

    # -- wiring ---------------------------------------------------------------

    def _build_mesh(self):
        """One duplex pipe per worker pair: conns[i][j] is i's end to j."""
        P = self.job.n_workers
        conns: List[Dict[int, object]] = [dict() for _ in range(P)]
        for i in range(P):
            for j in range(i + 1, P):
                end_i, end_j = self._ctx.Pipe(duplex=True)
                conns[i][j] = end_i
                conns[j][i] = end_j
        return conns

    # -- execution ------------------------------------------------------------

    def run(self) -> NativeSortResult:
        """Run the job, supervising restarts when it checkpoints.

        Non-checkpointing jobs keep the PR-1 contract exactly: the first
        failure raises.  Checkpointing jobs get a supervisor loop — each
        failed attempt is recorded, and while the
        :class:`~repro.recovery.supervisor.RestartPolicy` allows it the
        job re-runs at ``epoch + 1`` with the implicated rank marked
        suspect; the workers resume from their manifests.
        """
        from ..recovery.supervisor import RestartPolicy

        job = self.job
        os.makedirs(job.spill_dir, exist_ok=True)
        policy = RestartPolicy(getattr(job, "max_restarts", 0))
        attempt = job
        while True:
            try:
                result = self._run_attempt(attempt)
            except NativeSortError as exc:
                epoch = int(getattr(attempt, "epoch", 0))
                if getattr(job, "checkpointing", False) and policy.record_failure(
                    epoch, getattr(exc, "rank", None), str(exc)
                ):
                    attempt = dc_replace(
                        job, epoch=epoch + 1, suspect_ranks=policy.suspects()
                    )
                    continue
                if getattr(job, "cleanup_on_abort", False):
                    # Best effort only: the job is lost either way, and
                    # chaos tests that *want* the wreckage leave this off.
                    _cleanup_spill(job)
                raise
            result.stats.restarts = policy.restarts_used
            result.stats.recovery_events = policy.to_dicts()
            return result

    def _run_attempt(self, job: NativeJob) -> NativeSortResult:
        if job.transport == "tcp":
            return self._run_tcp(job)
        if job.transport == "shm":
            return self._run_shm(job)
        return self._run_pipe(job)

    def _run_pipe(self, job: NativeJob) -> NativeSortResult:
        mesh = self._build_mesh()
        result_pipes = [self._ctx.Pipe(duplex=False) for _ in range(job.n_workers)]

        procs = []
        start = time.monotonic()
        for rank in range(job.n_workers):
            proc = self._ctx.Process(
                target=worker_main,
                args=(rank, job, mesh[rank], result_pipes[rank][1]),
                name=f"native-pe-{rank}",
            )
            proc.start()
            procs.append(proc)
        # The parent's copies of the worker-side pipe ends must close so
        # a dead worker turns into EOF, not a silent hang.
        for rank in range(job.n_workers):
            for conn in mesh[rank].values():
                conn.close()
            result_pipes[rank][1].close()

        try:
            results = self._collect(procs, [rp[0] for rp in result_pipes])
        finally:
            self._reap(procs)
            for rp in result_pipes:
                rp[0].close()
        return self._assemble(job, results, time.monotonic() - start)

    def _run_shm(self, job: NativeJob) -> NativeSortResult:
        """Same-host execution over shared-memory ring buffers.

        The driver owns the segment names: whatever happens to the
        attempt — success, a chaos ``SIGKILL`` mid-phase, a timeout —
        the ``finally`` unlinks every ring after the workers are
        reaped, so ``/dev/shm`` never accumulates leftovers.
        """
        from .shm import create_shm_mesh

        mesh = create_shm_mesh(
            self._ctx, job.n_workers, ring_bytes=job.ring_bytes,
            job_tag=getattr(job, "job_tag", 0),
        )
        result_pipes = [self._ctx.Pipe(duplex=False) for _ in range(job.n_workers)]

        procs = []
        start = time.monotonic()
        try:
            for rank in range(job.n_workers):
                proc = self._ctx.Process(
                    target=shm_worker_main,
                    args=(rank, job, mesh.channels[rank], result_pipes[rank][1]),
                    name=f"native-pe-{rank}",
                )
                proc.start()
                procs.append(proc)
            # Close the parent's doorbell/result copies so a dead worker
            # turns into EOF for its peers, not a silent hang.
            mesh.close_parent_ends()
            for rank in range(job.n_workers):
                result_pipes[rank][1].close()
            try:
                results = self._collect(procs, [rp[0] for rp in result_pipes])
            finally:
                self._reap(procs)
                for rp in result_pipes:
                    rp[0].close()
        finally:
            mesh.unlink()
        return self._assemble(job, results, time.monotonic() - start)

    def _run_tcp(self, job: NativeJob) -> NativeSortResult:
        """Rendezvous-based execution over the socket transport."""
        from ..net.rendezvous import Coordinator, parse_hostport

        host, port = parse_hostport(job.listen)
        coordinator = Coordinator(job.n_workers, host=host, port=port)
        procs: List = []
        conns: Dict[int, object] = {}
        start = time.monotonic()
        try:
            if not job.spawn_workers:
                # External PEs need the endpoint to dial; port may be
                # ephemeral, so announce the bound address.
                print(
                    f"rendezvous listening on "
                    f"{coordinator.addr[0]}:{coordinator.addr[1]} — start "
                    f"{job.n_workers} workers: python -m repro worker "
                    f"--connect {coordinator.addr[0]}:{coordinator.addr[1]} "
                    f"--rank <0..{job.n_workers - 1}>",
                    file=sys.stderr,
                )
            if job.spawn_workers:
                # Spawned workers take the identical path an external
                # ``repro worker`` process takes — job over the wire —
                # so loopback CI exercises the multi-host handshake.
                for rank in range(job.n_workers):
                    proc = self._ctx.Process(
                        target=tcp_worker_main,
                        args=(rank, coordinator.addr),
                        kwargs={"connect_timeout": job.timeout + 30.0},
                        name=f"native-pe-{rank}",
                    )
                    proc.start()
                    procs.append(proc)

            def health() -> None:
                for rank, proc in enumerate(procs):
                    if not proc.is_alive():
                        raise NativeSortError(
                            f"worker {rank} died during rendezvous "
                            f"(exit code {proc.exitcode})",
                            rank=rank,
                        )

            deadline = time.monotonic() + job.timeout + 30.0
            try:
                conns = coordinator.wait_for_workers(
                    job, deadline, health=health if procs else None
                )
            except NativeSortError:
                raise
            except Exception as exc:
                raise NativeSortError(f"rendezvous failed: {exc}") from exc
            results = self._collect_tcp(procs, conns)
        finally:
            self._reap(procs)
            for sock in conns.values():
                try:
                    sock.close()
                except OSError:
                    pass
            coordinator.close()
        return self._assemble(job, results, time.monotonic() - start)

    def _assemble(
        self, job: NativeJob, results: List[tuple], total_time: float
    ) -> NativeSortResult:
        return assemble_result(job, results, total_time)

    def _collect(self, procs, conns) -> List[tuple]:
        """Wait for every worker's result; fail fast on error or death.

        Hardened against the ways a worker can die *unhelpfully*:

        * **death without EOF** — under the fork start method sibling
          workers inherit each other's pipe write-ends, so a dead
          worker's result pipe never signals EOF while any sibling
          lives.  The wait therefore includes each pending worker's
          process *sentinel*: death wakes the driver immediately.
        * **torn / wedged result message** — a worker killed mid-send
          can leave a partial frame in the pipe; a bare ``recv`` would
          block forever on it.  Every ``recv`` runs under
          :data:`RESULT_RECV_TIMEOUT` (see :meth:`_recv_result`).
        """
        deadline = time.monotonic() + self.job.timeout + 30.0
        pending = dict(enumerate(conns))
        results: List[tuple] = []
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                alive = [r for r in sorted(pending) if procs[r].is_alive()]
                raise NativeSortError(
                    f"timed out waiting for workers {sorted(pending)} "
                    f"(still alive: {alive})"
                )
            by_conn = {id(c): r for r, c in pending.items()}
            sentinels = {procs[r].sentinel: r for r in pending}
            ready = conn_wait(
                list(pending.values()) + list(sentinels),
                timeout=min(1.0, remaining),
            )
            # Results first: a worker that reported and exited promptly
            # trips both its pipe and its sentinel — that is a success.
            got_result = False
            for obj in ready:
                rank = by_conn.get(id(obj))
                if rank is None or rank not in pending:
                    continue
                results.append(self._recv_result(procs[rank], obj, rank))
                del pending[rank]
                got_result = True
            if got_result:
                continue
            for rank in list(pending):
                proc = procs[rank]
                if proc.is_alive():
                    continue
                conn = pending[rank]
                if conn.poll(0):
                    # Death after (or during) the send: drain what there
                    # is — _recv_result turns a torn frame into an error.
                    results.append(self._recv_result(proc, conn, rank))
                    del pending[rank]
                else:
                    raise NativeSortError(
                        f"worker {rank} died (exit code {proc.exitcode}) "
                        "without reporting a result",
                        rank=rank,
                    )
        return results

    def _recv_result(self, proc, conn, rank: int) -> tuple:
        """One result-pipe ``recv`` that cannot hang the driver.

        The receive runs in a helper thread bounded by
        :data:`RESULT_RECV_TIMEOUT`; a worker that died after sending
        only part of a message (or a corrupt frame) surfaces as a
        :class:`NativeSortError` naming the worker and its exit code.
        """
        box: Dict[str, object] = {}

        def _target():
            try:
                box["payload"] = conn.recv()
            except BaseException as exc:  # EOF, OSError, UnpicklingError...
                box["exc"] = exc

        thread = threading.Thread(
            target=_target, name=f"native-result-recv-{rank}", daemon=True
        )
        thread.start()
        thread.join(RESULT_RECV_TIMEOUT)
        if thread.is_alive():
            raise NativeSortError(
                f"worker {rank} result pipe wedged: a partial message "
                f"arrived but never completed (worker "
                f"{'alive' if proc.is_alive() else f'exit code {proc.exitcode}'})",
                rank=rank,
            )
        if "exc" in box:
            raise NativeSortError(
                f"worker {rank} result unreadable: {box['exc']!r} "
                f"(exit code {proc.exitcode})",
                rank=rank,
            )
        return self._check_result_payload(rank, box["payload"])

    def _collect_tcp(self, procs, conns) -> List[tuple]:
        """TCP twin of :meth:`_collect`: result sockets + process sentinels.

        With externally launched workers (``procs`` empty) there are no
        sentinels to watch — a dead worker surfaces as EOF on its result
        socket instead (TCP closes connections on process death, unlike
        the fork-shared pipe write-ends that motivate the sentinels).
        """
        import select as _select

        deadline = time.monotonic() + self.job.timeout + 30.0
        pending = dict(conns)
        results: List[tuple] = []
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                alive = (
                    [r for r in sorted(pending) if procs[r].is_alive()]
                    if procs
                    else "external"
                )
                raise NativeSortError(
                    f"timed out waiting for workers {sorted(pending)} "
                    f"(still alive: {alive})"
                )
            by_sock = {id(s): r for r, s in pending.items()}
            sentinels = {procs[r].sentinel: r for r in pending} if procs else {}
            ready = conn_wait(
                list(pending.values()) + list(sentinels),
                timeout=min(1.0, remaining),
            )
            got_result = False
            for obj in ready:
                rank = by_sock.get(id(obj))
                if rank is None or rank not in pending:
                    continue
                results.append(
                    self._recv_result_tcp(
                        procs[rank] if procs else None, obj, rank
                    )
                )
                del pending[rank]
                got_result = True
            if got_result:
                continue
            for rank in list(pending):
                if not procs or procs[rank].is_alive():
                    continue
                sock = pending[rank]
                readable, _, _ = _select.select([sock], [], [], 0)
                if readable:
                    results.append(
                        self._recv_result_tcp(procs[rank], sock, rank)
                    )
                    del pending[rank]
                else:
                    raise NativeSortError(
                        f"worker {rank} died (exit code {procs[rank].exitcode}) "
                        "without reporting a result",
                        rank=rank,
                    )
        return results

    def _recv_result_tcp(self, proc, sock, rank: int) -> tuple:
        """One framed result receive that cannot hang the driver.

        The socket timeout replaces :meth:`_recv_result`'s helper
        thread: a torn frame, garbage bytes, an unfinished message or a
        silent close all become a :class:`NativeSortError` naming the
        worker within :data:`RESULT_RECV_TIMEOUT`.
        """
        from ..net.framing import KIND_GOODBYE, KIND_RESULT, recv_frame
        from .comm_api import CommError, CommTimeout

        def status() -> str:
            if proc is None:
                return "external"
            return "alive" if proc.is_alive() else f"exit code {proc.exitcode}"

        sock.settimeout(RESULT_RECV_TIMEOUT)
        try:
            frame = recv_frame(sock)
        except CommTimeout:
            raise NativeSortError(
                f"worker {rank} result channel wedged: a partial message "
                f"arrived but never completed (worker {status()})",
                rank=rank,
            ) from None
        except CommError as exc:
            raise NativeSortError(
                f"worker {rank} result unreadable: {exc} (worker {status()})",
                rank=rank,
            ) from exc
        if frame is None:
            raise NativeSortError(
                f"worker {rank} closed its result channel without "
                f"reporting a result (worker {status()})",
                rank=rank,
            )
        kind, payload, _epoch, _fence, _nbytes = frame
        if kind == KIND_GOODBYE:
            # A deliberate close is still not a result: a worker that
            # says GOODBYE on its result channel has abandoned the job.
            raise NativeSortError(
                f"worker {rank} closed its result channel deliberately "
                f"(GOODBYE) without reporting a result (worker {status()})",
                rank=rank,
            )
        if kind != KIND_RESULT:
            raise NativeSortError(
                f"worker {rank} sent frame kind {kind} on the result channel",
                rank=rank,
            )
        return self._check_result_payload(rank, payload)

    @staticmethod
    def _check_result_payload(rank: int, payload) -> tuple:
        if (
            not isinstance(payload, tuple)
            or not payload
            or payload[0] not in ("ok", "error")
            or (payload[0] == "ok" and len(payload) != 5)
            or (payload[0] == "error" and len(payload) != 3)
        ):
            raise NativeSortError(
                f"worker {rank} sent a malformed result: {payload!r}",
                rank=rank,
            )
        if payload[0] == "error":
            raise NativeSortError(
                f"worker {payload[1]} failed:\n{payload[2]}",
                rank=int(payload[1]),
            )
        return payload

    @staticmethod
    def _reap(procs) -> None:
        """Terminate stragglers, escalating to SIGKILL; never wait forever."""
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10.0)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - SIGTERM normally works
                proc.kill()
                proc.join(timeout=5.0)


def native_sort(
    config: SortConfig,
    n_workers: int,
    spill_dir: str,
    skew: bool = False,
    timeout: float = 300.0,
    transport: str = "pipe",
    pending_sends: int = DEFAULT_PENDING_SENDS,
    prefetch_blocks: int = 0,
    write_behind_blocks: int = 0,
    max_restarts: int = 0,
    checkpoint: bool = False,
    records: str = "fixed16",
    algo: str = "canonical",
    shm_ring_kib: "int | None" = None,
) -> NativeSortResult:
    """Convenience one-call native sort (generate, sort, return result).

    ``transport`` picks the interconnect substrate (``"pipe"`` or
    ``"tcp"``, see :mod:`repro.net`); ``prefetch_blocks`` /
    ``write_behind_blocks`` enable the pipelined I/O layer
    (:mod:`repro.native.pipeline`); both default to 0, the synchronous
    path.  ``max_restarts`` / ``checkpoint`` enable the recovery
    subsystem (:mod:`repro.recovery`): workers journal phase-boundary
    manifests and the driver restarts failed attempts.
    """
    job = NativeJob(
        config=config,
        n_workers=n_workers,
        spill_dir=spill_dir,
        skew=skew,
        timeout=timeout,
        transport=transport,
        pending_sends=pending_sends,
        prefetch_blocks=prefetch_blocks,
        write_behind_blocks=write_behind_blocks,
        max_restarts=max_restarts,
        checkpoint=checkpoint,
        records=records,
        algo=algo,
        shm_ring_kib=shm_ring_kib,
    )
    return NativeSorter(job).run()
