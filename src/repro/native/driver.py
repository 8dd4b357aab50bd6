"""Driver: spawn the worker PEs, wire the mesh, collect the result.

The native counterpart of :class:`repro.core.canonical.CanonicalMergeSort`'s
top-level ``sort``: it owns process lifecycle and failure handling, while
all sorting happens inside :mod:`repro.native.worker`.  Three transports
(``job.transport``), two ways to start the PEs:

* ``"pipe"`` and ``"shm"`` — the driver builds the same-host mesh (one
  duplex pipe, or one pair of shared-memory rings, per worker pair;
  :func:`repro.native.transport.local_mesh`), forks one worker per rank
  with its endpoints, and gives each a result pipe for stats and error
  reporting;
* ``"tcp"`` — the driver opens a rendezvous endpoint
  (:class:`repro.net.rendezvous.Coordinator`), the workers dial in,
  receive the job and the peer table, and build their own socket mesh.
  The rendezvous connections double as the result channels
  (:class:`repro.net.rendezvous.ResultChannel`).  With
  ``job.spawn_workers=False`` no processes are spawned at all — the
  driver waits for externally launched ``python -m repro worker`` PEs
  (other terminals, other hosts).

Failure handling is transport-blind — one collector reads every result
channel: a worker that reports an error, a torn or wedged result
message, or a death without a report all raise
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

from ..core.config import SortConfig
from ..core.stats import SortStats, WorkerStats
from ..workloads.validation import ValidationReport
from .comm_api import DEFAULT_PENDING_SENDS
from .job import NativeJob
from .phases import OutputMeta
from .transport import LocalMesh, local_mesh
from .worker import tcp_worker_main, worker_main

__all__ = [
    "NativeSorter",
    "NativeSortResult",
    "NativeSortError",
    "native_sort",
    "assemble_result",
    "check_result_payload",
]

_MASK = 0xFFFFFFFFFFFFFFFF

#: How long the driver looks for a sibling that died without reporting
#: once a worker has reported an error: a kill makes its peers fail on
#: the dead channel, and the survivor's report can arrive before the
#: dead worker's process sentinel fires.
DEATH_GRACE_S = 1.0

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

    stats = SortStats(workers=workers)
    stats.total_time = total_time
    stats.n_runs = n_runs
    stats.total_records = job.total_records
    stats.record_bytes = job.record_bytes
    return NativeSortResult(
        job=job,
        stats=stats,
        outputs=outputs,
        input_checksum=input_checksum,
    )


def _cleanup_spill(job: NativeJob) -> None:
    """Delete this job's spill files — and *only* this job's.

    Un-namespaced (single-shot) jobs own their directory and remove it
    wholesale; namespaced jobs share it and remove only their prefix,
    so an abort can never delete a concurrent job's blocks.
    """
    if job.spill_namespace:
        from .blockstore import purge_namespace

        purge_namespace(job.spill_dir, job.spill_namespace)
    else:
        shutil.rmtree(job.spill_dir, ignore_errors=True)


def _local_worker(rank: int, mesh: LocalMesh, job: NativeJob, result_conn) -> None:
    """A same-host PE: :func:`worker_main` over its own ends of ``mesh``."""
    worker_main(rank, job, mesh.own_ends(rank), result_conn)


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


def check_result_payload(rank: int, payload) -> tuple:
    """Return rank ``rank``'s ``("ok", ...)`` report, or raise.

    An ``("error", rank, traceback)`` report raises the worker's own
    failure; anything else that is not a well-shaped report raises as
    malformed.  The driver's collector and the service's result routing
    both apply it to what a worker sent.
    """
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


@dataclass
class NativeSortResult:
    """Outcome of one native sort (files still on disk until cleanup)."""

    job: NativeJob
    stats: SortStats
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
        policy = RestartPolicy(job.max_restarts)
        attempt = job
        while True:
            try:
                if attempt.transport == "tcp":
                    result = self._run_tcp(attempt)
                else:
                    result = self._run_local(attempt)
            except NativeSortError as exc:
                epoch = attempt.epoch
                if job.checkpointing and policy.record_failure(
                    epoch, exc.rank, str(exc)
                ):
                    attempt = dc_replace(
                        job, epoch=epoch + 1, suspect_ranks=policy.suspects()
                    )
                    continue
                if job.cleanup_on_abort:
                    # Best effort only: the job is lost either way, and
                    # chaos tests that *want* the wreckage leave this off.
                    _cleanup_spill(job)
                raise
            result.stats.restarts = policy.restarts_used
            result.stats.recovery_events = policy.to_dicts()
            return result

    def _spawn(self, rank: int, target, *args, **kwargs):
        proc = self._ctx.Process(
            target=target, args=(rank, *args), kwargs=kwargs,
            name=f"native-pe-{rank}",
        )
        proc.start()
        return proc

    def _run_local(self, job: NativeJob) -> NativeSortResult:
        """Same-host execution over a pipe or shm mesh, one result pipe
        per worker.

        The driver owns the mesh: whatever happens to the attempt —
        success, a chaos ``SIGKILL`` mid-phase, a timeout — the
        ``finally`` releases it after the workers are reaped, so
        ``/dev/shm`` never accumulates leftovers.
        """
        mesh = local_mesh(self._ctx, job)
        result_pipes = [self._ctx.Pipe(duplex=False) for _ in range(job.n_workers)]
        procs: List = []
        start = time.monotonic()
        try:
            for rank in range(job.n_workers):
                procs.append(self._spawn(
                    rank, _local_worker, mesh, job, result_pipes[rank][1],
                ))
            # The parent's copies of the worker-side ends must close so
            # a dead worker turns into EOF, not a silent hang.
            mesh.close_parent_ends()
            for _reader, writer in result_pipes:
                writer.close()
            results = self._collect(procs, [r for r, _w in result_pipes])
        finally:
            self._reap(procs)
            for reader, _writer in result_pipes:
                reader.close()
            mesh.release()
        return assemble_result(job, results, time.monotonic() - start)

    def _run_tcp(self, job: NativeJob) -> NativeSortResult:
        """Rendezvous-based execution over the socket transport."""
        from ..net.rendezvous import Coordinator, ResultChannel, parse_hostport

        host, port = parse_hostport(job.listen)
        coordinator = Coordinator(job.n_workers, host=host, port=port)
        procs: List = []
        channels: List[ResultChannel] = []
        start = time.monotonic()
        try:
            if job.spawn_workers:
                # Spawned workers take the identical path an external
                # ``repro worker`` process takes — job over the wire —
                # so loopback CI exercises the multi-host handshake.
                for rank in range(job.n_workers):
                    procs.append(self._spawn(
                        rank, tcp_worker_main, coordinator.addr,
                        connect_timeout=job.timeout + 30.0,
                    ))
            else:
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
                socks = coordinator.wait_for_workers(
                    job, deadline, health=health if procs else None
                )
            except NativeSortError:
                raise
            except Exception as exc:
                raise NativeSortError(f"rendezvous failed: {exc}") from exc
            channels = [ResultChannel(socks[r]) for r in range(job.n_workers)]
            results = self._collect(procs, channels)
        finally:
            self._reap(procs)
            for channel in channels:
                channel.close()
            coordinator.close()
        return assemble_result(job, results, time.monotonic() - start)

    def _collect(self, procs, conns) -> List[tuple]:
        """Wait for every worker's result; fail fast on error or death.

        ``conns[rank]`` is rank's result channel — a pipe end, or a
        :class:`~repro.net.rendezvous.ResultChannel` over its rendezvous
        socket; both offer ``fileno`` / ``poll`` / ``recv``.  Hardened
        against the ways a worker can die *unhelpfully*:

        * **death without EOF** — under the fork start method sibling
          workers inherit each other's pipe write-ends, so a dead
          worker's result pipe never signals EOF while any sibling
          lives.  The wait therefore includes each pending worker's
          process *sentinel*: death wakes the driver immediately.
          Externally launched workers (``procs`` empty) have none; a
          dead one surfaces as EOF on its socket, which TCP delivers on
          process death.
        * **torn / wedged result message** — a worker killed mid-send
          can leave a partial frame behind; a bare ``recv`` would block
          forever on it.  Every ``recv`` runs under
          :data:`RESULT_RECV_TIMEOUT` (see :meth:`_read_result`).
        * **collateral errors** — a dead worker's peers fail on its
          channel and report that, sometimes before its sentinel fires.
          An error report is therefore held for up to
          :data:`DEATH_GRACE_S` while the other pending workers settle;
          if one of them died without reporting, the failure names it,
          with the report as the collateral it is (see
          :meth:`_blame_silent_death`).
        """
        deadline = time.monotonic() + self.job.timeout + 30.0
        pending = dict(enumerate(conns))
        results: List[tuple] = []
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                alive = (
                    [r for r in sorted(pending) if procs[r].is_alive()]
                    if procs else "external"
                )
                raise NativeSortError(
                    f"timed out waiting for workers {sorted(pending)} "
                    f"(still alive: {alive})"
                )
            by_conn = {id(c): r for r, c in pending.items()}
            sentinels = [procs[r].sentinel for r in pending] if procs else []
            ready = conn_wait(
                list(pending.values()) + sentinels,
                timeout=min(1.0, remaining),
            )
            # Results first: a worker that reported and exited promptly
            # trips both its channel and its sentinel — that is a success.
            got_result = False
            for obj in ready:
                rank = by_conn.get(id(obj))
                if rank is None or rank not in pending:
                    continue
                results.append(self._take(procs, pending, rank))
                got_result = True
            if got_result or not procs:
                continue
            for rank in list(pending):
                proc = procs[rank]
                if proc.is_alive():
                    continue
                if pending[rank].poll(0):
                    # Death after (or during) the send: drain what there
                    # is — _read_result turns a torn frame into an error.
                    results.append(self._take(procs, pending, rank))
                else:
                    raise NativeSortError(
                        f"worker {rank} died (exit code {proc.exitcode}) "
                        "without reporting a result",
                        rank=rank,
                    )
        return results

    def _take(self, procs, pending, rank: int) -> tuple:
        """Pop ``rank``'s result off ``pending`` and return its report.

        A report of an error raises — naming the worker that died
        without reporting instead, if one does within the grace
        (:meth:`_blame_silent_death`).
        """
        payload = self._read_result(procs, pending.pop(rank), rank)
        try:
            return check_result_payload(rank, payload)
        except NativeSortError as report:
            self._blame_silent_death(procs, pending, report)
            raise

    def _blame_silent_death(self, procs, pending, report: NativeSortError):
        """Raise for a pending worker that dies without a result within
        :data:`DEATH_GRACE_S`; return once none can any more.

        ``report`` is the error another worker reported.  The grace ends
        early once every pending worker has exited.  A dead worker whose
        channel holds a readable result reported and is not blamed; one
        whose channel is empty, closed or torn died silently, and the
        error names it, quoting ``report`` as collateral.
        """
        if not procs:
            return
        until = time.monotonic() + DEATH_GRACE_S
        settled = set()
        while True:
            for rank, conn in pending.items():
                proc = procs[rank]
                if rank in settled or proc.is_alive():
                    continue
                settled.add(rank)
                if conn.poll(0):
                    try:
                        self._read_result(procs, conn, rank)
                        continue
                    except NativeSortError:
                        pass  # EOF or a torn frame: no report
                raise NativeSortError(
                    f"worker {rank} died (exit code {proc.exitcode}) without "
                    f"reporting a result; collateral: {report}",
                    rank=rank,
                ) from report
            alive = [procs[r].sentinel for r in pending if r not in settled]
            left = until - time.monotonic()
            if not alive or left <= 0:
                return
            conn_wait(alive, timeout=left)

    def _read_result(self, procs, conn, rank: int):
        """One result ``recv`` that cannot hang the driver; returns the
        payload unchecked.

        The receive runs in a helper thread bounded by
        :data:`RESULT_RECV_TIMEOUT`; a worker that died after sending
        only part of a message, a corrupt frame or a close before any
        result surfaces as a :class:`NativeSortError` naming the worker
        and its exit code.
        """
        box: Dict[str, object] = {}

        def _target():
            try:
                box["payload"] = conn.recv()
            except BaseException as exc:  # EOF, OSError, UnpicklingError...
                box["exc"] = exc

        def status() -> str:
            if not procs:
                return "external"
            proc = procs[rank]
            return "alive" if proc.is_alive() else f"exit code {proc.exitcode}"

        thread = threading.Thread(
            target=_target, name=f"native-result-recv-{rank}", daemon=True
        )
        thread.start()
        thread.join(RESULT_RECV_TIMEOUT)
        if thread.is_alive():
            raise NativeSortError(
                f"worker {rank} result channel wedged: a partial message "
                f"arrived but never completed (worker {status()})",
                rank=rank,
            )
        if "exc" in box:
            raise NativeSortError(
                f"worker {rank} result unreadable: {box['exc']!r} "
                f"(worker {status()})",
                rank=rank,
            )
        return box["payload"]

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
    )
    return NativeSorter(job).run()
