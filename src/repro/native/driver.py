"""Driver: start the worker PEs, wire the mesh, collect the result.

The native counterpart of :class:`repro.core.canonical.CanonicalMergeSort`'s
top-level ``sort``: it owns process lifecycle and failure handling, while
all sorting happens inside :mod:`repro.native.worker`.  Three transports
(``job.transport``), two ways to start the PEs:

* ``"pipe"`` and ``"shm"`` — one dispatch on a pool of P built for the
  attempt (:class:`repro.native.pool.WarmPool`, the sort service's
  pool): the pool forks the PEs, sends each its own mesh ends, reads
  their reports on its control pipes and stops them, through the same
  supervisor step (:meth:`~repro.native.pool.WarmPool.step`) the
  service runs;
* ``"tcp"`` — the driver opens a rendezvous endpoint
  (:class:`repro.net.rendezvous.Coordinator`), the workers dial in,
  receive the job and the peer table, and build their own socket mesh.
  The rendezvous connections double as the result channels
  (:class:`repro.net.rendezvous.ResultChannel`).  With
  ``job.spawn_workers=False`` no processes are spawned at all — the
  driver waits for externally launched ``python -m repro worker`` PEs
  (other terminals, other hosts).

Failure handling is one rule, shared by every supervisor
(:class:`Attempt`): the attempt fails at its first own failure — a
worker's error report, a death without a result, an unreadable result
or the deadline — and the supervisor then stops every worker that has
not settled (SIGTERM), waits for their exits and blames by how each rank
ended: a rank that ended by itself without a result first, then the
reporting rank, then the deadline.  When the job checkpoints
(``max_restarts > 0`` or ``checkpoint=True``) the failure instead feeds
a supervisor loop (see :mod:`repro.recovery`): the driver re-runs the
job at an incremented epoch, the respawned workers resume from their
manifests at the last globally completed phase boundary, and the stale
frames of the dead attempt are fenced off by epoch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import signal
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Set, Tuple

from ..core.config import SortConfig
from ..core.stats import SortStats, WorkerStats
from ..workloads.validation import ValidationReport
from .comm_api import DEFAULT_PENDING_SENDS
from .job import NativeJob
from .phases import OutputMeta
from .worker import tcp_worker_main

__all__ = [
    "Attempt",
    "NativeSorter",
    "NativeSortResult",
    "NativeSortError",
    "native_sort",
    "read_result",
    "reap",
]

_MASK = 0xFFFFFFFFFFFFFFFF

#: How long past the job's own ``timeout`` a supervisor waits for an
#: attempt before it stops it.  Every receive inside a PE is bounded by
#: ``timeout``, so a live attempt fails or finishes well before; the
#: grace covers a PE that never gets to a receive (or a rendezvous).
DEADLINE_GRACE_S = 30.0

#: How long a stopped worker may outlive its SIGTERM before its
#: supervisor sends SIGKILL.  A worker dies of SIGTERM at once unless it
#: blocks or catches it (a pool worker resets an inherited handler, a
#: spawned tcp worker does not); this bound keeps such a stop from
#: holding an attempt open.
SIGKILL_AFTER_S = 5.0

#: How long the driver will wait for the *rest* of a result message once
#: its first bytes have arrived.  Results are small; if a complete
#: message does not materialize in this window the worker died mid-send
#: (a torn/wedged result pipe) and the job must fail fast, not hang.
RESULT_RECV_TIMEOUT = 10.0


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


class Attempt:
    """One attempt of one job, as its supervisor sees it.

    Every supervisor — :meth:`~repro.native.pool.WarmPool.step`, for a
    one-shot pipe or shm sort and for the sort service alike, and
    :class:`NativeSorter`'s tcp collector — feeds it how each rank
    ended, and it alone decides the outcome.  Per rank, exactly one of:

    * :meth:`received` — a message on the rank's result channel: its
      result, or an error report;
    * :meth:`ended` — the rank ended without a readable result (death,
      EOF, a torn frame).

    The attempt has :attr:`failed` at its first own failure: an error
    report, an end without a result, or :meth:`expire` at the
    :attr:`deadline`.  Every phase ends in a collective, so the other
    ranks can only stall from then on: the supervisor stops those still
    :attr:`pending` (:meth:`stop`, then SIGTERM), waits for their exits,
    feeds them in and asks for the :meth:`outcome`.  Blame follows how each
    rank ended: a rank that ended by itself without a result first (its
    peers' reports of the dead channel are collateral), otherwise the
    first reporting rank, otherwise the deadline.  A rank the
    supervisor stopped is never blamed.  No grace is needed to get this
    right: a dead PE's exit status is fixed before the kernel closes its
    fds, so a peer's report of the EOF cannot overtake the death, and a
    SIGTERM that lands on a rank already dying leaves its own status in
    place — which is how :meth:`ended` tells the two apart.  A stopped
    rank still alive :data:`SIGKILL_AFTER_S` later is killed
    (:meth:`escalate`), and that SIGKILL is the supervisor's too.
    """

    def __init__(self, job: NativeJob, started: float):
        self.job = job
        self.started = started
        self.deadline = started + job.timeout + DEADLINE_GRACE_S
        self._results: Dict[int, tuple] = {}
        #: (rank, message) of each error report, in arrival order.  Only
        #: text is kept: a stored exception that is raised again would
        #: tie this attempt, through its traceback, into a cycle.
        self._reports: List[Tuple[int, str]] = []
        #: Ranks that ended by themselves without a result, and how.
        self._lost: Dict[int, str] = {}
        #: The signals the supervisor sent each rank it stopped: an end
        #: by one of them is the stop's, not the rank's own.
        self._sent: Dict[int, Set[int]] = {}
        self._settled: Set[int] = set()
        #: The ranks still pending when the deadline passed, if it did.
        self._expired: Optional[List[int]] = None

    @property
    def pending(self) -> List[int]:
        """Ranks that have neither reported nor ended."""
        return [r for r in range(self.job.n_workers) if r not in self._settled]

    @property
    def failed(self) -> bool:
        return bool(self._reports or self._lost) or self._expired is not None

    def received(self, rank: int, payload) -> None:
        """Rank ``rank`` sent ``payload``: an ``("ok", ...)`` result or
        an ``("error", rank, traceback)`` report; anything else is a
        malformed result, reported against the rank."""
        self._settled.add(rank)
        kind = payload[0] if isinstance(payload, tuple) and payload else None
        if kind == "ok" and len(payload) == 5:
            self._results[rank] = payload
        elif kind == "error" and len(payload) == 3:
            self._reports.append(
                (int(payload[1]), f"worker {payload[1]} failed:\n{payload[2]}")
            )
        else:
            self._reports.append(
                (rank, f"worker {rank} sent a malformed result: {payload!r}")
            )

    def ended(self, rank: int, exitcode: Optional[int],
              why: Optional[str] = None) -> None:
        """Rank ``rank`` ended without a readable result: ``exitcode``
        is its exit status (None without a process, e.g. an external tcp
        worker), ``why`` what its channel showed.  A rank that ended
        by a signal the supervisor sent it (:meth:`stop`,
        :meth:`escalate`) was stopped; any other end is the rank's own."""
        self._settled.add(rank)
        if exitcode is not None and -exitcode in self._sent.get(rank, ()):
            return
        self._lost[rank] = why or (
            f"worker {rank} died (exit code {exitcode}) without reporting "
            "a result"
        )

    def expire(self) -> None:
        """The deadline passed: fail the attempt if ranks are still
        pending (one whose last rank just reported has not timed out)."""
        if self._expired is None and self.pending:
            self._expired = self.pending

    def stop(self) -> List[int]:
        """Mark every pending rank not yet stopped as stopped and return
        them; the supervisor sends each a SIGTERM."""
        fresh = [r for r in self.pending if r not in self._sent]
        for rank in fresh:
            self._sent[rank] = {signal.SIGTERM}
        return fresh

    def escalate(self, rank: int) -> None:
        """The supervisor sends the stopped ``rank`` SIGKILL: it outlived
        its SIGTERM by :data:`SIGKILL_AFTER_S`."""
        self._sent.setdefault(rank, set()).add(signal.SIGKILL)

    def outcome(self, total_time: float) -> NativeSortResult:
        """The attempt's result, or the :class:`NativeSortError` that
        blames it (see the class docstring for the order)."""
        if self._lost:
            rank, why = next(iter(self._lost.items()))
            if self._reports:
                why += f"; collateral: {self._reports[0][1]}"
            raise NativeSortError(why, rank=rank)
        if self._reports:
            rank, report = self._reports[0]
            raise NativeSortError(report, rank=rank)
        if self._expired is not None:
            raise NativeSortError(
                f"timed out after {self.deadline - self.started:.0f}s "
                f"waiting for workers {self._expired}"
            )
        return self._assemble(total_time)

    def _assemble(self, total_time: float) -> NativeSortResult:
        """Fold the per-rank results, in rank order, into one result."""
        job = self.job
        workers: List[WorkerStats] = []
        outputs: List[OutputMeta] = []
        input_checksum = 0
        n_runs = 0
        for rank in sorted(self._results):
            _tag, stats, out_meta, chk, worker_runs = self._results[rank]
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
            job=job, stats=stats, outputs=outputs,
            input_checksum=input_checksum,
        )


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
                attempt = policy.retry(attempt, exc)
                if attempt is not None:
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
        """Same-host execution over a pipe or shm mesh: one dispatch on a
        pool of P, retired at once so each PE exits as soon as it reports,
        supervised by the sort service's step until no rank is pending.
        Whatever happens to the attempt, the ``finally`` stops the pool,
        which releases the mesh, so ``/dev/shm`` never accumulates
        leftovers."""
        from .pool import WarmPool

        start = time.monotonic()
        pool = WarmPool(job.n_workers)
        try:
            run = pool.dispatch(job, "", pool.handles)
            pool.retire(pool.handles)
            while pool.running:
                pool.wait()
                pool.step()
        finally:
            pool.stop()
        return run.attempt.outcome(time.monotonic() - start)

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
                        connect_timeout=job.timeout + DEADLINE_GRACE_S,
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

            try:
                socks = coordinator.wait_for_workers(
                    job, start + job.timeout + DEADLINE_GRACE_S,
                    health=health if procs else None,
                )
            except NativeSortError:
                raise
            except Exception as exc:
                raise NativeSortError(f"rendezvous failed: {exc}") from exc
            channels = [ResultChannel(socks[r]) for r in range(job.n_workers)]
            # The sort's own deadline starts once the mesh is up: external
            # workers may take a while to dial in.
            attempt = Attempt(job, time.monotonic())
            self._supervise(attempt, procs, channels)
        finally:
            reap(procs)
            for channel in channels:
                channel.close()
            coordinator.close()
        return attempt.outcome(time.monotonic() - start)

    def _supervise(self, attempt: Attempt, procs, conns) -> None:
        """Run ``attempt`` to its end: collect every rank, and at the
        first failure stop the rest.

        ``conns[rank]`` is rank's result channel, a
        :class:`~repro.net.rendezvous.ResultChannel` over its rendezvous
        socket (anything with ``fileno`` / ``poll`` / ``recv``).  The
        wait covers each pending rank's channel and, when the driver
        spawned it, its process sentinel.  Externally launched workers
        (``procs`` empty) have no sentinel; TCP turns their death into
        EOF on the socket.

        Once :attr:`Attempt.failed`, the pending ranks are stopped
        (:meth:`Attempt.stop`, then SIGTERM with escalation) and, after
        their exits, whatever their channels hold is fed in: no writer
        is left, so those reads cannot block.  Without ``procs`` there
        is nothing to stop, and the first failure decides.
        """
        while attempt.pending and not attempt.failed:
            remaining = attempt.deadline - time.monotonic()
            if remaining <= 0:
                attempt.expire()
                break
            pending = attempt.pending
            conn_wait(
                [conns[r] for r in pending]
                + [procs[r].sentinel for r in pending if procs],
                timeout=min(1.0, remaining),
            )
            for rank in pending:
                self._settle(attempt, procs, conns[rank], rank)
        if procs and attempt.stop():
            reap(procs, attempt)
            for rank in attempt.pending:
                self._settle(attempt, procs, conns[rank], rank)

    def _settle(self, attempt: Attempt, procs, conn, rank: int) -> None:
        """Feed ``attempt`` how ``rank`` ended, if it has.

        The channel is read first: a worker that reported and exited
        promptly trips both its channel and its sentinel, and that is a
        result.  A readable channel that yields no message ends the
        rank: a torn or wedged frame with that reason, a dead worker's
        clean EOF as a death without a result.
        """
        proc = procs[rank] if procs else None
        dead = proc is not None and not proc.is_alive()
        if conn.poll(0):
            try:
                attempt.received(rank, read_result(conn.recv, rank, proc))
                return
            except NativeSortError as exc:
                # A dead worker's clean EOF holds no report: its exit
                # says how it ended.  A torn frame says more.
                if not (dead and isinstance(exc.__cause__, EOFError)):
                    attempt.ended(
                        rank, proc.exitcode if proc else None, str(exc)
                    )
                    return
        if dead:
            attempt.ended(rank, proc.exitcode)


def read_result(recv, rank: int, proc=None):
    """One ``recv()`` of worker ``rank``'s result channel that cannot hang
    its supervisor; returns the payload unchecked.

    The receive runs in a helper thread bounded by
    :data:`RESULT_RECV_TIMEOUT`; a worker that died after sending only
    part of a message, a corrupt frame or a close before any result
    surfaces as a :class:`NativeSortError` naming the worker and the
    state of its process ``proc`` (None: an external worker), caused by
    what the receive raised (``EOFError``: the channel closed cleanly).
    """
    box: Dict[str, object] = {}

    def _target():
        try:
            box["payload"] = recv()
        except BaseException as exc:  # EOF, OSError, UnpicklingError...
            box["exc"] = exc

    def status() -> str:
        if proc is None:
            return "external"
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
        ) from box["exc"]
    return box["payload"]


def reap(procs, attempt: Optional[Attempt] = None) -> None:
    """Terminate stragglers, escalating to SIGKILL after
    :data:`SIGKILL_AFTER_S` (told to ``attempt``, whose stop it is);
    never wait forever."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    bound = time.monotonic() + SIGKILL_AFTER_S
    for proc in procs:
        proc.join(timeout=max(0.0, bound - time.monotonic()))
    for rank, proc in enumerate(procs):
        if proc.is_alive():
            if attempt is not None:
                attempt.escalate(rank)
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

    ``transport`` picks the interconnect substrate: ``"pipe"``,
    ``"shm"`` or ``"tcp"`` (docs/TRANSPORT.md); ``prefetch_blocks`` /
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
