"""Deterministic fault injection for the native backend.

The native execution path (``repro.native``) owns real processes, real
pipes and a real spill directory — three substrates with failure modes
the simulator cannot model: a PE can die mid-protocol, a pipe can carry
a torn message, a disk can fill up mid-write.  This module defines the
*specification* of such faults; the native modules expose hook points
(``NativeJob.chaos``) that consult the spec, so the spec travels to the
worker processes by pickling with the job.

The robustness contract being tested is **fail fast, never hang**: any
injected fault must surface as a diagnosable
:class:`~repro.native.driver.NativeSortError` (or a worker-reported
traceback) well inside the job timeout — see ``tests/test_chaos_native.py``
and ``python -m repro conformance --chaos``.

Fault points are named ``"<when>:<phase>"`` with ``when`` in ``before`` /
``after`` and ``phase`` one of the native phases (``generate``,
``run_formation``, ``selection``, ``all_to_all``, ``merge``) plus the
synthetic ``report`` point just before the result is sent.  This module
deliberately imports nothing from :mod:`repro.native` so the dependency
points one way only (native consults testing, never vice versa at import
time).
"""

from __future__ import annotations

import errno
import os
import struct
import time
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "ChaosSpec",
    "ChaosInjected",
    "PHASE_BOUNDARIES",
    "kill_points",
    "run_chaos_case",
    "run_chaos_sweep",
    "sweep_specs",
    "run_recovery_smoke",
    "run_service_smoke",
    "run_service_chaos",
]

#: Native phase names, in execution order (mirrors
#: ``repro.native.stats.NATIVE_PHASES`` without importing it).
_NATIVE_PHASES = ("generate", "run_formation", "selection", "all_to_all", "merge")

#: Every phase-boundary fault point, in execution order.
PHASE_BOUNDARIES = tuple(
    f"{when}:{phase}" for phase in _NATIVE_PHASES for when in ("before", "after")
)

#: Exit code of a chaos-killed worker (distinct from crash/terminate codes).
KILL_EXIT_CODE = 77


class ChaosInjected(OSError):
    """Raised inside a worker when a spec injects an I/O fault."""


def kill_points(include_generate: bool = False) -> List[str]:
    """The kill-a-worker sweep: one point per phase boundary."""
    return [
        p for p in PHASE_BOUNDARIES
        if include_generate or not p.endswith(":generate")
    ]


@dataclass
class ChaosSpec:
    """One deterministic fault, bound to a rank and (usually) a point.

    All fields are plain values so the spec pickles into worker processes
    with the :class:`~repro.native.job.NativeJob` that carries it.  At
    most one *terminal* fault fires per run — the point of every scenario
    is to observe how the rest of the system reacts to a single injected
    failure.
    """

    #: Rank the fault applies to (other ranks run clean).
    rank: int = 0
    #: Restart epoch the fault fires on (recovery tests: the fault hits
    #: attempt 0, the resumed attempts run clean).  Workers call
    #: :meth:`set_epoch` with their job's epoch before any hook fires.
    fire_epoch: int = 0

    # -- process death ---------------------------------------------------------
    #: ``os._exit`` at this fault point ("before:selection", ...).
    kill_at: Optional[str] = None
    #: ``os._exit`` after this many all-to-all chunk arrivals — a death
    #: *inside* the exchange (a resume restarts it at its boundary).
    kill_after_a2a_chunks: Optional[int] = None

    # -- result-pipe corruption ------------------------------------------------
    #: At this point, send a truncated pickle on the result pipe, then exit:
    #: the driver's ``recv`` gets a complete frame of garbage bytes.
    torn_result_at: Optional[str] = None
    #: At this point, write a bare message header claiming a large payload
    #: (and no payload) to the result pipe, then exit: a naive driver
    #: blocks forever inside ``Connection.recv``.
    wedged_result_at: Optional[str] = None
    #: At this point, send a *partial* result frame followed by a clean
    #: GOODBYE, then exit.  A torn result must stay an error even when a
    #: polite close rides behind it — the driver may never mistake the
    #: GOODBYE for a deliberate, reportable shutdown.
    goodbye_result_at: Optional[str] = None

    # -- interconnect degradation ---------------------------------------------
    #: Sleep this long at the fault point (a stalled PE; peers must time
    #: out with a diagnosable CommTimeout, the driver must not hang).
    stall_at: Optional[str] = None
    stall_seconds: float = 3600.0
    #: Delay every pipe receive poll on this rank by this much (a slow
    #: link; the sort must still finish correctly).
    recv_delay_s: float = 0.0
    #: Sever the rank's mesh at this point: every channel is closed
    #: abruptly (``comm.sever()``), as if the host lost its network.
    #: Peers must surface CommError (dead peer), never a hang, and the
    #: job must leave no torn output files behind.
    sever_comm_at: Optional[str] = None
    #: Wedge the rank's mesh at this point: a valid message header with
    #: a body that never follows is pushed to every peer
    #: (``comm.wedge()``), then the rank stalls.  Peers must escalate to
    #: CommTimeout via their per-message receive deadline.
    wedge_comm_at: Optional[str] = None

    # -- spill-directory faults ------------------------------------------------
    #: After this many bytes written by the rank's block store, writes
    #: fail with ENOSPC.  The failing write is *torn*: a prefix of the
    #: payload reaches the file first, as a real full disk would leave it.
    enospc_after_bytes: Optional[int] = None
    #: Bytes of the failing write that still reach the file (torn write).
    torn_write_bytes: int = 64

    # -- internal mutable state (per worker process, post-pickle) --------------
    _written: int = 0
    _epoch: int = 0

    # -- hook entry points (called from repro.native) --------------------------

    def set_epoch(self, epoch: int) -> None:
        """Bind this worker's attempt epoch; faults fire on ``fire_epoch`` only."""
        self._epoch = int(epoch)

    def at_point(self, rank: int, point: str, result_conn=None, comm=None) -> None:
        """Phase-boundary hook; called by the worker between phases."""
        if rank != self.rank or self._epoch != self.fire_epoch:
            return
        if self.stall_at == point:
            time.sleep(self.stall_seconds)
        if self.sever_comm_at == point and comm is not None:
            comm.sever()
            # The severed rank idles out of the protocol; its peers'
            # CommError (and the driver's fail-fast) are the test.
            time.sleep(self.stall_seconds)
        if self.wedge_comm_at == point and comm is not None:
            comm.wedge()
            time.sleep(self.stall_seconds)
        if self.torn_result_at == point and result_conn is not None:
            import pickle

            payload = pickle.dumps(("ok", "chaos-torn-result", rank))
            result_conn.send_bytes(payload[: max(1, len(payload) // 2)])
            os._exit(KILL_EXIT_CODE)
        if self.wedged_result_at == point and result_conn is not None:
            # A frame header promising 1 MiB that never arrives: the
            # hang-on-worker-death case the driver must survive.
            os.write(result_conn.fileno(), struct.pack("!i", 1 << 20))
            os._exit(KILL_EXIT_CODE)
        if self.goodbye_result_at == point and result_conn is not None:
            sock = getattr(result_conn, "_sock", None)
            if sock is not None:  # TCP ResultChannel
                from ..net.framing import KIND_GOODBYE, KIND_RESULT, encode_frame

                torn = encode_frame(KIND_RESULT, ("ok", "chaos-goodbye", rank))
                sock.sendall(torn[:-7])
                sock.sendall(encode_frame(KIND_GOODBYE, None))
            else:  # multiprocessing Connection: header + half the body
                import pickle

                payload = pickle.dumps(("ok", "chaos-goodbye", rank))
                os.write(
                    result_conn.fileno(),
                    struct.pack("!i", len(payload))
                    + payload[: len(payload) // 2],
                )
            os._exit(KILL_EXIT_CODE)
        if self.kill_at == point:
            os._exit(KILL_EXIT_CODE)

    def on_a2a_chunk(self, rank: int, arrivals: int) -> None:
        """All-to-all hook; called after each received exchange chunk."""
        if rank != self.rank or self._epoch != self.fire_epoch:
            return
        if (
            self.kill_after_a2a_chunks is not None
            and arrivals >= self.kill_after_a2a_chunks
        ):
            os._exit(KILL_EXIT_CODE)

    def on_recv_poll(self, rank: int) -> None:
        """Interconnect hook; called before each receive poll."""
        if (
            rank == self.rank
            and self.recv_delay_s > 0
            and self._epoch == self.fire_epoch
        ):
            time.sleep(self.recv_delay_s)

    def clip_write(self, rank: int, nbytes: int) -> Optional[int]:
        """Spill-dir hook; called before a write of ``nbytes``.

        Returns ``None`` to let the write proceed, or the number of bytes
        that should still reach the file before :class:`ChaosInjected`
        (ENOSPC) is raised — the caller performs the torn prefix write
        and raises.
        """
        if (
            rank != self.rank
            or self.enospc_after_bytes is None
            or self._epoch != self.fire_epoch
        ):
            return None
        if self._written + nbytes <= self.enospc_after_bytes:
            self._written += nbytes
            return None
        return min(nbytes, max(0, self.torn_write_bytes))

    def enospc_error(self, path: str) -> ChaosInjected:
        return ChaosInjected(
            errno.ENOSPC, f"chaos: spill device full writing {path}"
        )


# ----------------------------------------------------------------- the sweep


def run_chaos_case(
    spec: ChaosSpec,
    spill_dir: str,
    n_workers: int = 2,
    n_per_rank: int = 512,
    block_records: int = 32,
    memory_records: int = 384,
    job_timeout: float = 15.0,
    budget: float = 30.0,
    prefetch_blocks: int = 0,
    write_behind_blocks: int = 0,
    transport: str = "pipe",
    recover: bool = False,
    max_restarts: int = 1,
    records: str = "fixed16",
) -> dict:
    """One native sort with ``spec`` injected; the contract is *fail fast*.

    Returns a verdict dict: ``ok`` means the run surfaced a clean
    :class:`~repro.native.driver.NativeSortError` within ``budget``
    seconds (or, for non-terminal faults like ``recv_delay_s``, finished
    with a valid output).  ``ok=False`` captures the two failure modes
    this harness exists to catch — a hang past the budget, or a sort
    that silently "succeeds" despite a terminal fault.

    With ``recover=True`` the contract flips to *survive and agree*: the
    job runs with checkpointing and ``max_restarts``, must complete
    despite the fault, and its output must be bitwise identical to an
    undisturbed twin run (see :func:`_run_recovery_case`).
    """
    from ..core.config import SortConfig
    from ..native import NativeJob, NativeSorter
    from ..native.driver import NativeSortError

    if recover:
        return _run_recovery_case(
            spec,
            spill_dir,
            n_workers=n_workers,
            n_per_rank=n_per_rank,
            block_records=block_records,
            memory_records=memory_records,
            job_timeout=job_timeout,
            budget=budget,
            prefetch_blocks=prefetch_blocks,
            write_behind_blocks=write_behind_blocks,
            transport=transport,
            max_restarts=max_restarts,
            records=records,
        )

    rb = 16
    job = NativeJob(
        config=SortConfig(
            data_per_node_bytes=n_per_rank * rb,
            memory_bytes=memory_records * rb,
            block_bytes=block_records * rb,
            block_elems=block_records,
            seed=7,
        ),
        n_workers=n_workers,
        spill_dir=spill_dir,
        timeout=job_timeout,
        transport=transport,
        chaos=spec,
        prefetch_blocks=prefetch_blocks,
        write_behind_blocks=write_behind_blocks,
        records=records,
    )
    terminal = _is_terminal(spec)
    start = time.monotonic()
    verdict = {
        "fault": _describe_spec(spec),
        "ok": False,
        "elapsed": 0.0,
        "outcome": "",
    }
    try:
        result = NativeSorter(job).run()
    except NativeSortError as exc:
        verdict["elapsed"] = time.monotonic() - start
        verdict["outcome"] = f"NativeSortError: {exc}"
        verdict["ok"] = terminal and verdict["elapsed"] <= budget
        if not terminal:
            verdict["outcome"] = f"clean run failed: {exc}"
        elif verdict["elapsed"] > budget:
            verdict["outcome"] = (
                f"error took {verdict['elapsed']:.1f}s > budget {budget}s: {exc}"
            )
        if (
            verdict["ok"]
            and spec.sever_comm_at is not None
            and spec.sever_comm_at != "after:merge"
        ):
            # A severed mesh killed the job before any merge finished:
            # no (necessarily torn) output file may survive.
            torn = sorted(
                name
                for name in os.listdir(spill_dir)
                if name.startswith("output_") and name.endswith(".dat")
            )
            if torn:
                verdict["ok"] = False
                verdict["outcome"] = (
                    f"severed run left torn output files behind: {torn}"
                )
        return verdict
    verdict["elapsed"] = time.monotonic() - start
    if terminal:
        verdict["outcome"] = "sort 'succeeded' despite a terminal fault"
        return verdict
    report = result.validate()
    verdict["ok"] = report.ok and verdict["elapsed"] <= budget
    verdict["outcome"] = "valid output" if report.ok else "; ".join(report.issues)
    return verdict


def _is_terminal(spec: ChaosSpec) -> bool:
    return any(
        (spec.kill_at, spec.torn_result_at, spec.wedged_result_at,
         spec.goodbye_result_at, spec.stall_at, spec.sever_comm_at,
         spec.wedge_comm_at, spec.kill_after_a2a_chunks is not None,
         spec.enospc_after_bytes is not None)
    )


def _describe_spec(spec: ChaosSpec) -> str:
    for attr in (
        "kill_at",
        "torn_result_at",
        "wedged_result_at",
        "goodbye_result_at",
        "stall_at",
        "sever_comm_at",
        "wedge_comm_at",
    ):
        value = getattr(spec, attr)
        if value is not None:
            return f"{attr}={value} rank={spec.rank}"
    if spec.kill_after_a2a_chunks is not None:
        return (
            f"kill_after_a2a_chunks={spec.kill_after_a2a_chunks} "
            f"rank={spec.rank}"
        )
    if spec.enospc_after_bytes is not None:
        return f"enospc_after_bytes={spec.enospc_after_bytes} rank={spec.rank}"
    if spec.recv_delay_s:
        return f"recv_delay_s={spec.recv_delay_s} rank={spec.rank}"
    return "no-op spec"


def _fault_past_run_formation(spec: ChaosSpec) -> bool:
    """Whether the fault can only fire after run formation completed.

    Recovery from such a fault must re-read **zero** run-formation input
    blocks — the o(N) bound the acceptance criteria pin down.
    """
    if spec.kill_after_a2a_chunks is not None:
        return True
    point = (
        spec.kill_at or spec.sever_comm_at or spec.wedge_comm_at
        or spec.stall_at
    )
    if point is None:
        return False
    later = PHASE_BOUNDARIES[PHASE_BOUNDARIES.index("after:run_formation"):]
    return point in later or point == "before:report"


def _run_recovery_case(
    spec: ChaosSpec,
    spill_dir: str,
    *,
    n_workers: int,
    n_per_rank: int,
    block_records: int,
    memory_records: int,
    job_timeout: float,
    budget: float,
    prefetch_blocks: int,
    write_behind_blocks: int,
    transport: str,
    max_restarts: int,
    records: str,
) -> dict:
    """Differential recovery twin: chaos + restarts vs an undisturbed run.

    The chaos job checkpoints and may restart; it must finish, validate,
    actually have burned at least one restart, and produce output files
    bitwise identical to the clean twin's.  For faults that fire after
    run formation completed, the recovery counters must show zero input
    blocks re-read — recovery cost stays o(N).

    A mid-exchange kill (``kill_after_a2a_chunks``) counts chunks
    *arriving* at the victim, and the in-place all-to-all ships only
    what changes rank — next to nothing on randomized input.  That case
    therefore sorts the paper's Figure 6 input (locally sorted, no
    randomization), where about half of the data really moves, so the
    kill lands mid-stream and the resume restarts a half-done exchange.
    """
    import filecmp

    from ..core.config import SortConfig
    from ..native import NativeJob, NativeSorter
    from ..native.driver import NativeSortError
    from . import corpus

    rb = 16
    fig6 = spec.kill_after_a2a_chunks is not None
    config = SortConfig(
        data_per_node_bytes=n_per_rank * rb,
        memory_bytes=memory_records * rb,
        block_bytes=block_records * rb,
        block_elems=block_records,
        randomize=not fig6,
        seed=7,
    )

    def make_job(subdir: str, chaos, restarts: int) -> NativeJob:
        spill = os.path.join(spill_dir, subdir)
        if fig6:
            corpus.write_native_inputs(spill, [
                corpus.generate(
                    "fig6_local_sorted", n_per_rank, rank, n_workers, 7
                )
                for rank in range(n_workers)
            ], records=records)
        return NativeJob(
            config=config,
            n_workers=n_workers,
            spill_dir=spill,
            generate=not fig6,
            timeout=job_timeout,
            transport=transport,
            chaos=chaos,
            prefetch_blocks=prefetch_blocks,
            write_behind_blocks=write_behind_blocks,
            max_restarts=restarts,
            records=records,
        )

    verdict = {
        "fault": f"{_describe_spec(spec)} [recover]",
        "ok": False,
        "elapsed": 0.0,
        "outcome": "",
        "restarts": 0,
    }
    start = time.monotonic()
    try:
        clean = NativeSorter(make_job("clean", None, 0)).run()
        chaotic = NativeSorter(
            make_job("chaos", spec, max_restarts)
        ).run()
    except NativeSortError as exc:
        verdict["elapsed"] = time.monotonic() - start
        verdict["outcome"] = f"recovery failed: {exc}"
        return verdict
    verdict["elapsed"] = time.monotonic() - start
    verdict["restarts"] = chaotic.stats.restarts
    rec = chaotic.stats.recovery_dict()
    verdict["recovery"] = rec

    report = chaotic.validate()
    issues: List[str] = list(report.issues)
    if chaotic.stats.restarts < 1:
        issues.append(
            "fault never fired: the recovery run burned no restart"
        )
    for meta_clean, meta_chaos in zip(clean.outputs, chaotic.outputs):
        if not filecmp.cmp(meta_clean.path, meta_chaos.path, shallow=False):
            issues.append(
                f"rank {meta_chaos.rank} output differs from the "
                "undisturbed twin"
            )
    if _fault_past_run_formation(spec) and rec["rf_blocks_reread"] != 0:
        issues.append(
            f"recovery re-read {rec['rf_blocks_reread']:.0f} run-formation "
            "blocks for a fault past run formation (o(N) bound violated)"
        )
    if verdict["elapsed"] > budget:
        issues.append(
            f"recovery took {verdict['elapsed']:.1f}s > budget {budget}s"
        )
    verdict["ok"] = not issues
    verdict["outcome"] = (
        f"recovered after {chaotic.stats.restarts} restart(s), "
        "bitwise-equal output" if not issues else "; ".join(issues)
    )
    return verdict


def _case_input_bytes(records: str, n_per_rank: int = 512) -> int:
    """Bytes of rank 0's input in a :func:`run_chaos_case` job (its
    default size and seed) under the record model ``records``."""
    from ..native.records import resolve_model

    return resolve_model(records).generate(0, n_per_rank, 7, False).nbytes


def sweep_specs(
    points=None, pipelined: bool = False, recover: bool = False,
    records: str = "fixed16",
) -> List[ChaosSpec]:
    """The faults :func:`run_chaos_sweep` injects, one case each.

    ``records`` is the jobs' record model: the disk-full threshold of the
    pipelined sweep sits past that model's input."""
    points = kill_points() if points is None else list(points)
    specs = [ChaosSpec(rank=0, kill_at=point) for point in points]
    # One connection severed mid-protocol: the all-to-all is where the
    # bulk of the data crosses the mesh, so losing a PE's network there
    # must fail fast on every peer and leave no torn output files.
    specs.append(ChaosSpec(rank=0, sever_comm_at="before:all_to_all"))
    if recover:
        # A death inside the exchange, and a wedged (not just severed)
        # mesh: the two hard resume shapes beyond plain boundary kills.
        specs.append(ChaosSpec(rank=0, kill_after_a2a_chunks=3))
        specs.append(ChaosSpec(rank=0, wedge_comm_at="before:all_to_all"))
    if pipelined and not recover:
        # Torn disk-full write, deferred into the writer thread: the
        # threshold sits 808 bytes past the input (written synchronously
        # during generate; 8 KiB for fixed16, about 20 KiB for strings),
        # so the failing write is a run-formation piece spill — executed
        # by the write-behind thread.
        specs.append(ChaosSpec(
            rank=0, enospc_after_bytes=_case_input_bytes(records) + 808
        ))
    return specs


def run_chaos_sweep(
    spill_root: str,
    n_workers: int = 2,
    points=None,
    job_timeout: float = 15.0,
    budget: float = 30.0,
    progress=None,
    pipelined: bool = False,
    transport: str = "pipe",
    recover: bool = False,
    keep_failures_dir: Optional[str] = None,
    records: str = "fixed16",
) -> List[dict]:
    """Kill one worker at every phase boundary; every run must fail fast.

    This is the acceptance sweep behind ``python -m repro conformance
    --chaos``: a worker death at *any* boundary terminates the job with
    a diagnostic :class:`NativeSortError` inside ``budget`` seconds —
    never a hang, never a bogus success.

    With ``pipelined=True`` every case runs with read-ahead and
    write-behind enabled, and one extra case injects a torn ENOSPC
    write — which then fires *inside the write-behind thread* and must
    still fail fast (the error is latched and re-raised on the worker's
    main thread).

    With ``recover=True`` every kill/sever/wedge fault becomes a
    recovery case instead (``--max-restarts 1``, see
    :func:`_run_recovery_case`): the job must *survive* the fault and
    agree bitwise with an undisturbed twin.  A failing case's spill
    directory (manifests included) is copied under ``keep_failures_dir``
    together with its verdict, as a reproducer artifact.

    ``records="string"`` sweeps the same faults over a string-model job.
    """
    import json
    import shutil
    import tempfile

    pipe_kw = (
        {"prefetch_blocks": 4, "write_behind_blocks": 4} if pipelined else {}
    )
    specs = sweep_specs(points, pipelined=pipelined, recover=recover,
                        records=records)
    verdicts = []
    for i, spec in enumerate(specs):
        if progress is not None:
            progress(i, len(specs), _describe_spec(spec))
        spill = tempfile.mkdtemp(
            prefix=f"chaos-{_describe_spec(spec).split()[0].replace(':', '-').replace('=', '-')}-",
            dir=spill_root,
        )
        shm_before = None
        if transport == "shm":
            from ..native.shm import list_shm_segments

            shm_before = set(list_shm_segments())
        try:
            verdict = run_chaos_case(
                spec,
                spill,
                n_workers=n_workers,
                job_timeout=job_timeout,
                budget=budget,
                transport=transport,
                recover=recover,
                records=records,
                **pipe_kw,
            )
            if pipelined:
                verdict["fault"] += " [pipelined]"
            if records != "fixed16":
                verdict["fault"] += f" [{records}]"
            if transport != "pipe":
                verdict["fault"] += f" [{transport}]"
            if shm_before is not None:
                # A kill at any boundary must not leak ring segments:
                # the driver unlinks in its attempt teardown even when
                # the job died mid-phase.
                from ..native.shm import list_shm_segments

                leaked = sorted(set(list_shm_segments()) - shm_before)
                if leaked:
                    verdict["ok"] = False
                    verdict["outcome"] = (
                        f"{verdict.get('outcome', '')}; leaked /dev/shm "
                        f"segments: {leaked}"
                    ).lstrip("; ")
            verdicts.append(verdict)
            if not verdict["ok"] and keep_failures_dir is not None:
                keep = os.path.join(
                    keep_failures_dir, os.path.basename(spill)
                )
                shutil.copytree(spill, keep, dirs_exist_ok=True)
                with open(
                    os.path.join(keep, "verdict.json"), "w", encoding="ascii"
                ) as handle:
                    json.dump(verdict, handle, indent=2, sort_keys=True)
        finally:
            shutil.rmtree(spill, ignore_errors=True)
    return verdicts


def run_recovery_smoke(
    spill_root: str,
    transports=("pipe", "tcp"),
    job_timeout: float = 15.0,
    budget: float = 60.0,
) -> List[dict]:
    """CI smoke: kill a rank at a phase boundary, resume, agree bitwise.

    One boundary kill per transport with ``--max-restarts 1``: the
    smallest end-to-end proof that manifests, epoch rendezvous and
    resume all hold together on both interconnects.
    """
    import shutil
    import tempfile

    verdicts = []
    for transport in transports:
        spill = tempfile.mkdtemp(
            prefix=f"recovery-smoke-{transport}-", dir=spill_root
        )
        try:
            verdicts.append(
                run_chaos_case(
                    ChaosSpec(rank=0, kill_at="after:run_formation"),
                    spill,
                    job_timeout=job_timeout,
                    budget=budget,
                    transport=transport,
                    recover=True,
                )
            )
            verdicts[-1]["fault"] += f" [{transport}]"
        finally:
            shutil.rmtree(spill, ignore_errors=True)
    return verdicts


# ------------------------------------------------------- sort-service modes

#: Service-harness job shapes: quick (~0.3 s) and slow (~2 s) two-worker
#: sorts, sized like the tier-1 suite's.
_SVC_SMALL = {
    "data_mib": 128 / 1024, "memory_mib": 48 / 1024, "block_kib": 2.0,
    "n_workers": 2, "seed": 42, "timeout": 120.0,
}
_SVC_SLOW = {
    "data_mib": 1.0, "memory_mib": 0.25, "block_kib": 2.0,
    "n_workers": 2, "seed": 7, "timeout": 120.0,
}


def _svc_output_bytes(result) -> bytes:
    chunks = []
    for meta in sorted(result.outputs, key=lambda m: m.rank):
        with open(meta.path, "rb") as handle:
            chunks.append(handle.read())
    return b"".join(chunks)


def run_service_smoke(spill_root: str, budget: float = 120.0) -> List[dict]:
    """CI smoke: a live service, two overlapping wire jobs, clean stop.

    Exercises the whole service stack end to end — daemon, warm pool,
    JSON control plane, concurrent dispatch — and requires both jobs
    DONE with valid output, zero worker respawns (the pool stayed
    warm), and a clean shutdown, all inside ``budget`` seconds.
    """
    import tempfile

    from ..service import SortClient, SortService

    start = time.monotonic()
    verdict = {"fault": "service-smoke", "ok": False, "elapsed": 0.0,
               "outcome": ""}
    spill = tempfile.mkdtemp(prefix="service-smoke-", dir=spill_root)
    issues: List[str] = []
    try:
        with SortService(pool_size=4, spill_root=spill) as svc:
            with SortClient(svc.addr) as client:
                slow = client.submit(dict(_SVC_SLOW, label="slow"))
                quick = client.submit(dict(_SVC_SMALL, label="quick"))
                for job_id in (quick, slow):
                    reply = client.result(job_id, timeout=budget)
                    state = reply["job"]["state"]
                    if state != "DONE":
                        issues.append(
                            f"{job_id} ended {state}: "
                            f"{reply['job'].get('error')}"
                        )
                stats = client.stats()
            if stats["respawns"] != 0:
                issues.append(
                    f"pool burned {stats['respawns']} respawns on a "
                    "fault-free run"
                )
            if stats["jobs"]["done"] != 2:
                issues.append(f"expected 2 done jobs, saw {stats['jobs']}")
    except Exception as exc:  # noqa: BLE001 - the smoke must never raise
        issues.append(f"smoke raised: {exc!r}")
    finally:
        import shutil

        shutil.rmtree(spill, ignore_errors=True)
    verdict["elapsed"] = time.monotonic() - start
    if verdict["elapsed"] > budget:
        issues.append(f"took {verdict['elapsed']:.1f}s > budget {budget}s")
    verdict["ok"] = not issues
    verdict["outcome"] = (
        "two overlapping wire jobs DONE, pool warm, clean shutdown"
        if not issues else "; ".join(issues)
    )
    return [verdict]


def run_service_chaos(spill_root: str, budget: float = 180.0) -> List[dict]:
    """Nightly: kill a pool worker mid-job; only that job feels it.

    Job A runs with one restart allowed; one of its pool workers is
    SIGKILLed mid-flight.  The contract: concurrent job B completes
    clean with zero restarts, the pool respawns the victim, job A
    recovers via its per-job supervisor, and A's recovered output is
    bitwise identical to a single-shot run of the same spec.
    """
    import signal as _signal
    import tempfile

    from ..native.driver import NativeSorter
    from ..service import SortService
    from ..service.jobs import build_native_job

    start = time.monotonic()
    verdict = {"fault": "service-chaos: kill pool worker mid-job",
               "ok": False, "elapsed": 0.0, "outcome": "", "restarts": 0}
    spill = tempfile.mkdtemp(prefix="service-chaos-", dir=spill_root)
    issues: List[str] = []
    try:
        oracle = NativeSorter(
            build_native_job(dict(_SVC_SLOW), os.path.join(spill, "oracle"))
        ).run()
        with SortService(
            pool_size=4, spill_root=os.path.join(spill, "svc"), listen=None
        ) as svc:
            a = svc.submit(dict(_SVC_SLOW, label="victim", max_restarts=1))
            deadline = time.monotonic() + 30.0
            pids: List[int] = []
            while time.monotonic() < deadline and not pids:
                pids = svc.worker_pids(a)
                if not pids:
                    time.sleep(0.01)
            b = svc.submit(dict(_SVC_SLOW, seed=8, label="bystander"))
            if not pids:
                issues.append("victim job never dispatched")
            else:
                os.kill(pids[0], _signal.SIGKILL)
            jb = svc.wait(b, timeout=budget)
            ja = svc.wait(a, timeout=budget)
            verdict["restarts"] = ja.policy.restarts_used
            if jb.state != "DONE":
                issues.append(f"bystander ended {jb.state}: {jb.error}")
            elif jb.policy.restarts_used != 0:
                issues.append("bystander burned a restart")
            if ja.state != "DONE":
                issues.append(f"victim ended {ja.state}: {ja.error}")
            else:
                if ja.policy.restarts_used < 1:
                    issues.append("victim recovered without a restart?")
                if _svc_output_bytes(ja.result) != _svc_output_bytes(oracle):
                    issues.append(
                        "victim's recovered output differs from the "
                        "single-shot oracle"
                    )
            if svc.pool.respawns < 1:
                issues.append("the pool never respawned the killed worker")
    except Exception as exc:  # noqa: BLE001
        issues.append(f"service chaos raised: {exc!r}")
    finally:
        import shutil

        shutil.rmtree(spill, ignore_errors=True)
    verdict["elapsed"] = time.monotonic() - start
    if verdict["elapsed"] > budget:
        issues.append(f"took {verdict['elapsed']:.1f}s > budget {budget}s")
    verdict["ok"] = not issues
    verdict["outcome"] = (
        f"victim recovered ({verdict['restarts']} restart), bystander "
        "clean, pool healed" if not issues else "; ".join(issues)
    )
    return [verdict]
