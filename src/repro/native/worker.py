"""Worker-process entry point: one PE of the native sort.

A worker owns one rank: it generates (or finds) its input slice in the
spill directory, runs the four phases against its peers over the
interconnect mesh, and reports its
:class:`~repro.native.stats.WorkerStats` plus the streaming verification
data of its output file back to the driver over a dedicated result
channel.  Any exception is caught and shipped to the driver as a
formatted traceback so a crashed PE never hangs the job.

Two entry points share one body (:func:`_run_phases`):

* :func:`worker_main` — the pipe transport: the driver spawned this
  process and handed it pre-connected pipe ends and a result pipe;
* :func:`tcp_worker_main` — the TCP transport: the process (spawned by
  the driver *or* launched independently via ``python -m repro worker``)
  dials the rendezvous coordinator, receives the job and the peer table
  over the wire, builds the socket mesh, and reports on the rendezvous
  connection itself.

Fault-injection hook points (``job.chaos``, see
:mod:`repro.testing.chaos`) bracket every phase: a chaos spec may kill
the process, stall it, sever or wedge its mesh, or corrupt the result
channel at any phase boundary, which is how the conformance suite holds
the driver to its fail-fast contract.
"""

from __future__ import annotations

import os
import traceback
from typing import Dict, Optional, Tuple

from .algos import resolve_algorithm
from .blockstore import FileBlockStore
from .comm import PipeComm
from .comm_api import Comm
from .job import NativeJob
from .phases import (
    NativeContext,
    OutputMeta,
    SegmentLayout,
    reclaim_segments,
    restore_runs,
    verify_restored_pieces,
)
from .stats import PhaseClock, WorkerStats, max_rss_bytes

__all__ = ["worker_main", "tcp_worker_main"]


def _chaos_point(
    job: NativeJob, rank: int, point: str, result_conn, comm=None
) -> None:
    """Fire the fault-injection hook, if a chaos spec rides on the job."""
    chaos = getattr(job, "chaos", None)
    if chaos is not None:
        chaos.at_point(rank, point, result_conn=result_conn, comm=comm)


def _run_phases(rank: int, job: NativeJob, comm: Comm, result_conn,
                persistent: bool = False) -> None:
    """The four phases over an established mesh; reports, never raises.

    ``persistent`` is the warm-pool mode: the comm and the result
    channel outlive this job (the pool worker resets the comm itself and
    keeps its control pipe), so the final teardown skips both.
    """

    def at(point: str) -> None:
        _chaos_point(job, rank, point, result_conn, comm=comm)

    # The (algorithm, record model) pair picks the phase implementations
    # from the backend registry (see native/algos): canonical's
    # fixed-slot phases, their byte-rank string twins, or the striped
    # backend.  Job validation guarantees only registered
    # combinations arrive here, and that non-canonical and varlen jobs
    # never reach the checkpoint/resume branches below.
    algorithm = resolve_algorithm(
        getattr(job, "algo", "canonical"), getattr(job, "records", "fixed16")
    )
    fn_generate, fn_run_formation, fn_selection, fn_all_to_all, fn_merge = (
        algorithm.phase_fns
    )

    journal = None
    try:
        stats = WorkerStats(rank=rank)
        chaos = getattr(job, "chaos", None)
        epoch = int(getattr(job, "epoch", 0))
        if chaos is not None and hasattr(chaos, "set_epoch"):
            # Fault specs fire on one attempt only (fire_epoch); a
            # resumed epoch must not re-trip the fault that killed it.
            chaos.set_epoch(epoch)
        store = FileBlockStore(
            job.spill_dir, rank, job.block_records, chaos=chaos,
            namespace=getattr(job, "spill_namespace", ""),
        )
        # I/O stall attribution: store ops on *this* thread count as
        # per-phase stall; background pipeline threads' ops do not.
        store.attach_stats(stats)
        ctx = NativeContext(
            rank=rank, job=job, comm=comm, store=store, stats=stats
        )

        # Checkpointing: open this rank's manifest journal and, on a
        # resume (epoch > 0), agree with the peers on the highest phase
        # *every* rank durably completed.  The journal invariant (record
        # written before the barrier) guarantees global_done never
        # overshoots what any rank can restore.
        resume = None
        global_done = -1
        if getattr(job, "checkpointing", False):
            from ..recovery.manifest import RankJournal, job_fingerprint

            journal = RankJournal(
                store.manifest_path(), job_fingerprint(job), rank
            )
            if epoch > 0:
                resume = journal.load_resume()
            journal.begin_epoch(epoch)
            ctx.journal = journal
            ctx.resume = resume
            done = resume.completed_index if resume is not None else -1
            comm.set_phase("resume")
            global_done = min(comm.allgather(done))

        if global_done < 0 and (
            job.generate or not os.path.exists(store.input_path())
        ):
            comm.set_phase("generate")
            at("before:generate")
            with PhaseClock(stats, "generate"):
                fn_generate(ctx)
                if journal is not None:
                    journal.generate_done()
                comm.barrier()
            at("after:generate")

        comm.set_phase("run_formation")
        at("before:run_formation")
        with PhaseClock(stats, "run_formation"):
            if global_done >= 1:
                runs = restore_runs(ctx, resume)
                if rank in getattr(job, "suspect_ranks", ()) and global_done <= 2:
                    # Pieces are still being read by peers (selection
                    # probes, the all-to-all's sends): a suspect rank
                    # must prove its retained blocks survived the
                    # failure.  Past a2a_done only the rank itself reads
                    # them, and a resume there re-reads nothing.
                    verify_restored_pieces(
                        ctx,
                        [resume.rf_runs[r] for r in range(len(resume.rf_runs))],
                    )
            else:
                runs = fn_run_formation(ctx)
            comm.barrier()
        at("after:run_formation")
        comm.set_phase("selection")
        at("before:selection")
        with PhaseClock(stats, "selection"):
            if global_done >= 2:
                splits = [list(row) for row in resume.selection_splits]
                stats.add_counter("recovery_phases_restored")
            else:
                splits = fn_selection(ctx, runs)
            comm.barrier()
        at("after:selection")
        comm.set_phase("all_to_all")
        at("before:all_to_all")
        with PhaseClock(stats, "all_to_all"):
            if global_done >= 3:
                # The extent table and the guide come straight from the
                # journal; pieces and slabs stay where they are — they
                # are the merge's input — so nothing is read here.
                segments = [
                    SegmentLayout(*row).extents(store, r)
                    for r, row in enumerate(resume.a2a_layout)
                ]
                first_keys = [
                    list(keys) for keys in resume.a2a_unit_first_keys
                ]
                stats.add_counter("recovery_phases_restored")
            else:
                segments, first_keys = fn_all_to_all(ctx, runs, splits)
            comm.barrier()
        at("after:all_to_all")
        comm.set_phase("merge")
        at("before:merge")
        with PhaseClock(stats, "merge"):
            # Merge is the one phase restored *per-rank* rather than by
            # the global minimum: it does no communication, and a rank
            # that ran ahead, finished its merge and reclaimed its
            # pieces and slabs before the failed attempt died has nothing
            # left to re-merge — its durable OutputMeta is the only truth.
            if global_done >= 4 or (
                resume is not None and resume.merge_meta is not None
            ):
                out_meta = OutputMeta(**resume.merge_meta)
                stats.add_counter("recovery_phases_restored")
                # merge_done is journaled *before* the teardown, so a
                # crash in between leaves pieces and slabs behind.
                reclaim_segments(store, len(runs))
            else:
                out_meta = fn_merge(ctx, segments, first_keys)
            comm.barrier()
        at("after:merge")

        fenced = int(getattr(comm, "fenced_drops", 0))
        if fenced:
            stats.add_counter("recovery_fenced_frames", float(fenced))

        stats.bytes_read.update(store.bytes_read)
        stats.bytes_written.update(store.bytes_written)
        stats.read_ops.update(store.reads)
        stats.write_ops.update(store.writes)
        stats.comm_bytes_sent = comm.bytes_sent
        stats.comm_bytes_received = comm.bytes_received
        stats.comm_wire_sent = dict(comm.wire_sent)
        stats.comm_wire_recv = dict(comm.wire_recv)
        stats.comm_local_bytes = dict(comm.local_bytes)
        stats.comm_peer_sent = dict(comm.peer_sent)
        stats.comm_peer_recv = dict(comm.peer_recv)
        stats.comm_socket_bytes_sent = getattr(comm, "socket_bytes_sent", 0)
        stats.comm_socket_bytes_recv = getattr(comm, "socket_bytes_received", 0)
        stats.max_rss_bytes = max_rss_bytes()

        at("before:report")
        result_conn.send(
            ("ok", stats, out_meta, ctx.input_checksum, len(runs))
        )
    except Exception:  # pragma: no cover - exercised via driver error tests
        try:
            result_conn.send(("error", rank, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if journal is not None:
            try:
                journal.close()
            except Exception:
                pass
        if not persistent:
            try:
                comm.close()
            except Exception:
                pass
            try:
                result_conn.close()
            except Exception:
                pass


def worker_main(rank: int, job: NativeJob, peer_conns: Dict, result_conn) -> None:
    """Run rank ``rank`` of ``job`` over pipes; report ("ok"/"error", ...)."""
    try:
        comm = PipeComm(
            rank,
            job.n_workers,
            peer_conns,
            timeout=job.timeout,
            chaos=getattr(job, "chaos", None),
            pending_sends=getattr(job, "pending_sends", 4),
            job_epoch=getattr(job, "epoch", 0),
            job_tag=getattr(job, "job_tag", 0),
        )
    except Exception:
        try:
            result_conn.send(("error", rank, traceback.format_exc()))
            result_conn.close()
        except Exception:
            pass
        return
    _run_phases(rank, job, comm, result_conn)


def shm_worker_main(
    rank: int, job: NativeJob, channels: Dict, result_conn
) -> None:
    """Run rank ``rank`` of ``job`` over shared-memory rings.

    ``channels`` maps peer rank to a
    :class:`~repro.native.shm.ShmChannelSpec`; the comm attaches every
    ring by name (the driver created the segments before forking).
    """
    from .shm import ShmComm

    try:
        comm = ShmComm(
            rank,
            job.n_workers,
            channels,
            timeout=job.timeout,
            chaos=getattr(job, "chaos", None),
            pending_sends=getattr(job, "pending_sends", 4),
            job_epoch=getattr(job, "epoch", 0),
            job_tag=getattr(job, "job_tag", 0),
            own_channel_ends=True,
        )
    except Exception:
        try:
            result_conn.send(("error", rank, traceback.format_exc()))
            result_conn.close()
        except Exception:
            pass
        return
    _run_phases(rank, job, comm, result_conn)


def tcp_worker_main(
    rank: int,
    connect: Tuple[str, int],
    connect_timeout: float = 60.0,
    job: Optional[NativeJob] = None,
) -> None:
    """Run rank ``rank`` over TCP: rendezvous, mesh up, sort, report.

    ``connect`` is the coordinator's ``(host, port)``.  With ``job=None``
    (always, today — even driver-spawned workers fetch the job over the
    wire, so this path is identical for local and remote PEs) the job
    arrives in the WELCOME.  Used both as a spawned-process target and by
    the ``python -m repro worker`` CLI.
    """
    from ..net.rendezvous import ResultChannel, join_mesh
    from ..net.tcp import TcpComm

    try:
        job, coord_sock, socks = join_mesh(
            connect, rank, connect_timeout=connect_timeout, job=job
        )
    except Exception:
        # No channel to report on: the driver sees the rendezvous fail
        # (missing rank / dead sentinel); a CLI user sees the traceback.
        traceback.print_exc()
        raise SystemExit(1)
    result_conn = ResultChannel(coord_sock)
    try:
        comm = TcpComm(
            rank,
            job.n_workers,
            socks,
            timeout=job.timeout,
            pending_sends=getattr(job, "pending_sends", 4),
            chaos=getattr(job, "chaos", None),
            heartbeat_s=getattr(job, "heartbeat_s", 5.0),
            job_epoch=getattr(job, "epoch", 0),
            job_tag=getattr(job, "job_tag", 0),
        )
    except Exception:
        try:
            result_conn.send(("error", rank, traceback.format_exc()))
            result_conn.close()
        except Exception:
            pass
        return
    _run_phases(rank, job, comm, result_conn)
