"""Worker-process entry point: one PE of the native sort.

A worker owns one rank: it generates (or finds) its input slice in the
spill directory, runs the four phases against its peers over the
interconnect mesh, and reports its
:class:`~repro.native.stats.WorkerStats` plus the streaming verification
data of its output file back to the driver over a dedicated result
channel.  Any exception is caught and shipped to the driver as a
formatted traceback so a crashed PE never hangs the job.

One entry point, :func:`worker_main`, serves every PE: the driver's
spawned pipe and shm workers, the warm pool's persistent workers (one
call per dispatched job) and :func:`tcp_worker_main`, which first dials
the rendezvous coordinator — the process may be spawned by the driver
*or* launched independently via ``python -m repro worker`` — receives
the job and the peer table over the wire, builds the socket mesh, and
reports on the rendezvous connection itself.  Which comm the endpoints
become is :func:`repro.native.transport.open_comm`'s decision alone; the
four phases run in :func:`_run_phases`.

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

from ..core.stats import PhaseClock, WorkerStats, max_rss_bytes
from .algos import PHASE_MODULES
from .blockstore import FileBlockStore
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
from .transport import open_comm

__all__ = ["worker_main", "tcp_worker_main"]


def _chaos_point(
    job: NativeJob, rank: int, point: str, result_conn, comm=None
) -> None:
    """Fire the fault-injection hook, if a chaos spec rides on the job."""
    if job.chaos is not None:
        job.chaos.at_point(rank, point, result_conn=result_conn, comm=comm)


def _run_phases(rank: int, job: NativeJob, comm: Comm, result_conn,
                persistent: bool = False) -> None:
    """The four phases over an established mesh; reports, never raises.

    ``persistent``: the comm and the result channel outlive this call
    (the caller closes them), so the final teardown skips both.
    """

    def at(point: str) -> None:
        _chaos_point(job, rank, point, result_conn, comm=comm)

    # The job's algorithm names the phase module (see native/algos):
    # canonical's phases (one implementation, the record model is the
    # job's) or the striped backend.  Job validation guarantees that
    # striped jobs are fixed16 and never reach the checkpoint/resume
    # branches below.
    algo = PHASE_MODULES[job.algo]

    journal = None
    try:
        stats = WorkerStats(rank=rank)
        chaos = job.chaos
        epoch = job.epoch
        if chaos is not None and hasattr(chaos, "set_epoch"):
            # Fault specs fire on one attempt only (fire_epoch); a
            # resumed epoch must not re-trip the fault that killed it.
            chaos.set_epoch(epoch)
        store = FileBlockStore(
            job.spill_dir, rank, job.block_records, chaos=chaos,
            namespace=job.spill_namespace, model=job.model,
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
        if job.checkpointing:
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
            with PhaseClock(stats, "generate", comm=comm):
                algo.generate_input(ctx)
                if journal is not None:
                    journal.generate_done()
                comm.barrier()
            at("after:generate")

        comm.set_phase("run_formation")
        at("before:run_formation")
        with PhaseClock(stats, "run_formation", comm=comm):
            if global_done >= 1:
                runs = restore_runs(ctx, resume)
                if rank in job.suspect_ranks and global_done <= 2:
                    # Pieces are still to be read and shipped to peers
                    # (selection windows, the all-to-all's sends): a
                    # suspect rank must prove its retained blocks
                    # survived the failure.  Past a2a_done only the
                    # merge reads them, and a resume there re-reads
                    # nothing.
                    verify_restored_pieces(
                        ctx,
                        [resume.rf_runs[r] for r in range(len(resume.rf_runs))],
                    )
            else:
                runs = algo.run_formation(ctx)
            comm.barrier()
        at("after:run_formation")
        comm.set_phase("selection")
        at("before:selection")
        with PhaseClock(stats, "selection", comm=comm):
            if global_done >= 2:
                splits = [list(row) for row in resume.selection_splits]
                stats.add_counter("recovery_phases_restored")
            else:
                splits = algo.selection(ctx, runs)
            comm.barrier()
        at("after:selection")
        comm.set_phase("all_to_all")
        at("before:all_to_all")
        with PhaseClock(stats, "all_to_all", comm=comm):
            if global_done >= 3:
                # The extent table and the guide come straight from the
                # journal; pieces and slabs stay where they are — they
                # are the merge's input — so nothing is read here.
                segments = [
                    SegmentLayout(*row).extents(store, r)
                    for r, row in enumerate(resume.a2a_layout)
                ]
                first_keys = [
                    [ctx.model.key_from_json(k) for k in keys]
                    for keys in resume.a2a_unit_first_keys
                ]
                stats.add_counter("recovery_phases_restored")
            else:
                segments, first_keys = algo.all_to_all(ctx, runs, splits)
            comm.barrier()
        at("after:all_to_all")
        comm.set_phase("merge")
        at("before:merge")
        with PhaseClock(stats, "merge", comm=comm):
            # Merge is the one phase restored *per-rank* rather than by
            # the global minimum: it does no communication, and a rank
            # that ran ahead, finished its merge and reclaimed its
            # pieces and slabs before the failed attempt died has nothing
            # left to re-merge — its durable OutputMeta is the only truth.
            if global_done >= 4 or (
                resume is not None and resume.merge_meta is not None
            ):
                out_meta = OutputMeta(**resume.merge_meta)
                out_meta.first_key = ctx.model.key_from_json(out_meta.first_key)
                out_meta.last_key = ctx.model.key_from_json(out_meta.last_key)
                stats.add_counter("recovery_phases_restored")
                # merge_done is journaled *before* the teardown, so a
                # crash in between leaves pieces and slabs behind.
                reclaim_segments(store, len(runs))
            else:
                out_meta = algo.merge(ctx, segments, first_keys)
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


def worker_main(
    rank: int,
    job: NativeJob,
    endpoints: Dict,
    result_conn,
    interrupt=None,
    interrupt_tag: int = 0,
) -> None:
    """Run rank ``rank`` of ``job`` over ``endpoints``; report to ``result_conn``.

    The one entry point of every PE, whatever started it and whatever
    the transport: ``endpoints`` are this rank's pipe ends, ring specs
    or mesh sockets (see :func:`~repro.native.transport.open_comm`).  A
    comm that cannot be opened is reported like any other failure, and
    the endpoints are closed — a pool worker lives on to serve the next
    job.
    """
    try:
        comm = open_comm(rank, job, endpoints, interrupt, interrupt_tag)
    except Exception:
        try:
            result_conn.send(("error", rank, traceback.format_exc()))
        except Exception:
            pass
        for end in (*endpoints.values(), result_conn):
            try:
                end.close()
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
    """Run rank ``rank`` over TCP: rendezvous, then :func:`worker_main`.

    ``connect`` is the coordinator's ``(host, port)``.  With ``job=None``
    (always, today — even driver-spawned workers fetch the job over the
    wire, so this path is identical for local and remote PEs) the job
    arrives in the WELCOME.  Used both as a spawned-process target and by
    the ``python -m repro worker`` CLI.
    """
    from ..net.rendezvous import ResultChannel, join_mesh

    try:
        job, coord_sock, socks = join_mesh(
            connect, rank, connect_timeout=connect_timeout, job=job
        )
    except Exception:
        # No channel to report on: the driver sees the rendezvous fail
        # (missing rank / dead sentinel); a CLI user sees the traceback.
        traceback.print_exc()
        raise SystemExit(1)
    worker_main(rank, job, socks, ResultChannel(coord_sock))
