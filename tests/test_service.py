"""Sort-service suite: concurrency, admission, cancellation, isolation.

Everything here drives a real :class:`~repro.service.daemon.SortService`
— warm pool processes, fresh per-job meshes, the JSON control plane —
at test scale (hundreds of KiB per job).  The acceptance pillars:

* N concurrent jobs come back bitwise identical to single-shot
  ``--backend native`` runs of the same specs;
* admission control provably serializes jobs whose combined memory
  cost exceeds the service budget;
* killing a pool worker mid-job fails (or recovers) only the job it
  was running — a concurrent job and the pool itself are unaffected;
* spill-namespace isolation: cleanup of an aborted job can never touch
  a concurrent job's blocks.
"""

import gc
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.native.blockstore import FileBlockStore, purge_namespace
from repro.native.comm_api import pack_fence
from repro.native.driver import NativeSorter
from repro.native.records import NATIVE_DTYPE
from repro.net.framing import (
    KIND_CTRL,
    KIND_RESULT,
    recv_frame,
    send_frame,
    send_json_frame,
)
from repro.service import JobRejected, SortClient, SortService
from repro.service.jobs import build_native_job
from repro.testing.chaos import ChaosSpec
from tests.helpers import assert_suite_digest_keys

KiB = 1024

#: A quick two-worker job (~0.3 s): 128 KiB/node in 2 KiB blocks.
SMALL = {
    "data_mib": 128 / 1024,
    "memory_mib": 48 / 1024,
    "block_kib": 2.0,
    "n_workers": 2,
    "seed": 42,
    "timeout": 120.0,
}
#: A slower job (~2 s): 1 MiB/node, 12 runs — wide enough windows to
#: cancel it mid-flight or kill one of its workers.
SLOW = {
    "data_mib": 1.0,
    "memory_mib": 0.25,
    "block_kib": 2.0,
    "n_workers": 2,
    "seed": 7,
    "timeout": 120.0,
}


def wait_for(predicate, timeout=30.0, interval=0.01, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def output_bytes(job, outputs):
    """Concatenated output-file bytes of a finished sort, rank order."""
    chunks = []
    for meta in sorted(outputs, key=lambda m: m.rank):
        with open(meta.path, "rb") as handle:
            chunks.append(handle.read())
    return b"".join(chunks)


def single_shot(spec, spill_dir):
    """The oracle: the same spec through the single-shot driver."""
    return NativeSorter(build_native_job(dict(spec), str(spill_dir))).run()


# ------------------------------------------------------------ wire plumbing


class TestCompositeFence:
    def test_pack_fence_layout(self):
        assert pack_fence(0, 0) == 0
        assert pack_fence(0, 3) == 3
        assert pack_fence(1, 0) == 1 << 8
        assert pack_fence(7, 5) == (7 << 8) | 5
        # The epoch half wraps at a byte; the job half carries a u32.
        assert pack_fence(0, 256) == 0
        assert pack_fence(2**32 - 1, 255) == ((2**32 - 1) << 8) | 255

    def test_fence_roundtrips_on_the_wire(self):
        a, b = socket.socketpair()
        try:
            fence = pack_fence(7, 5)
            send_frame(a, KIND_RESULT, ("hello",), epoch=5, fence=fence)
            kind, msg, epoch, got, _ = recv_frame(b)
            assert (kind, msg, epoch) == (KIND_RESULT, ("hello",), 5)
            assert got == fence
        finally:
            a.close()
            b.close()

    def test_distinct_jobs_same_epoch_differ(self):
        # The regression the composite fence exists for: two jobs at
        # the same epoch must never share a fence value.
        assert pack_fence(1, 0) != pack_fence(2, 0)
        assert pack_fence(1, 1) != pack_fence(2, 1)

    def test_json_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            obj = {"cmd": "submit", "spec": {"data_mib": 1.5, "label": "x"}}
            send_json_frame(a, KIND_CTRL, obj)
            kind, msg, _epoch, _fence, _n = recv_frame(b)
            assert kind == KIND_CTRL
            assert msg == obj
        finally:
            a.close()
            b.close()


# -------------------------------------------------------- spill namespacing


class TestSpillNamespacing:
    def test_namespaced_paths_cannot_collide(self, tmp_path):
        plain = FileBlockStore(str(tmp_path), 0, 8)
        spaced = FileBlockStore(str(tmp_path), 0, 8, namespace="j1-abc")
        assert plain.input_path() != spaced.input_path()
        assert os.path.basename(spaced.input_path()) == "j1-abc_input_0.dat"
        assert os.path.basename(spaced.manifest_path()) == (
            "j1-abc_manifest_0.jsonl"
        )

    def test_purge_removes_exactly_one_namespace(self, tmp_path):
        records = np.zeros(8, dtype=NATIVE_DTYPE)
        stores = {
            ns: FileBlockStore(str(tmp_path), 0, 8, namespace=ns)
            for ns in ("j1-aaaa", "j2-bbbb")
        }
        for store in stores.values():
            store.write_file(store.input_path(), records, "generate")
            store.write_file(store.output_path(), records, "merge")
        removed = purge_namespace(str(tmp_path), "j1-aaaa")
        assert removed == 2
        left = sorted(os.listdir(tmp_path))
        assert left == ["j2-bbbb_input_0.dat", "j2-bbbb_output_0.dat"]
        # Idempotent, and safe on a missing directory.
        assert purge_namespace(str(tmp_path), "j1-aaaa") == 0
        assert purge_namespace(str(tmp_path / "absent"), "x") == 0

    def test_purge_requires_namespace(self, tmp_path):
        with pytest.raises(ValueError):
            purge_namespace(str(tmp_path), "")


# ------------------------------------------------------------ spill budget


class _StopEveryoneAt(ChaosSpec):
    """Every rank exits at one phase boundary, so the spill directory is
    left exactly as it stood there (a one-rank kill lets the peers run
    on into the next phase before the driver reaps them)."""

    def at_point(self, rank, point, result_conn=None, comm=None):
        if point == self.kill_at:
            os._exit(77)


class TestSpillCharge:
    @pytest.mark.parametrize("randomize", [True, False], ids=["rand", "norand"])
    def test_charge_covers_the_footprint_behind_the_all_to_all(
        self, tmp_path, randomize
    ):
        """At ``after:all_to_all`` a job's files are its input, its run
        pieces, the slabs it received — slab bytes == bytes that changed
        rank — and its journals, nothing else; the merge then adds one output
        copy before any of it is reclaimed.  The charge covers that peak:
        3x data for a randomized job (its slabs are o(N)), and the
        N·(P-1)/P a job without randomization may move on top."""
        from dataclasses import replace

        from repro.native import NativeSortError
        from repro.service.jobs import job_costs
        from repro.testing import corpus

        spec = dict(SLOW, randomize=randomize, max_restarts=0, checkpoint=True)
        n_workers = spec["n_workers"]

        def job_in(subdir, chaos):
            job = build_native_job(
                dict(spec, chaos=chaos), str(tmp_path / subdir)
            )
            if randomize:
                return job
            # The input that really moves data: locally sorted (Fig. 6).
            corpus.write_native_inputs(job.spill_dir, [
                corpus.generate(
                    "fig6_local_sorted", job.records_per_worker, rank,
                    n_workers, seed=7,
                )
                for rank in range(n_workers)
            ])
            return replace(job, generate=False)

        clean = NativeSorter(job_in("clean", None)).run()
        moved = clean.stats.wire_sent("all_to_all")
        data = clean.stats.total_bytes

        stopped = job_in("stopped", _StopEveryoneAt(kill_at="after:all_to_all"))
        with pytest.raises(NativeSortError):
            NativeSorter(stopped).run()
        sizes = {"input": 0, "piece": 0, "slab": 0, "manifest": 0}
        for name in os.listdir(stopped.spill_dir):
            kind = next(
                (k for k in sizes if name.startswith(k) or f"_{k}" in name), None
            )
            assert kind is not None, f"unexpected spill file {name}"
            sizes[kind] += os.path.getsize(os.path.join(stopped.spill_dir, name))
        journals = sizes.pop("manifest")
        assert journals > 0
        assert sizes == {"input": data, "piece": data, "slab": moved}

        _mem, charge = job_costs(stopped)
        peak = sum(sizes.values()) + data  # the output the merge adds
        if randomize:
            assert charge == 3 * data
            assert 0 < moved < data // 50 and peak == charge + moved
        else:
            assert charge == 3 * data + data * (n_workers - 1) // n_workers
            assert data * 2 // 5 < moved and peak <= charge


# ------------------------------------------------------------- concurrency


class TestConcurrentJobs:
    def test_three_concurrent_jobs_match_single_shot(self, tmp_path):
        """≥3 jobs in flight at once, each bitwise equal to its oracle."""
        specs = [
            dict(SMALL, seed=seed, label=f"seed-{seed}")
            for seed in (11, 22, 33)
        ]
        oracles = [
            output_bytes(r.job, r.outputs)
            for r in (
                single_shot(s, tmp_path / f"oracle-{i}")
                for i, s in enumerate(specs)
            )
        ]
        with SortService(
            pool_size=6, spill_root=str(tmp_path / "svc"), listen=None
        ) as svc:
            ids = [svc.submit(s) for s in specs]
            jobs = [svc.wait(jid, timeout=120) for jid in ids]
            for job, oracle in zip(jobs, oracles):
                assert job.state == "DONE", job.error
                assert job.result.validate().ok
                assert output_bytes(job.job, job.result.outputs) == oracle

    def test_back_to_back_jobs_reuse_the_same_workers(self, tmp_path):
        """Satellite 1: the pool is warm — same PIDs serve job after job."""
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            pids_before = [h.pid for h in svc.pool.handles]
            first = svc.wait(svc.submit(dict(SMALL)), timeout=120)
            second = svc.wait(svc.submit(dict(SMALL, seed=9)), timeout=120)
            assert first.state == "DONE", first.error
            assert second.state == "DONE", second.error
            assert [h.pid for h in svc.pool.handles] == pids_before
            assert svc.pool.respawns == 0
            assert all(h.jobs_run == 2 for h in svc.pool.handles)
            # And the reused workers produced byte-identical output to
            # a cold single-shot run of the same spec.
            oracle = single_shot(dict(SMALL, seed=9), tmp_path / "oracle")
            assert output_bytes(second.job, second.result.outputs) == (
                output_bytes(oracle.job, oracle.outputs)
            )


# ------------------------------------------------------------ shm transport


class TestShmTransportJobs:
    def test_shm_job_matches_pipe_job_bitwise(self, tmp_path):
        """A ``transport: shm`` spec runs on the warm pool over
        shared-memory rings and produces byte-identical output."""
        self.check_shm_batch(tmp_path, n_workers=2, n_seeds=1)

    def test_three_pe_shm_batch_is_done_and_matches_pipe(self, tmp_path):
        """At P = 3 a rank that leaves the final barrier closes while
        another is still in it, so every job of the batch checks that a
        closed peer's GOODBYE is not taken for a dead PE.  The ring ends
        reach these workers through the control pipe, not by fork."""
        self.check_shm_batch(tmp_path, n_workers=3, n_seeds=24)

    @staticmethod
    def check_shm_batch(tmp_path, n_workers, n_seeds):
        """``n_seeds`` shm jobs on a pool of ``n_workers`` all reach DONE,
        the first matches its pipe twin byte for byte, and ``/dev/shm``
        is clean afterwards."""
        from repro.native.shm import list_shm_segments

        before = set(list_shm_segments())
        spec = dict(SMALL, n_workers=n_workers)
        with SortService(
            pool_size=n_workers, spill_root=str(tmp_path / "svc"), listen=None
        ) as svc:
            shm_ids = [
                svc.submit(dict(spec, transport="shm", seed=spec["seed"] + k))
                for k in range(n_seeds)
            ]
            pipe = svc.wait(svc.submit(dict(spec, transport="pipe")), timeout=120)
            shms = [svc.wait(job_id, timeout=120) for job_id in shm_ids]
            assert [s.state for s in shms] == ["DONE"] * n_seeds, [
                s.error for s in shms if s.state != "DONE"
            ]
            assert pipe.state == "DONE", pipe.error
            assert output_bytes(shms[0].job, shms[0].result.outputs) == (
                output_bytes(pipe.job, pipe.result.outputs)
            )
            # The attempts finalized: their ring segments are already gone.
            assert set(list_shm_segments()) - before == set()
        assert set(list_shm_segments()) - before == set()

    def test_tcp_spec_is_rejected(self, tmp_path):
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            with pytest.raises(JobRejected):
                svc.submit(dict(SMALL, transport="tcp"))


# ------------------------------------------------- spec rejection messages


class TestSpecRejectionMessages:
    """Every family of bad spec value names the key and what's legal."""

    def check(self, spec, *needles):
        with pytest.raises(JobRejected) as err:
            build_native_job(spec, "/tmp")
        for needle in needles:
            assert needle in str(err.value), (spec, str(err.value))

    def test_choice_fields_name_key_and_accepted_values(self):
        self.check(
            {"transport": "tcp"}, "spec field 'transport'='tcp'",
            "'pipe', 'shm'",
        )
        # Native phase 2 has one strategy, so the simulator's selection
        # knob is no spec field.
        self.check({"selection": "sampled"}, "unknown spec field 'selection'")
        self.check(
            {"records": "f32"}, "spec field 'records'='f32'",
            "'fixed16', 'string'",
        )

    def test_numeric_fields_name_key_and_floor(self):
        self.check({"n_workers": 0}, "spec field 'n_workers'=0", ">= 1")
        self.check(
            {"data_mib": -1.0}, "spec field 'data_mib'=-1.0", "> 0"
        )
        self.check(
            {"pending_sends": 0}, "spec field 'pending_sends'=0", ">= 1"
        )

    def test_retired_knobs_are_unknown_fields(self):
        # The sample is the block-first keys (K = B) and the shm ring
        # size is a transport constant: neither is a spec field, on any
        # transport.
        self.check({"sample_every": 4}, "unknown spec field 'sample_every'")
        self.check({"shm_ring_kib": 64}, "unknown spec field 'shm_ring_kib'")
        # The native backend runs one algorithm: no spec field picks it.
        self.check({"algo": "striped"}, "unknown spec field 'algo'")
        self.check(
            {"transport": "shm", "shm_ring_kib": 64},
            "unknown spec field 'shm_ring_kib'",
        )

    def test_unknown_field_lists_accepted_keys(self):
        self.check({"warp": 9}, "unknown spec field 'warp'")


# ---------------------------------------------------------------- admission


class TestAdmissionControl:
    def test_over_budget_jobs_are_serialized(self, tmp_path):
        """Two jobs fit alone but not together: the second must wait."""
        mem_cost = 2 * int(0.25 * 2**20)  # P=2 workers x 256 KiB
        with SortService(
            pool_size=4,
            spill_root=str(tmp_path),
            listen=None,
            memory_budget_bytes=mem_cost + mem_cost // 2,
        ) as svc:
            first = svc.submit(dict(SLOW, label="first"))
            wait_for(
                lambda: svc.status(first)["state"] == "RUNNING",
                what="first job running",
            )
            second = svc.submit(dict(SLOW, seed=8, label="second"))
            # The pool has 4 idle-capable workers; only the budget can
            # be holding the second job back.
            assert svc.status(second)["state"] == "QUEUED"
            ja = svc.wait(first, timeout=120)
            jb = svc.wait(second, timeout=120)
            assert ja.state == "DONE", ja.error
            assert jb.state == "DONE", jb.error
            # Provable serialization: the second attempt began only
            # after the first released its reservation.
            assert jb.started >= ja.finished
            assert jb.admission_wait > 0

    def test_queue_when_pool_is_busy(self, tmp_path):
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            first = svc.submit(dict(SLOW))
            wait_for(
                lambda: svc.status(first)["state"] == "RUNNING",
                what="first job running",
            )
            second = svc.submit(dict(SMALL))
            assert svc.status(second)["state"] == "QUEUED"
            assert svc.status(second)["queue_position"] == 0
            assert svc.wait(first, timeout=120).state == "DONE"
            assert svc.wait(second, timeout=120).state == "DONE"

    def test_infeasible_jobs_are_rejected_outright(self, tmp_path):
        """Pool/budget and spec-validation rejections alike raise, count
        in ``stats.rejected`` and never occupy the queue."""
        with SortService(
            pool_size=2,
            spill_root=str(tmp_path),
            listen=None,
            memory_budget_bytes=4 * 2**20,
        ) as svc:
            for n, bad in enumerate(
                (
                    dict(SMALL, n_workers=3),  # pool too small
                    dict(SMALL, memory_mib=16.0),  # over the memory budget
                    dict(SMALL, bogus_knob=1),  # unknown key
                    dict(SMALL, selection="sampled"),  # no longer a spec key
                    dict(SMALL, records="f32"),  # bad value
                    dict(SMALL, pending_sends=0),  # out-of-range knob
                ),
                start=1,
            ):
                with pytest.raises(JobRejected):
                    svc.submit(bad)
                assert svc.stats_snapshot()["jobs"]["rejected"] == n, bad
            assert svc.stats_snapshot()["jobs"]["submitted"] == 0

    def test_unset_io_knobs_get_the_synchronous_defaults(self, tmp_path):
        """Nothing fills knobs at admission: a spec that leaves the I/O
        knobs out runs exactly like one that spells the defaults out."""
        explicit = dict(
            SMALL, prefetch_blocks=0, write_behind_blocks=0, pending_sends=4
        )
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            jobs = [
                svc.wait(svc.submit(spec), timeout=120)
                for spec in (dict(SMALL), explicit)
            ]
            for job in jobs:
                assert job.state == "DONE", job.error
                assert (
                    job.job.prefetch_blocks,
                    job.job.write_behind_blocks,
                    job.job.pending_sends,
                ) == (0, 0, 4)
                assert "tuned_knobs" not in svc.status(job.id)
            assert "tuning" not in svc.stats_snapshot()
            unset, spelled = jobs
            assert output_bytes(unset.job, unset.result.outputs) == (
                output_bytes(spelled.job, spelled.result.outputs)
            )


# ------------------------------------------------------------- cancellation


class TestCancellation:
    def test_cancel_while_queued(self, tmp_path):
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            runner = svc.submit(dict(SLOW))
            wait_for(
                lambda: svc.status(runner)["state"] == "RUNNING",
                what="runner running",
            )
            queued = svc.submit(dict(SMALL))
            assert svc.status(queued)["state"] == "QUEUED"
            assert svc.cancel(queued) == "CANCELLED"
            job = svc.wait(queued, timeout=10)
            assert job.state == "CANCELLED"
            assert svc.wait(runner, timeout=120).state == "DONE"

    def test_cancel_while_running_frees_the_pool(self, tmp_path):
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            victim = svc.submit(dict(SLOW))
            wait_for(
                lambda: svc.status(victim)["state"] == "RUNNING",
                what="victim running",
            )
            svc.cancel(victim)
            job = svc.wait(victim, timeout=60)
            assert job.state == "CANCELLED"
            # No worker died for this: the interrupt channel aborted the
            # job inside the still-warm processes.
            assert svc.pool.respawns == 0
            after = svc.wait(svc.submit(dict(SMALL)), timeout=120)
            assert after.state == "DONE", after.error
            # The cancelled job's spill namespace was purged; the
            # follow-up job's output files are intact.
            leftovers = [
                name
                for name in os.listdir(tmp_path)
                if name.startswith(job.namespace)
            ]
            assert leftovers == []


    def test_cancel_lets_a_busy_rank_unwind_instead_of_stopping_it(
        self, tmp_path
    ):
        """Rank 1 is busy (stalled 1 s before run formation) when the
        cancel comes, so rank 0 reports the interrupt first.  That report
        is no failure of the job's own: rank 1 is left to see the
        interrupt once it is back in a collective, and nothing is
        respawned."""
        stall = ChaosSpec(rank=1, stall_at="before:run_formation",
                          stall_seconds=1.0)
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            victim = svc.submit(dict(SMALL, chaos=stall))
            wait_for(
                lambda: svc.status(victim)["state"] == "RUNNING",
                what="victim running",
            )
            time.sleep(0.2)
            svc.cancel(victim)
            assert svc.wait(victim, timeout=60).state == "CANCELLED"
            assert svc.pool.respawns == 0


# ------------------------------------------------- failure isolation (chaos)


class TestFailureIsolation:
    def test_kill_worker_fails_only_its_job(self, tmp_path):
        """Kill a pool worker mid-job-A: B finishes clean, A recovers."""
        with SortService(
            pool_size=4, spill_root=str(tmp_path), listen=None
        ) as svc:
            a = svc.submit(dict(SLOW, label="victim", max_restarts=1))
            pids = wait_for(
                lambda: svc.worker_pids(a), what="victim job dispatched"
            )
            b = svc.submit(dict(SLOW, seed=8, label="bystander"))
            os.kill(pids[0], signal.SIGKILL)
            jb = svc.wait(b, timeout=120)
            ja = svc.wait(a, timeout=120)
            assert jb.state == "DONE", jb.error
            assert jb.policy.restarts_used == 0
            assert ja.state == "DONE", ja.error
            assert ja.policy.restarts_used >= 1
            assert svc.pool.respawns >= 1
            assert ja.result.validate().ok and jb.result.validate().ok
            # The recovered job still matches its single-shot oracle.
            oracle = single_shot(
                {k: v for k, v in SLOW.items()}, tmp_path / "oracle"
            )
            assert output_bytes(ja.job, ja.result.outputs) == (
                output_bytes(oracle.job, oracle.outputs)
            )

    def test_kill_without_restarts_fails_just_that_job(self, tmp_path):
        with SortService(
            pool_size=4, spill_root=str(tmp_path), listen=None
        ) as svc:
            a = svc.submit(dict(SLOW, label="doomed"))
            pids = wait_for(
                lambda: svc.worker_pids(a), what="doomed job dispatched"
            )
            b = svc.submit(dict(SMALL, label="bystander"))
            os.kill(pids[0], signal.SIGKILL)
            ja = svc.wait(a, timeout=60)
            jb = svc.wait(b, timeout=120)
            assert ja.state == "FAILED"
            assert "died" in ja.error
            assert jb.state == "DONE", jb.error
            # The pool healed: a fresh job runs fine afterwards.
            again = svc.wait(svc.submit(dict(SMALL, seed=5)), timeout=120)
            assert again.state == "DONE", again.error

    @pytest.mark.parametrize("fault,budget", [
        ("sever_comm_at", 3.0), ("wedge_comm_at", 8.0),
    ], ids=["sever", "wedge"])
    def test_a_severed_or_wedged_rank_fails_its_job_fast(
        self, tmp_path, fault, budget
    ):
        """Rank 1 severs (or wedges) its mesh and idles without ever
        reporting.  Its peer reports the dead (or, at the 5 s comm
        timeout, the stalled) channel, and the scheduler stops rank 1 at
        once instead of waiting for the attempt's deadline: the job
        fails within ``budget`` of its submit, and the pool — rank 1's
        worker respawned — runs the next job clean."""
        from repro.native.shm import list_shm_segments

        before = set(list_shm_segments())
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            start = time.monotonic()
            doomed = svc.submit(dict(
                SMALL, timeout=5.0,
                chaos=ChaosSpec(rank=1, **{fault: "before:all_to_all"}),
            ))
            job = svc.wait(doomed, timeout=60)
            elapsed = time.monotonic() - start
            assert job.state == "FAILED", job.error
            assert elapsed <= budget, f"{elapsed:.2f}s: {job.error}"
            assert "worker 0 failed" in job.error, job.error
            again = svc.wait(svc.submit(dict(SMALL)), timeout=120)
            assert again.state == "DONE", again.error
        assert set(list_shm_segments()) - before == set()

    def test_a_stop_kills_workers_forked_under_a_sigterm_handler(
        self, tmp_path
    ):
        """``repro serve`` installs a SIGTERM handler once its pool is up,
        and every worker respawned later is forked with it.  A pool
        worker resets SIGTERM to its default, so the stop of a failed
        attempt's peer is still a death: after two severed jobs (the
        second stops a respawned worker) both stopped workers were
        respawned, and the pool of 2 runs a clean job."""
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            previous = signal.signal(signal.SIGTERM, lambda *_: None)
            try:
                for _ in range(2):
                    start = time.monotonic()
                    job = svc.wait(svc.submit(dict(
                        SMALL, timeout=5.0, chaos=ChaosSpec(
                            rank=1, sever_comm_at="before:all_to_all"),
                    )), timeout=60)
                    assert job.state == "FAILED", job.error
                    assert time.monotonic() - start <= 3.0, job.error
                assert svc.pool.respawns >= 2
                again = svc.wait(svc.submit(dict(SMALL)), timeout=60)
                assert again.state == "DONE", again.error
            finally:
                signal.signal(signal.SIGTERM, previous)

    def test_a_rank_that_outlives_its_stop_is_killed(
        self, tmp_path, monkeypatch
    ):
        """A stopped worker that ignores SIGTERM is killed
        ``SIGKILL_AFTER_S`` later, and that SIGKILL is the scheduler's:
        the job fails on the peer's report, not on the killed rank."""
        from repro.native import pool

        real_worker_main = pool.worker_main

        def stubborn_worker_main(*args):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            real_worker_main(*args)

        monkeypatch.setattr(pool, "worker_main", stubborn_worker_main)
        monkeypatch.setattr(pool, "SIGKILL_AFTER_S", 0.5)
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            start = time.monotonic()
            job = svc.wait(svc.submit(dict(
                SMALL, timeout=5.0,
                chaos=ChaosSpec(rank=1, sever_comm_at="before:all_to_all"),
            )), timeout=60)
            elapsed = time.monotonic() - start
            assert job.state == "FAILED", job.error
            assert elapsed <= 3.0, f"{elapsed:.2f}s: {job.error}"
            assert "worker 0 failed" in job.error, job.error
            assert svc.pool.respawns >= 1
            again = svc.wait(svc.submit(dict(SMALL)), timeout=60)
            assert again.state == "DONE", again.error

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_failed_attempts_leave_no_fds_in_the_service(self, tmp_path):
        """A worker killed right after dispatch, and its stopped peer,
        may never receive their mesh ends.  Those ends travel as fds in
        flight on the control pipe, so none of them stays open in the
        service process, however many attempts fail that way."""

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:

            def kill_case():
                doomed = svc.submit(dict(SMALL, label="doomed"))
                pids = wait_for(
                    lambda: svc.worker_pids(doomed), what="job dispatched"
                )
                os.kill(pids[0], signal.SIGKILL)
                job = svc.wait(doomed, timeout=60)
                assert job.state == "FAILED", job.error

            kill_case()
            before = open_fds()
            for _ in range(8):
                kill_case()
            again = svc.wait(svc.submit(dict(SMALL)), timeout=60)
            assert again.state == "DONE", again.error
            assert open_fds() == before

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_failed_oneshots_leave_no_fds_and_no_shm(self, tmp_path):
        """The one-shot twin of the test above: a one-shot pipe or shm
        sort is one dispatch on a pool of P, and eight of them failing
        right after dispatch leave no fd open in this process and no
        segment in /dev/shm."""
        from repro.native.driver import NativeSortError
        from repro.native.shm import list_shm_segments

        def kill_case(i):
            spec = dict(SMALL, transport=("pipe", "shm")[i % 2], chaos=(
                ChaosSpec(rank=i % 2, kill_at="before:run_formation")))
            job = build_native_job(spec, str(tmp_path / f"oneshot{i}"))
            with pytest.raises(NativeSortError, match="died"):
                NativeSorter(job).run()

        before_shm = set(list_shm_segments())
        kill_case(0)
        kill_case(1)
        gc.collect()  # earlier tests' garbage, not this test's
        before = len(os.listdir("/proc/self/fd"))
        for i in range(8):
            kill_case(i)
        assert len(os.listdir("/proc/self/fd")) == before
        assert set(list_shm_segments()) - before_shm == set()

    @pytest.mark.parametrize("fault", ["torn_result_at", "goodbye_result_at"])
    def test_a_torn_result_frame_is_unreadable(self, tmp_path, fault):
        """A worker that tears its result frame on the control pipe (a
        pickle cut short, or a frame header with half its body) fails
        its job as an unreadable result of that rank, and the pool,
        the torn worker stopped and respawned, runs the next job."""
        with SortService(
            pool_size=2, spill_root=str(tmp_path), listen=None
        ) as svc:
            job = svc.wait(svc.submit(dict(
                SMALL, chaos=ChaosSpec(rank=0, **{fault: "before:report"}),
            )), timeout=60)
            assert job.state == "FAILED", job.error
            assert "worker 0 result unreadable" in job.error, job.error
            again = svc.wait(svc.submit(dict(SMALL)), timeout=60)
            assert again.state == "DONE", again.error

    def test_abort_cleanup_cannot_touch_a_concurrent_job(self, tmp_path):
        """Satellite 2 end-to-end: job A aborts with cleanup_on_abort
        while job B runs in the same spill root; B's blocks survive."""
        chaos = ChaosSpec(rank=0, kill_at="before:merge")
        with SortService(
            pool_size=4, spill_root=str(tmp_path), listen=None
        ) as svc:
            b = svc.submit(dict(SLOW, label="survivor"))
            a = svc.submit(
                dict(
                    SMALL,
                    label="aborter",
                    chaos=chaos,
                    cleanup_on_abort=True,
                )
            )
            ja = svc.wait(a, timeout=60)
            jb = svc.wait(b, timeout=120)
            assert ja.state == "FAILED"
            assert jb.state == "DONE", jb.error
            names = os.listdir(tmp_path)
            assert not any(n.startswith(ja.job.spill_namespace) for n in names)
            survivors = [
                n for n in names if n.startswith(jb.job.spill_namespace)
            ]
            assert survivors, "the surviving job's files must remain"
            assert jb.result.validate().ok


# ------------------------------------------------------------ control plane


class TestControlPlane:
    def test_wire_submit_status_result_cancel(self, tmp_path):
        with SortService(pool_size=2, spill_root=str(tmp_path)) as svc:
            with SortClient(svc.addr) as client:
                assert client.ping()
                jid = client.submit(dict(SMALL, label="wire"))
                reply = client.result(jid, timeout=120)
                assert reply["job"]["state"] == "DONE"
                result = reply["result"]
                assert result["validation"]["total_keys"] == 16384
                assert_suite_digest_keys(result["stats"])
                assert len(result["outputs"]) == 2
                assert all(
                    os.path.exists(o["path"]) for o in result["outputs"]
                )
                listing = client.jobs()
                assert [j["id"] for j in listing] == [jid]
                stats = client.stats()
                assert stats["jobs"]["done"] == 1
                assert stats["pool"]["size"] == 2

    def test_wire_rejection_and_unknown_command(self, tmp_path):
        from repro.service.jobs import ServiceError

        with SortService(pool_size=2, spill_root=str(tmp_path)) as svc:
            with SortClient(svc.addr) as client:
                with pytest.raises(ServiceError, match="workers"):
                    client.submit(dict(SMALL, n_workers=9))
                with pytest.raises(ServiceError, match="unknown job"):
                    client.status("j999")

    def test_concurrent_wire_clients(self, tmp_path):
        """Several clients, each its own socket, racing submits."""
        with SortService(pool_size=4, spill_root=str(tmp_path)) as svc:
            outcomes = {}

            def one(i):
                with SortClient(svc.addr) as client:
                    jid = client.submit(dict(SMALL, seed=100 + i))
                    outcomes[i] = client.result(jid, timeout=120)

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(outcomes) == 3
            assert all(
                r["job"]["state"] == "DONE" for r in outcomes.values()
            )

    def test_shutdown_cancels_everything(self, tmp_path):
        svc = SortService(pool_size=2, spill_root=str(tmp_path), listen=None)
        running = svc.submit(dict(SLOW))
        wait_for(
            lambda: svc.status(running)["state"] == "RUNNING",
            what="job running",
        )
        queued = svc.submit(dict(SMALL))
        svc.close()
        assert svc.status(running)["state"] == "CANCELLED"
        assert svc.status(queued)["state"] == "CANCELLED"
        assert all(not h.proc.is_alive() for h in svc.pool.handles)
