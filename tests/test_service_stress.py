"""Service queue-depth stress: bursts, head-of-line blocking, budgets.

A dedicated stress suite for the admission path, pinning what must
never change — strict FIFO order, budget reserve/release balance, and
bitwise-correct outputs under a deep queue.
"""

import threading
import time

import pytest

from repro.service.daemon import SortService
from tests.test_service import SMALL, output_bytes, single_shot, wait_for

KiB = 1024
MiB = 1024 * 1024


def burst_spec(i):
    """A distinct small job per burst slot (own seed, own label)."""
    return dict(SMALL, seed=1000 + i, label=f"burst-{i}")


class TestBurst:
    def test_16_job_burst_fifo_and_bitwise_outputs(self, tmp_path):
        """16 jobs at once: FIFO admission, correct results, zero debt."""
        n_jobs = 16
        with SortService(
            pool_size=2, spill_root=str(tmp_path / "svc"), listen=None,
        ) as svc:
            ids = [svc.submit(burst_spec(i)) for i in range(n_jobs)]
            peak = [0]

            def sample():
                while not all(
                    svc._jobs[jid].done.is_set() for jid in ids
                ):
                    with svc._lock:
                        peak[0] = max(peak[0], svc._reserved_mem)
                    time.sleep(0.005)

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            jobs = [svc.wait(jid, timeout=300) for jid in ids]
            sampler.join(timeout=10)
            assert all(j.state == "DONE" for j in jobs), [
                (j.id, j.state, j.error) for j in jobs
            ]

            # Strict FIFO: admission order is submission order.
            admitted = [j.admitted for j in jobs]
            assert all(a is not None for a in admitted)
            assert admitted == sorted(admitted), (
                "admission must follow submission order"
            )

            # The budget ledger balances: reservations never exceeded
            # the budget and every release happened.
            assert 0 < peak[0] <= svc.memory_budget_bytes
            with svc._lock:
                assert svc._reserved_mem == 0
                assert svc._reserved_spill == 0

            # Bitwise correctness under queue pressure: every output
            # equals the single-shot run of the same spec.
            for i, job in enumerate(jobs):
                oracle = single_shot(
                    burst_spec(i), tmp_path / f"oracle-{i}"
                )
                assert output_bytes(job, job.result.outputs) == \
                    output_bytes(job, oracle.outputs), f"job {i} differs"

            stats = svc.stats_snapshot()
            assert stats["jobs"]["done"] == n_jobs
            assert stats["queue"]["depth_peak"] >= n_jobs - 1

    def test_one_huge_job_blocks_but_never_starves(self, tmp_path):
        """Head-of-line: a huge head job admits before later small ones.

        The budget admits either the huge job alone or several smalls;
        strict FIFO means the smalls submitted *after* it must not leap
        past it even while it waits for the pool.
        """
        huge = dict(
            SMALL, memory_mib=1.0, data_mib=0.5, block_kib=4.0,
            seed=77, label="huge",
        )
        smalls = [dict(SMALL, seed=2000 + i) for i in range(4)]
        # Budget fits exactly one huge (2 workers x 1 MiB) OR the
        # smalls (2 x 48 KiB each); FIFO must serialize huge-first.
        with SortService(
            pool_size=2, spill_root=str(tmp_path / "svc"), listen=None,
            memory_budget_bytes=2 * MiB,
        ) as svc:
            first = svc.submit(dict(SMALL, seed=3000))
            huge_id = svc.submit(huge)
            small_ids = [svc.submit(s) for s in smalls]
            all_ids = [first, huge_id] + small_ids
            jobs = {jid: svc.wait(jid, timeout=300) for jid in all_ids}
            assert all(j.state == "DONE" for j in jobs.values())
            order = sorted(all_ids, key=lambda j: jobs[j].admitted)
            assert order == all_ids, (
                f"admission order {order} broke FIFO {all_ids}"
            )
            with svc._lock:
                assert svc._reserved_mem == 0
                assert svc._reserved_spill == 0

    def test_burst_with_queue_inspection(self, tmp_path):
        """Deep-queue snapshots stay consistent while jobs drain."""
        with SortService(
            pool_size=2, spill_root=str(tmp_path / "svc"), listen=None,
        ) as svc:
            ids = [svc.submit(burst_spec(i)) for i in range(8)]
            # While draining, queue positions must be unique and
            # monotone in submission order.
            seen_queue = wait_for(
                lambda: [
                    s for s in (svc.status(j) for j in ids)
                    if s.get("queue_position") is not None
                ] or None,
                what="some jobs still queued",
            )
            positions = [s["queue_position"] for s in seen_queue]
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)
            for jid in ids:
                assert svc.wait(jid, timeout=300).state == "DONE"
