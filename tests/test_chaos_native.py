"""Native fault injection: every failure is fast, diagnosable, never a hang.

The quick tier (unmarked tests) injects one representative of each fault
family — worker death, torn/wedged result pipe, stalled PE, spill-disk
ENOSPC with a torn write — and asserts the driver surfaces a clean
:class:`NativeSortError` well inside the test timeout.  The full
kill-at-every-phase-boundary sweep runs nightly (``-m conformance``).
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native import NativeJob, NativeSorter
from repro.native.driver import Attempt, NativeSortError
from repro.testing.chaos import (
    KILL_EXIT_CODE,
    ChaosSpec,
    kill_points,
    run_chaos_case,
    run_chaos_sweep,
    sweep_specs,
)

RB = 16


def chaos_job(tmp_path, spec, n_per_rank=512, n_workers=2, timeout=8.0,
              block=32, mem=384, **job_kw):
    return NativeJob(
        config=SortConfig(
            data_per_node_bytes=n_per_rank * RB,
            memory_bytes=mem * RB,
            block_bytes=block * RB,
            block_elems=block,
            seed=7,
        ),
        n_workers=n_workers,
        spill_dir=str(tmp_path / "spill"),
        timeout=timeout,
        chaos=spec,
        **job_kw,
    )


def assert_fails_fast(job, budget=30.0, match=None):
    start = time.monotonic()
    with pytest.raises(NativeSortError) as excinfo:
        NativeSorter(job).run()
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"error took {elapsed:.1f}s (budget {budget}s)"
    if match is not None:
        assert match in str(excinfo.value), str(excinfo.value)
    return excinfo.value


# ------------------------------------------------- the supervisor, faked


class _FakeProc:
    """A worker process as ``NativeSorter._supervise`` sees it: a sentinel
    fd that turns readable when it dies, ``is_alive`` and ``exitcode``,
    and the stop (``terminate`` / ``kill`` / ``join``).  A rank already
    ``dying`` by itself keeps that status whatever signal lands."""

    def __init__(self, dying=None):
        self.sentinel, self._alive = os.pipe()
        self.exitcode = None
        self.dying = dying

    def is_alive(self):
        return self._alive is not None

    def die(self, code=-9):
        os.close(self._alive)
        self._alive, self.exitcode = None, code

    def terminate(self):
        if self._alive is not None:
            self.die(self.dying if self.dying is not None else -signal.SIGTERM)

    kill = terminate

    def join(self, timeout=None):
        pass

    def close(self):
        if self._alive is not None:
            self.die()
        os.close(self.sentinel)


def _supervise_with(tmp_path, setup, procs=None):
    """Run ``_supervise`` over two fake workers; ``setup(procs, writers)``
    puts them in the state under test.  Returns the error the attempt's
    outcome raises."""
    import multiprocessing as mp

    procs = procs or [_FakeProc(), _FakeProc()]
    pipes = [mp.Pipe(duplex=False) for _ in procs]
    try:
        setup(procs, [writer for _reader, writer in pipes])
        job = chaos_job(tmp_path, None)
        attempt = Attempt(job, time.monotonic())
        NativeSorter(job)._supervise(
            attempt, procs, [reader for reader, _writer in pipes]
        )
        with pytest.raises(NativeSortError) as excinfo:
            attempt.outcome(0.0)
        return excinfo.value
    finally:
        for proc in procs:
            proc.close()
        for reader, writer in pipes:
            reader.close()
            writer.close()


_COLLATERAL = ("error", 0, "CommError: peer 1 closed its channel (dead PE)")


@pytest.mark.parametrize("eof", [False, True], ids=["open", "eof"])
def test_collector_blames_the_dead_rank_over_a_collateral_report(
    tmp_path, eof
):
    """Rank 1 died without a report, and rank 0's report of the dead
    channel is ready in the same wait: the error names rank 1 and keeps
    rank 0's report.  Rank 1's result pipe may still be held open by a
    forked sibling or be at EOF; neither is a report."""

    def setup(procs, writers):
        writers[0].send(_COLLATERAL)
        procs[1].die()
        if eof:
            writers[1].close()

    err = _supervise_with(tmp_path, setup)
    assert err.rank == 1
    assert str(err).startswith("worker 1 died (exit code -9)")
    assert "dead PE" in str(err)


def test_collector_keeps_an_error_no_death_explains(tmp_path):
    """A reported error with every other worker alive until it is
    stopped, or dead after reporting, is the reporter's own."""

    def alive(procs, writers):
        writers[0].send(("error", 0, "OSError: [Errno 28] No space left"))

    def reported(procs, writers):
        alive(procs, writers)
        writers[1].send(_COLLATERAL[:1] + (1, "CommError: dead PE"))
        procs[1].die(1)

    for setup in (alive, reported):
        err = _supervise_with(tmp_path, setup)
        assert err.rank == 0
        assert str(err).startswith("worker 0 failed:\nOSError")


def test_collector_blames_a_rank_that_ended_by_itself_not_one_it_stopped(
    tmp_path,
):
    """After rank 0's report the supervisor stops rank 1 at once.  If
    the stop is what ended rank 1, the report stands; if rank 1 was
    already dying by itself (its status fixed, its sentinel not yet
    fired), its own status shows through the stop and it is blamed."""

    def setup(procs, writers):
        writers[0].send(_COLLATERAL)

    start = time.monotonic()
    err = _supervise_with(tmp_path, setup)
    assert err.rank == 0 and "dead PE" in str(err)
    err = _supervise_with(
        tmp_path, setup, procs=[_FakeProc(), _FakeProc(dying=-9)]
    )
    assert err.rank == 1
    assert str(err).startswith("worker 1 died (exit code -9)")
    assert time.monotonic() - start < 1.0


def _ok(rank):
    from repro.core.stats import WorkerStats
    from repro.native.phases import OutputMeta

    meta = OutputMeta(rank=rank, path="", n_records=0, first_key=None,
                      last_key=None, checksum=rank, sorted_ok=True)
    return ("ok", WorkerStats(rank=rank), meta, rank, 3)


#: How one rank ended, as a supervisor feeds it to ``Attempt``.
_ENDS = {
    "result": lambda a, r: a.received(r, _ok(r)),
    "report": lambda a, r: a.received(r, ("error", r, "boom")),
    "malformed": lambda a, r: a.received(r, ("ok", "torn")),
    "exit": lambda a, r: a.ended(r, 77),
    "sigterm": lambda a, r: a.ended(r, -signal.SIGTERM),
    "sigkill": lambda a, r: a.ended(r, -9),
    "escalate": lambda a, r: a.escalate(r),
}


@pytest.mark.parametrize("events,blamed,needle", [
    (["0 result", "1 result", "2 result"], "ok", None),
    (["1 report", "stop", "0 sigterm", "2 sigterm"], 1, "worker 1 failed"),
    (["0 report", "stop", "1 sigkill", "2 sigterm"], 1,
     "collateral: worker 0 failed"),
    (["2 exit", "stop", "0 report", "1 sigterm"], 2, "exit code 77"),
    (["0 result", "deadline", "stop", "1 sigterm", "2 sigterm"], None,
     "timed out"),
    (["deadline", "stop", "0 sigterm", "1 report", "2 sigterm"], 1,
     "worker 1 failed"),
    (["0 result", "1 malformed", "stop", "2 sigterm"], 1, "malformed"),
    (["0 report", "1 sigterm", "stop", "2 sigterm"], 1, "exit code -15"),
    (["0 report", "stop", "1 escalate", "1 sigkill", "2 sigterm"], 0,
     "worker 0 failed"),
    (["0 result", "1 result", "2 result", "deadline"], "ok", None),
])
def test_attempt_outcome_table(tmp_path, events, blamed, needle):
    """The one rule both supervisors apply, over every way a rank ends
    (result, report, self-exit, stopped, deadline), fed in the order a
    supervisor sees them: after the first failure it stops the pending
    ranks (``stop``) and feeds their exits.  A rank that ended by itself
    without a result is blamed first, then the first reporting rank,
    then the deadline.  A stopped rank's SIGTERM never blames it, nor
    the SIGKILL it gets for outliving that (``escalate``), while one
    that was already dying shows its own status; a SIGTERM the
    supervisor did not send is the rank's own end.  A deadline that
    passes once every rank has reported fails nothing."""
    attempt = Attempt(chaos_job(tmp_path, None, n_workers=3), 0.0)
    for event in events:
        if event == "deadline":
            attempt.expire()
        elif event == "stop":
            assert attempt.failed and attempt.stop() == attempt.pending
        else:
            rank, end = event.split()
            _ENDS[end](attempt, int(rank))
    assert attempt.pending == []
    if blamed == "ok":
        assert not attempt.failed
        result = attempt.outcome(1.5)
        assert [m.rank for m in result.outputs] == [0, 1, 2]
        assert [w.rank for w in result.stats.workers] == [0, 1, 2]
        assert result.input_checksum == 3 and result.stats.n_runs == 3
        return
    with pytest.raises(NativeSortError) as excinfo:
        attempt.outcome(1.5)
    assert excinfo.value.rank == blamed
    assert needle in str(excinfo.value), str(excinfo.value)


# ------------------------------------------------------------- quick tier


def test_kill_after_run_formation_fails_fast(tmp_path):
    job = chaos_job(tmp_path, ChaosSpec(rank=0, kill_at="after:run_formation"))
    err = assert_fails_fast(job, match="worker 0")
    assert str(KILL_EXIT_CODE) in str(err)  # the exit code is diagnosable


def test_kill_nonzero_rank_named_in_error(tmp_path):
    job = chaos_job(tmp_path, ChaosSpec(rank=1, kill_at="before:merge"))
    assert_fails_fast(job, match="worker 1")


# One reading rule (driver.read_result) covers every transport's result
# channel: the pipe and shm PEs' pool control pipes and the tcp workers'
# rendezvous sockets.
@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
def test_wedged_result_pipe_does_not_hang_driver(tmp_path, transport):
    # The worker writes a frame header promising 1 MiB and dies: a naive
    # driver blocks forever inside Connection.recv.
    job = chaos_job(
        tmp_path, ChaosSpec(rank=0, wedged_result_at="before:report"),
        transport=transport,
    )
    assert_fails_fast(job, match="worker 0")


@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
def test_torn_result_pickle_is_an_error_not_a_crash(tmp_path, transport):
    job = chaos_job(
        tmp_path, ChaosSpec(rank=0, torn_result_at="before:report"),
        transport=transport,
    )
    assert_fails_fast(job, match="worker 0")


def test_stalled_peer_times_out_with_diagnostic(tmp_path):
    # Rank 1 sleeps "forever" entering the all-to-all; rank 0's exchange
    # must detect the stall at the comm timeout, not spin until the
    # driver's outer deadline.
    job = chaos_job(
        tmp_path,
        ChaosSpec(rank=1, stall_at="before:all_to_all", stall_seconds=3600.0),
        timeout=4.0,
    )
    err = assert_fails_fast(job, budget=20.0)
    assert "stalled or dead" in str(err) or "timed out" in str(err)
    # The same stall under a caller that installed its own SIGTERM
    # handler: a PE resets SIGTERM to its default, so the stop of the
    # stalled rank is still a death, not a wait for SIGKILL_AFTER_S.
    job = chaos_job(
        tmp_path,
        ChaosSpec(rank=1, stall_at="before:all_to_all", stall_seconds=3600.0),
        timeout=2.0,
    )
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        assert_fails_fast(job, budget=job.timeout + 2.0)
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_enospc_surfaces_worker_traceback(tmp_path):
    job = chaos_job(tmp_path, ChaosSpec(rank=0, enospc_after_bytes=4096))
    err = assert_fails_fast(job, match="worker 0 failed")
    assert "ENOSPC" in str(err) or "spill device full" in str(err)


def test_enospc_write_is_torn_not_clean(tmp_path):
    """The injected failure leaves a partial file, like a real full disk."""
    spec = ChaosSpec(rank=0, enospc_after_bytes=1024, torn_write_bytes=40)
    job = chaos_job(tmp_path, spec)
    with pytest.raises(NativeSortError):
        NativeSorter(job).run()
    spill = tmp_path / "spill"
    sizes = {p.name: p.stat().st_size for p in spill.iterdir()}
    assert any(size % RB for size in sizes.values()), (
        f"expected one torn (non-record-aligned) file, got {sizes}"
    )


def test_slow_link_still_sorts_correctly(tmp_path):
    # recv_delay is a degradation, not a fault: output must stay valid.
    job = chaos_job(tmp_path, ChaosSpec(rank=0, recv_delay_s=0.002))
    result = NativeSorter(job).run()
    report = result.validate()
    assert report.ok, report.issues
    keys = np.concatenate(result.output_keys())
    assert np.array_equal(keys, np.sort(keys))
    result.cleanup()


def test_clean_run_unaffected_by_wired_hooks(tmp_path):
    # A no-op spec exercises every hook call site without injecting.
    job = chaos_job(tmp_path, ChaosSpec(rank=0))
    result = NativeSorter(job).run()
    assert result.validate().ok
    result.cleanup()


def test_run_chaos_case_flags_hang_and_bogus_success(tmp_path):
    # A terminal fault that "succeeds" must be reported as a failure.
    verdict = run_chaos_case(
        ChaosSpec(rank=0, kill_at="after:run_formation"),
        str(tmp_path / "a"),
        budget=30.0,
    )
    assert verdict["ok"]
    # Budget of ~zero: even an instant clean error counts as too slow,
    # proving the harness enforces the latency contract.
    verdict = run_chaos_case(
        ChaosSpec(rank=0, kill_at="after:run_formation"),
        str(tmp_path / "b"),
        budget=0.0,
    )
    assert not verdict["ok"]


@pytest.mark.parametrize("pipelined", [False, True], ids=["sync", "pipelined"])
def test_rerun_after_kill_in_same_spill_dir(tmp_path, pipelined):
    """A clean rerun over a crashed attempt's spill dir must succeed.

    The kill leaves the directory mid-redistribution — some run pieces
    already deleted, segments half-written.  The rerun regenerates and
    overwrites everything; ``store.remove()`` being idempotent is what
    keeps its teardown from tripping over the already-missing files.
    """
    knobs = (
        {"prefetch_blocks": 4, "write_behind_blocks": 4} if pipelined else {}
    )
    job = chaos_job(
        tmp_path, ChaosSpec(rank=0, kill_at="after:all_to_all"), **knobs
    )
    assert_fails_fast(job, match="worker 0")
    clean = chaos_job(tmp_path, None, **knobs)
    result = NativeSorter(clean).run()
    report = result.validate()
    assert report.ok, report.issues
    result.cleanup()


def test_enospc_inside_write_behind_thread_fails_fast(tmp_path):
    """The torn disk-full write fires on the write-behind *thread*.

    The threshold sits past the 8 KiB input slice (written synchronously
    by generate), so the failing write is a run-formation piece spill —
    deferred to the writer thread when write-behind is on.  The latched
    error must re-raise on the worker's main thread and surface as a
    NativeSortError, not a hang or a silent success.
    """
    job = chaos_job(
        tmp_path,
        ChaosSpec(rank=0, enospc_after_bytes=9000),
        prefetch_blocks=4,
        write_behind_blocks=4,
    )
    err = assert_fails_fast(job, match="worker 0 failed")
    assert "ENOSPC" in str(err) or "spill device full" in str(err)


@pytest.mark.parametrize("records", ["fixed16", "string"])
def test_pipelined_sweep_enospc_fires_in_the_run_formation_writer(
    tmp_path, records
):
    """The pipelined sweep's disk-full case clears the model's input
    (written during generate) and tears a piece spill on the
    write-behind thread, for either record model."""
    spec = sweep_specs([], pipelined=True, records=records)[-1]
    assert spec.enospc_after_bytes is not None
    verdict = run_chaos_case(spec, str(tmp_path), prefetch_blocks=4,
                             write_behind_blocks=4, records=records)
    assert verdict["ok"], verdict
    assert "in run_formation" in verdict["outcome"], verdict["outcome"]
    assert "in _write_loop" in verdict["outcome"], verdict["outcome"]
    assert "piece" in verdict["outcome"], verdict["outcome"]


def test_kill_points_cover_every_phase_boundary():
    points = kill_points()
    for phase in ("run_formation", "selection", "all_to_all", "merge"):
        assert f"before:{phase}" in points
        assert f"after:{phase}" in points
    assert not any(p.endswith(":generate") for p in points)
    assert any(
        p.endswith(":generate") for p in kill_points(include_generate=True)
    )


# ----------------------------------------------------------- nightly tier


@pytest.mark.conformance
def test_full_kill_sweep_every_boundary(tmp_path):
    verdicts = run_chaos_sweep(str(tmp_path), budget=30.0)
    assert len(verdicts) == len(sweep_specs())
    bad = [v for v in verdicts if not v["ok"]]
    assert not bad, bad


@pytest.mark.conformance
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_kill_any_rank_three_workers(tmp_path, rank):
    job = chaos_job(
        tmp_path, ChaosSpec(rank=rank, kill_at="before:selection"), n_workers=3
    )
    assert_fails_fast(job, match=f"worker {rank}")
