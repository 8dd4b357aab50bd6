"""Native fault injection: every failure is fast, diagnosable, never a hang.

The quick tier (unmarked tests) injects one representative of each fault
family — worker death, torn/wedged result pipe, stalled PE, spill-disk
ENOSPC with a torn write — and asserts the driver surfaces a clean
:class:`NativeSortError` well inside the test timeout.  The full
kill-at-every-phase-boundary sweep runs nightly (``-m conformance``).
"""

import time

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native import NativeJob, NativeSorter
from repro.native.driver import NativeSortError
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


# ------------------------------------------------------------- quick tier


def test_kill_after_run_formation_fails_fast(tmp_path):
    job = chaos_job(tmp_path, ChaosSpec(rank=0, kill_at="after:run_formation"))
    err = assert_fails_fast(job, match="worker 0")
    assert str(KILL_EXIT_CODE) in str(err)  # the exit code is diagnosable


def test_kill_nonzero_rank_named_in_error(tmp_path):
    job = chaos_job(tmp_path, ChaosSpec(rank=1, kill_at="before:merge"))
    assert_fails_fast(job, match="worker 1")


# One result collector reads every transport's result channel: the pipe
# and shm workers' result pipes and the tcp workers' rendezvous sockets.
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


@pytest.mark.parametrize(
    "spec",
    [ChaosSpec(rank=0, kill_at="before:merge"),
     ChaosSpec(rank=0, enospc_after_bytes=9000)],
    ids=["kill", "enospc"],
)
def test_striped_faults_fail_fast(tmp_path, spec):
    """The striped backend gets the same fault hooks as canonical: a
    kill before its merge and a torn ENOSPC in its run formation fail
    fast, naming the faulty rank."""
    job = chaos_job(tmp_path, spec, algo="striped")
    assert_fails_fast(job, match="worker 0")


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


@pytest.mark.conformance
def test_striped_severed_mesh_leaves_no_output(tmp_path):
    """The sweep's no-torn-output contract, on the striped backend: a
    mesh severed before the exchange kills the job before any merge."""
    job = chaos_job(
        tmp_path, ChaosSpec(rank=0, sever_comm_at="before:all_to_all"),
        algo="striped", timeout=4.0,
    )
    assert_fails_fast(job, budget=20.0)
    assert not list((tmp_path / "spill").glob("output_*.dat"))
