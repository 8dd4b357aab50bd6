"""End-to-end recovery: native jobs survive PE death at phase boundaries.

The quick tier runs one representative of each fault family through the
differential recovery harness (clean twin vs chaos + ``max_restarts=1``;
the resumed sort must agree *bitwise* with the undisturbed run), plus
the satellite regressions: abort-path spill cleanup, the torn-result
GOODBYE diagnostic, the CLI recovery surface, and the ``:recover``
conformance token.  The full kill/sever/wedge sweep over both
transports runs nightly (``-m conformance``).
"""

import json
import os
import time

import pytest

from repro.core.config import SortConfig
from repro.native import NativeJob, NativeSorter
from repro.native.driver import NativeSortError
from repro.testing import differential
from repro.testing.chaos import ChaosSpec, run_chaos_case, run_chaos_sweep

RB = 16


def recovery_job(tmp_path, spec, max_restarts=1, n_per_rank=512, n_workers=2,
                 timeout=6.0, block=32, mem=384, **job_kw):
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
        max_restarts=max_restarts,
        **job_kw,
    )


def assert_recovered(verdict):
    assert verdict["ok"], verdict["outcome"]
    assert verdict["restarts"] >= 1
    return verdict["recovery"]


# ------------------------------------------------------------- quick tier


def test_boundary_kill_recovers_bitwise(tmp_path):
    """A rank killed at a phase boundary resumes and matches the oracle."""
    verdict = run_chaos_case(
        ChaosSpec(rank=0, kill_at="after:run_formation"),
        str(tmp_path), job_timeout=6.0, recover=True,
    )
    rec = assert_recovered(verdict)
    # Run formation finished before the kill: its blocks are never
    # re-read, and suspects prove their pieces by CRC instead.
    assert rec["rf_blocks_reread"] == 0
    assert rec["crc_blocks_verified"] > 0


def test_mid_exchange_kill_skips_delivered_chunks(tmp_path):
    """A death *inside* all-to-all replays only undelivered chunk ranges."""
    verdict = run_chaos_case(
        ChaosSpec(rank=0, kill_after_a2a_chunks=3),
        str(tmp_path), job_timeout=6.0, recover=True,
    )
    rec = assert_recovered(verdict)
    assert rec["rf_blocks_reread"] == 0
    # The watermark journal made pre-crash deliveries durable; the
    # resumed exchange skipped them rather than resending.
    assert rec["chunks_skipped"] > 0


def test_kill_between_a2a_done_and_merge_rereads_nothing(tmp_path):
    """Past ``a2a_done`` the pieces and slabs *are* the merge's input:
    the resumed attempt must find them in place (nothing reclaimed
    early), rebuild the extent table from the journal, and read each
    segment byte exactly once — in the merge, nowhere else."""
    job = recovery_job(
        tmp_path, ChaosSpec(rank=0, kill_at="before:merge"),
        n_per_rank=2048, mem=1536,
    )
    result = NativeSorter(job).run()
    assert result.validate().ok
    stats = result.stats
    assert stats.restarts == 1
    rec = stats.recovery_dict()
    assert rec["rf_blocks_reread"] == 0 and rec["crc_blocks_verified"] == 0
    # run formation, selection, all-to-all restored on both ranks.
    assert rec["phases_restored"] >= 6
    nbytes = stats.total_bytes
    for w in stats.workers:
        # The resumed epoch reads data under the merge tag only ...
        assert set(w.bytes_read) <= {"merge", "merge:index"}
        assert set(w.bytes_written) <= {"merge"}
        # ... and finds an unknown first key with one record per run at most.
        probes = w.read_ops.get("merge:index", 0)
        assert probes <= stats.n_runs
        assert w.bytes_read.get("merge:index", 0) == probes * RB
    # The victim merges its whole share; its peer either does too or had
    # finished before the attempt was reaped (merge is restored per rank).
    share = nbytes // len(stats.workers)
    assert stats.workers[0].bytes_read["merge"] == share
    assert stats.workers[1].bytes_read.get("merge", 0) in (0, share)
    left = sorted(os.listdir(job.spill_dir))
    assert not [n for n in left if "piece" in n or n.startswith("slab")], left

    clean = NativeSorter(
        recovery_job(
            tmp_path / "clean", None, max_restarts=0, n_per_rank=2048, mem=1536
        )
    ).run()
    for a, b in zip(result.outputs, clean.outputs):
        assert open(a.path, "rb").read() == open(b.path, "rb").read()


def test_severed_mesh_recovers(tmp_path):
    verdict = run_chaos_case(
        ChaosSpec(rank=0, sever_comm_at="before:all_to_all"),
        str(tmp_path), job_timeout=6.0, recover=True,
    )
    rec = assert_recovered(verdict)
    assert rec["rf_blocks_reread"] == 0


def test_wedged_rank_recovers(tmp_path):
    verdict = run_chaos_case(
        ChaosSpec(rank=0, wedge_comm_at="before:all_to_all"),
        str(tmp_path), job_timeout=4.0, budget=60.0, recover=True,
    )
    rec = assert_recovered(verdict)
    assert rec["rf_blocks_reread"] == 0


def test_tcp_kill_recovers_through_resume_rendezvous(tmp_path):
    """TCP restart re-runs the coordinator handshake as a RESUME."""
    verdict = run_chaos_case(
        ChaosSpec(rank=1, kill_at="after:selection"),
        str(tmp_path), job_timeout=8.0, budget=60.0,
        transport="tcp", recover=True,
    )
    rec = assert_recovered(verdict)
    assert rec["rf_blocks_reread"] == 0


def test_restart_budget_exhausted_still_aborts_fast(tmp_path):
    """max_restarts=0 keeps the fail-fast contract even with manifests."""
    job = recovery_job(
        tmp_path, ChaosSpec(rank=0, kill_at="after:selection"),
        max_restarts=0, checkpoint=True,
    )
    start = time.monotonic()
    with pytest.raises(NativeSortError, match="worker 0"):
        NativeSorter(job).run()
    assert time.monotonic() - start < 30.0


def test_recovery_counters_ride_the_stats_report(tmp_path):
    job = recovery_job(tmp_path, ChaosSpec(rank=0, kill_at="after:run_formation"))
    result = NativeSorter(job).run()
    assert result.stats.restarts == 1
    assert len(result.stats.recovery_events) == 1
    event = result.stats.recovery_events[0]
    assert event["epoch"] == 0 and event["rank"] == 0
    rec = result.stats.recovery_dict()
    assert rec["restarts"] == 1
    assert rec["phases_restored"] > 0
    assert "recovery" in result.stats.to_dict()
    assert "restart" in result.stats.summary()


# ------------------------------------------------------------- spill cleanup


def test_final_abort_removes_spill_dir_when_asked(tmp_path):
    job = recovery_job(
        tmp_path, ChaosSpec(rank=0, kill_at="after:selection"),
        max_restarts=0, checkpoint=True, cleanup_on_abort=True,
    )
    with pytest.raises(NativeSortError):
        NativeSorter(job).run()
    assert not os.path.exists(job.spill_dir)


def test_abort_keeps_spill_dir_by_default(tmp_path):
    """A populated spill dir is evidence; only opt-in cleanup removes it."""
    job = recovery_job(
        tmp_path, ChaosSpec(rank=0, kill_at="after:selection"),
        max_restarts=0, checkpoint=True,
    )
    with pytest.raises(NativeSortError):
        NativeSorter(job).run()
    assert os.path.isdir(job.spill_dir)
    assert any(f.startswith("manifest_") for f in os.listdir(job.spill_dir))


def test_successful_resume_keeps_the_outputs(tmp_path):
    """cleanup_on_abort never touches a job that recovered and finished."""
    job = recovery_job(
        tmp_path, ChaosSpec(rank=0, kill_at="after:run_formation"),
        cleanup_on_abort=True,
    )
    result = NativeSorter(job).run()
    assert result.stats.restarts == 1
    for meta in result.outputs:
        assert os.path.exists(meta.path)


# ------------------------------------------------------------- torn result


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_goodbye_after_partial_result_is_a_torn_result(
    tmp_path, monkeypatch, transport
):
    """A half-sent result frame followed by GOODBYE is *torn*, not clean.

    The deliberate-GOODBYE diagnostic exists for a worker that closes
    its result channel without ever starting a report; once result bytes
    are in flight, a GOODBYE means the message was cut off and must
    surface as an unreadable/wedged result, never as the polite close.
    """
    monkeypatch.setattr("repro.native.driver.RESULT_RECV_TIMEOUT", 1.5)
    job = recovery_job(
        tmp_path, ChaosSpec(rank=0, goodbye_result_at="before:report"),
        max_restarts=0, transport=transport,
        timeout=8.0 if transport == "tcp" else 6.0,
    )
    with pytest.raises(NativeSortError) as info:
        NativeSorter(job).run()
    text = str(info.value)
    assert "deliberately" not in text
    assert ("wedged" in text) or ("unreadable" in text), text


# ------------------------------------------------------------- CLI surface


def test_cli_checkpoint_json_reports_recovery(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path), "--json", "--checkpoint",
        "--max-restarts", "2",
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["ok"] is True
    assert report["config"]["checkpoint"] is True
    assert report["config"]["max_restarts"] == 2
    rec = report["recovery"]
    assert rec["restarts"] == 0 and rec["events"] == []


# ------------------------------------------------------------- conformance hooks


def test_recover_token_roundtrip():
    spec = differential.CaseSpec(
        entry="uniform", sizing="base", backends=("native",), recover=True
    )
    token = spec.to_token()
    assert token.endswith(":recover")
    assert differential.CaseSpec.from_token(token) == spec


def test_recovery_variants_are_native_only_recover_twins():
    base = differential.CaseSpec(entry="uniform", sizing="base")
    twins = differential.recovery_variants([base])
    assert len(twins) == 1
    assert twins[0].backends == ("native",)
    assert twins[0].recover and twins[0].entry == base.entry


def test_conformance_recover_case_matches_oracle(tmp_path):
    spec = differential.CaseSpec(
        entry="uniform", sizing="single_run", backends=("native",),
        recover=True,
    )
    result = differential.run_native_case(spec, workdir=str(tmp_path))
    assert result.ok, result.divergences


# ------------------------------------------------------------- nightly tier


@pytest.mark.conformance
@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_recovery_sweep_survives_every_fault(tmp_path, transport):
    verdicts = run_chaos_sweep(
        str(tmp_path), job_timeout=6.0, budget=60.0,
        transport=transport, recover=True,
    )
    bad = [v for v in verdicts if not v["ok"]]
    assert not bad, "\n".join(f"{v['fault']}: {v['outcome']}" for v in bad)
