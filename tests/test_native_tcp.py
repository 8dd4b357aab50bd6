"""End-to-end native sorts over the TCP transport.

The same phases, workers, and files as test_native_sort.py, but the
interconnect is a real socket mesh built by rendezvous — including the
externally-launched-worker mode (``--no-spawn`` + ``python -m repro
worker``) and the comm-level chaos faults only a network can have.
"""

import json
import multiprocessing as mp
import socket

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native import NativeJob, NativeSorter, native_sort
from repro.native.worker import tcp_worker_main
from repro.testing.chaos import ChaosSpec, run_chaos_case

KiB = 1024
RECORD_BYTES = 16


def native_config(**overrides):
    base = dict(
        data_per_node_bytes=64 * KiB,    # 4096 records / worker
        memory_bytes=24 * KiB,
        block_bytes=1 * KiB,
        seed=42,
    )
    base.update(overrides)
    return SortConfig(**base)


def run_tcp_sort(tmp_path, n_workers=3, **overrides):
    return native_sort(
        native_config(**overrides),
        n_workers=n_workers,
        spill_dir=str(tmp_path),
        timeout=120,
        transport="tcp",
    )


def test_tcp_sort_is_correct_and_bitwise_matches_pipe(tmp_path):
    tcp = run_tcp_sort(tmp_path / "tcp", n_workers=3)
    assert tcp.validate().ok, tcp.validate().issues
    pipe = native_sort(
        native_config(),
        n_workers=3,
        spill_dir=str(tmp_path / "pipe"),
        timeout=120,
        transport="pipe",
    )
    # The transport must be bitwise-invisible in the output.
    assert [m.checksum for m in tcp.outputs] == [m.checksum for m in pipe.outputs]
    assert np.array_equal(
        np.concatenate(tcp.output_keys()), np.concatenate(pipe.output_keys())
    )


def test_tcp_all_to_all_wire_volume_meets_the_paper_bound(tmp_path):
    """The in-place all-to-all: what crosses the wire plus what stays in
    the piece files is exactly N record bytes, nothing is self-delivered,
    and the phase's disk traffic is twice what crossed."""
    result = run_tcp_sort(tmp_path, n_workers=3)
    stats = result.stats
    n_bytes = result.job.total_records * RECORD_BYTES
    shipped = stats.wire_sent("all_to_all")
    assert 0 < shipped < n_bytes // 4
    assert shipped + stats.counter_total("a2a_kept_bytes") == n_bytes
    assert stats.local_bytes("all_to_all") == 0
    assert stats.phase_bytes("all_to_all") == 2 * shipped
    # Real sockets moved real framed bytes: kernel counts exceed payload.
    assert stats.socket_bytes_sent > stats.wire_sent("all_to_all")
    assert stats.socket_bytes_recv > 0
    # And the transport shows up in the report surfaces.
    d = stats.to_dict()
    assert d["phases"]["all_to_all"]["wire_volume"] == shipped
    assert "all-to-all moved" in stats.summary()


def test_externally_launched_workers(tmp_path):
    """The --no-spawn flow: driver listens, workers dial in from outside."""
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    n_workers = 2
    job = NativeJob(
        config=native_config(),
        n_workers=n_workers,
        spill_dir=str(tmp_path),
        timeout=60,
        transport="tcp",
        listen=f"127.0.0.1:{port}",
        spawn_workers=False,
    )
    ctx = mp.get_context("spawn")
    procs = [
        ctx.Process(
            target=tcp_worker_main,
            args=(rank, ("127.0.0.1", port)),
            kwargs={"connect_timeout": 60.0},
        )
        for rank in range(n_workers)
    ]
    for p in procs:
        p.start()
    try:
        result = NativeSorter(job).run()
    finally:
        for p in procs:
            p.join(timeout=30)
            if p.is_alive():
                p.kill()
    assert all(p.exitcode == 0 for p in procs)
    assert result.validate().ok, result.validate().issues
    assert result.stats.wire_volume("all_to_all") + result.stats.counter_total(
        "a2a_kept_bytes"
    ) == job.total_records * RECORD_BYTES


def test_chaos_kill_over_tcp_fails_fast(tmp_path):
    verdict = run_chaos_case(
        ChaosSpec(rank=0, kill_at="before:all_to_all"),
        str(tmp_path / "spill"),
        transport="tcp",
    )
    assert verdict["ok"], verdict


@pytest.mark.parametrize("transport,n_workers", [
    pytest.param(t, p, id=t if p == 2 else f"{t}-p{p}")
    for p in (2, 3) for t in ("pipe", "tcp", "shm")
])
def test_chaos_sever_fails_fast_without_torn_outputs(
    tmp_path, transport, n_workers
):
    """A severed peer is EOF on every channel, well before the job
    timeout: the budget is a small fraction of it.  A worker that kept
    the other ranks' inherited ends open saw the sever only at the
    timeout; at P = 3 it also needs the third rank, whose own channel
    is intact, to fail fast."""
    verdict = run_chaos_case(
        ChaosSpec(rank=0, sever_comm_at="before:all_to_all"),
        str(tmp_path / "spill"),
        n_workers=n_workers,
        job_timeout=60.0,
        budget=5.0,
        transport=transport,
    )
    assert verdict["ok"], verdict


def test_chaos_wedge_over_tcp_fails_fast(tmp_path):
    verdict = run_chaos_case(
        ChaosSpec(rank=0, wedge_comm_at="before:all_to_all"),
        str(tmp_path / "spill"),
        job_timeout=3.0,
        transport="tcp",
    )
    assert verdict["ok"], verdict


def test_cli_tcp_json_reports_wire_volume(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path), "--json",
        "--transport", "tcp",
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == "native"
    assert report["validation"]["ok"] is True
    n_bytes = 2 * int(0.125 * 1024 * 1024)
    kept = sum(w["counters"]["a2a_kept_bytes"] for w in report["per_worker"])
    assert report["phases"]["all_to_all"]["wire_volume"] + kept == n_bytes
    assert report["phases"]["all_to_all"]["wire_sent"] > 0
