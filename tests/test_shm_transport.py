"""End-to-end native sorts over the shared-memory transport.

The same phases, workers, and files as test_native_sort.py, but the
interconnect is a mesh of shared-memory SPSC rings — the zero-copy
single-host transport.  Beyond correctness, these tests pin down the
transport's two lifecycle guarantees: the output is bitwise identical
to the pipe transport's, and no run (clean or killed) leaves a segment
behind in /dev/shm.
"""

import json

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native import native_sort
from repro.native.shm import list_shm_segments
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


def run_shm_sort(tmp_path, n_workers=3, skew=False, **overrides):
    return native_sort(
        native_config(**overrides),
        n_workers=n_workers,
        spill_dir=str(tmp_path),
        timeout=120,
        skew=skew,
        transport="shm",
    )


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this file must leave /dev/shm exactly as it found it."""
    before = set(list_shm_segments())
    yield
    leaked = set(list_shm_segments()) - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


def test_shm_sort_is_correct_and_bitwise_matches_pipe(tmp_path):
    shm = run_shm_sort(tmp_path / "shm", n_workers=3)
    assert shm.validate().ok, shm.validate().issues
    pipe = native_sort(
        native_config(),
        n_workers=3,
        spill_dir=str(tmp_path / "pipe"),
        timeout=120,
        transport="pipe",
    )
    # The transport must be bitwise-invisible in the output.
    assert [m.checksum for m in shm.outputs] == [m.checksum for m in pipe.outputs]
    assert np.array_equal(
        np.concatenate(shm.output_keys()), np.concatenate(pipe.output_keys())
    )


def test_shm_all_to_all_wire_volume_meets_the_paper_bound(tmp_path):
    """What crosses the rings plus what stays in the piece files is
    exactly N record bytes; nothing is self-delivered."""
    result = run_shm_sort(tmp_path, n_workers=3)
    stats = result.stats
    n_bytes = result.job.total_records * RECORD_BYTES
    shipped = stats.wire_sent("all_to_all")
    assert shipped + stats.counter_total("a2a_kept_bytes") == n_bytes
    assert stats.wire_volume("all_to_all") == shipped
    assert stats.phase_bytes("all_to_all") == 2 * shipped


def test_shm_sort_two_workers_skew(tmp_path):
    result = run_shm_sort(tmp_path, n_workers=2, skew=True)
    assert result.validate().ok, result.validate().issues


def test_chaos_kill_over_shm_fails_fast_and_unlinks(tmp_path):
    """A killed PE fails the job fast — and the driver still unlinks
    every ring segment (the /dev/shm leak check is the autouse fixture)."""
    verdict = run_chaos_case(
        ChaosSpec(rank=0, kill_at="before:all_to_all"),
        str(tmp_path / "spill"),
        transport="shm",
    )
    assert verdict["ok"], verdict


def test_chaos_wedge_over_shm_fails_fast(tmp_path):
    verdict = run_chaos_case(
        ChaosSpec(rank=0, wedge_comm_at="before:all_to_all"),
        str(tmp_path / "spill"),
        job_timeout=3.0,
        transport="shm",
    )
    assert verdict["ok"], verdict


def test_cli_shm_json_is_valid(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path), "--json",
        "--transport", "shm",
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

# ---------------------------------------------------------- ring capacity


def test_ring_capacity_is_tunable_and_bitwise_invisible(tmp_path, monkeypatch):
    """A 1 KiB ring (smaller than most messages) still sorts correctly:
    the producer streams oversized messages through in pieces, so any
    positive ``DEFAULT_RING_BYTES`` is correct.  The driver's mesh reads
    the constant when it builds the rings, so patching it here reaches
    every ring of the job."""
    from repro.native import shm

    built = []
    create = shm.create_shm_mesh

    def recording(*args, ring_bytes, **kwargs):
        built.append(ring_bytes)
        return create(*args, ring_bytes=ring_bytes, **kwargs)

    monkeypatch.setattr(shm, "create_shm_mesh", recording)
    monkeypatch.setattr(shm, "DEFAULT_RING_BYTES", 1 * KiB)
    tiny = native_sort(
        native_config(),
        n_workers=2,
        spill_dir=str(tmp_path / "tiny"),
        timeout=120,
        transport="shm",
    )
    monkeypatch.undo()
    assert built == [1 * KiB]
    assert tiny.validate().ok, tiny.validate().issues
    default = native_sort(
        native_config(),
        n_workers=2,
        spill_dir=str(tmp_path / "default"),
        timeout=120,
        transport="shm",
    )
    assert [m.checksum for m in tiny.outputs] == [
        m.checksum for m in default.outputs
    ]

