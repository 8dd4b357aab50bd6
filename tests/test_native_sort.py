"""End-to-end tests of the native backend: real files, real processes.

Sizes are tiny (the CI container has one CPU and the workers time-slice
it), but every configuration still crosses all four phases, multiple
runs, and the full pipe mesh.
"""

import json
import os

import numpy as np
import pytest

from repro.core.config import ConfigError, SortConfig
from repro.native import NativeJob, NativeSorter, NativeSortError, native_sort
from repro.native.records import NATIVE_DTYPE
from repro.workloads.gensort import record_keys
from repro.workloads.validation import validate_output

KiB = 1024


def native_config(**overrides):
    base = dict(
        data_per_node_bytes=128 * KiB,   # 8192 records / worker
        memory_bytes=48 * KiB,
        block_bytes=2 * KiB,             # 128 records / block
        seed=42,
    )
    base.update(overrides)
    return SortConfig(**base)


def run_sort(tmp_path, n_workers=3, skew=False, **overrides):
    cfg = native_config(**overrides)
    return native_sort(
        cfg, n_workers=n_workers, spill_dir=str(tmp_path), skew=skew, timeout=120
    )


def ground_truth_check(result, skew=False):
    """Full valsort + permutation check against regenerated input keys."""
    job = result.job
    keys_in = record_keys(
        0, job.total_records, seed=job.config.seed, skew=skew
    )
    report = validate_output([keys_in], result.output_keys())
    # validate_output's balance check uses len(output_parts) as P, which
    # holds here since every rank contributes one part.
    assert report.ok, report.issues
    return report


def test_multiworker_sort_is_correct(tmp_path):
    result = run_sort(tmp_path, n_workers=3)
    report = result.validate()
    assert report.ok, report.issues
    ground_truth_check(result)
    assert result.stats.n_runs > 1  # really external: several runs


def test_payloads_travel_with_their_keys(tmp_path):
    """Records, not bare keys: each output payload still matches its key."""
    result = run_sort(tmp_path, n_workers=2)
    keys_in = record_keys(0, result.job.total_records, seed=42)
    for rank in range(2):
        records = result.output_records(rank)
        assert np.array_equal(keys_in[records["payload"]], records["key"])


def test_single_worker(tmp_path):
    result = run_sort(tmp_path, n_workers=1)
    assert result.validate().ok
    ground_truth_check(result)


def test_single_run(tmp_path):
    # M large enough that all data fits in one run: no merge work to split.
    result = run_sort(
        tmp_path, n_workers=2, memory_bytes=3 * 128 * KiB
    )
    assert result.stats.n_runs == 1
    assert result.validate().ok
    ground_truth_check(result)


def test_skewed_duplicate_heavy_input(tmp_path):
    result = run_sort(tmp_path, n_workers=3, skew=True)
    assert result.validate().ok, result.validate().issues
    ground_truth_check(result, skew=True)


@pytest.mark.parametrize("selection", ["sampled", "basic", "bisect"])
def test_selection_strategies(tmp_path, selection):
    result = run_sort(tmp_path, n_workers=2, selection=selection)
    assert result.validate().ok
    ground_truth_check(result)


def test_no_randomize(tmp_path):
    result = run_sort(tmp_path, n_workers=2, randomize=False)
    assert result.validate().ok
    ground_truth_check(result)


def test_deterministic_output(tmp_path):
    a = run_sort(tmp_path / "a", n_workers=2)
    b = run_sort(tmp_path / "b", n_workers=2)
    assert [m.checksum for m in a.outputs] == [m.checksum for m in b.outputs]
    assert np.array_equal(
        np.concatenate(a.output_keys()), np.concatenate(b.output_keys())
    )


def test_memory_budget_respected(tmp_path):
    """Analytic working set stays within the configured M (plus slack for
    the merge's per-run buffers at this tiny block-to-memory ratio)."""
    result = run_sort(tmp_path, n_workers=2)
    M = result.job.memory_bytes
    assert result.stats.peak_resident_bytes <= 2 * M
    # Run formation really was external: several runs, not one big sort.
    assert result.stats.n_runs >= 3


def test_stats_account_every_phase(tmp_path):
    result = run_sort(tmp_path, n_workers=2)
    stats = result.stats
    for phase in ("generate", "run_formation", "selection", "all_to_all", "merge"):
        assert phase in stats.phases
        assert stats.wall_max(phase) > 0.0
    data = stats.total_bytes
    # Input is read once and pieces written once in run formation.
    assert stats.phase_bytes("run_formation") >= 2 * data
    # The all-to-all reads and writes only what changes rank — on random
    # input a sliver of the data — and the merge reads the rest in place.
    moved = stats.wire_sent("all_to_all")
    assert 0 < moved < data // 4
    assert stats.phase_bytes("all_to_all") == 2 * moved
    assert moved + stats.counter_total("a2a_kept_bytes") == data
    assert stats.phase_bytes("merge") == 2 * data
    assert stats.network_bytes > 0
    d = stats.to_dict()
    assert d["backend"] == "native"
    assert set(d["phases"]) == set(stats.phases)
    assert "wall_max" in d["phases"]["merge"]
    assert stats.summary()


def test_cleanup_removes_spill_dir(tmp_path):
    spill = tmp_path / "spill"
    result = run_sort(spill, n_workers=2)
    assert os.path.isdir(spill)
    result.cleanup()
    assert not os.path.exists(spill)


def test_infeasible_merge_config_rejected(tmp_path):
    # Big blocks + tiny memory: R double-buffers can't fit.
    with pytest.raises(ConfigError):
        NativeJob(
            config=native_config(block_bytes=16 * KiB, memory_bytes=16 * KiB),
            n_workers=2,
            spill_dir=str(tmp_path),
        )


def test_job_validation():
    with pytest.raises(ConfigError):
        NativeJob(config=native_config(), n_workers=0, spill_dir="x")
    with pytest.raises(ConfigError):
        NativeJob(
            config=native_config(block_bytes=8), n_workers=1, spill_dir="x"
        )


def test_worker_failure_surfaces_as_sort_error(tmp_path, monkeypatch):
    """A crashing worker reports a traceback instead of hanging the job."""
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs fork so children inherit the monkeypatch")
    import dataclasses

    import repro.native.worker as worker_mod
    from repro.native.algos import resolve_algorithm

    def boom(ctx):
        raise RuntimeError("injected failure")

    def resolve_boom(algo, records="fixed16"):
        return dataclasses.replace(
            resolve_algorithm(algo, records), run_formation=boom
        )

    monkeypatch.setattr(worker_mod, "resolve_algorithm", resolve_boom)
    job = NativeJob(
        config=native_config(), n_workers=2, spill_dir=str(tmp_path), timeout=60
    )
    with pytest.raises(NativeSortError, match="injected failure"):
        NativeSorter(job).run()


def test_generate_false_reuses_existing_input(tmp_path):
    """generate=False keeps input files from an earlier run in place."""
    first = run_sort(tmp_path, n_workers=2)
    assert first.validate().ok
    # Outputs and intermediates are gone, inputs remain; sort again on them.
    job = NativeJob(
        config=native_config(),
        n_workers=2,
        spill_dir=str(tmp_path),
        generate=False,
        timeout=120,
    )
    second = NativeSorter(job).run()
    assert second.validate().ok
    assert "generate" not in second.stats.phases
    assert [m.checksum for m in second.outputs] == [
        m.checksum for m in first.outputs
    ]


def test_cli_native_backend(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path),
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "output valid" in out
    assert "native total" in out


def test_cli_native_json(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path), "--json",
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == "native"
    assert report["validation"]["ok"] is True
    assert report["config"]["n_workers"] == 2
    assert report["io_bytes"] > 0
    for phase in ("run_formation", "selection", "all_to_all", "merge"):
        assert report["phases"][phase]["wall"] >= 0.0
        assert "io_bytes" in report["phases"][phase]


def test_cli_native_requires_spill_dir(capsys):
    from repro.__main__ import main

    assert main(["--backend", "native", "--nodes", "2"]) == 2


def test_cli_sim_json(capsys):
    from repro.__main__ import main

    code = main(["--nodes", "2", "--data-mib", "24", "--memory-mib", "8", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == "sim"
    assert report["validation"]["ok"] is True
    assert set(report["phases"]) >= {
        "run_formation", "selection", "all_to_all", "merge"
    }
    assert report["io_bytes"] > 0
