"""Tests for SortConfig derivations and SortStats accounting."""

import pytest

from repro import ConfigError, MiB, PAPER_MACHINE, SortConfig
from repro.core.stats import PhaseClock, SortStats
from repro.sim import Simulator

from tests.helpers import small_config


# ----------------------------------------------------------------- config


def test_block_and_key_accounting():
    cfg = SortConfig(
        data_per_node_bytes=64 * MiB, block_bytes=1 * MiB, block_elems=32
    )
    assert cfg.blocks_per_node == 64
    assert cfg.keys_per_node == 64 * 32
    assert cfg.bytes_per_key == 1 * MiB / 32
    assert cfg.total_keys(4) == 4 * 64 * 32
    assert cfg.total_bytes(4) == pytest.approx(4 * 64 * MiB)


def test_downscale_shrinks_simulated_blocks():
    cfg = SortConfig(
        data_per_node_bytes=64 * MiB, block_bytes=1 * MiB, downscale=4
    )
    assert cfg.blocks_per_node == 16
    # Represented bytes are unaffected by downscale per simulated block.
    assert cfg.keys_to_bytes(cfg.block_elems) == 1 * MiB


def test_runs_follow_memory_ratio():
    cfg = small_config()  # 48 MiB data, 16 MiB memory
    assert cfg.piece_blocks(PAPER_MACHINE) == 16
    assert cfg.n_runs(PAPER_MACHINE) == 3


def test_repr_elems_per_key():
    cfg = SortConfig(block_bytes=8 * MiB, block_elems=32)
    # 8 MiB / 32 keys = 256 KiB per key; at 16 B/element that's 16384.
    assert cfg.repr_elems_per_key == pytest.approx((8 * MiB / 32) / 16)


def test_memory_defaults_to_machine_spec():
    cfg = SortConfig(memory_bytes=None)
    assert cfg.resolve_memory_bytes(PAPER_MACHINE) == PAPER_MACHINE.usable_ram


def test_validate_rejects_too_many_runs():
    cfg = SortConfig(
        data_per_node_bytes=1000 * MiB,
        memory_bytes=2 * MiB,
        block_bytes=1 * MiB,
    )
    with pytest.raises(ConfigError, match="two-pass"):
        cfg.validate(PAPER_MACHINE, 4)


def test_validate_rejects_unknown_selection():
    cfg = small_config(selection="telepathy")
    with pytest.raises(ConfigError):
        cfg.validate(PAPER_MACHINE, 2)


def test_validate_rejects_bad_mem_fraction():
    cfg = small_config(alltoall_mem_fraction=0.0)
    with pytest.raises(ConfigError):
        cfg.validate(PAPER_MACHINE, 2)


def test_with_overrides_is_functional():
    cfg = small_config()
    other = cfg.with_overrides(randomize=False)
    assert cfg.randomize and not other.randomize


def test_buffer_defaults_scale_with_disks():
    cfg = SortConfig()
    assert cfg.resolved_prefetch_buffers(PAPER_MACHINE) == 16
    assert cfg.resolved_write_buffers(PAPER_MACHINE) == 8


# ------------------------------------------------------------------ stats


def test_phase_timer_records_wall():
    cfg = small_config(downscale=10)
    stats = SortStats(cfg, 2)
    sim = Simulator()

    def body():
        clock = PhaseClock(stats.workers[0], "merge", sim=sim)
        yield sim.timeout(3.0)
        clock.stop()

    sim.run_process(body())
    assert stats.workers[0].walls["merge"] == 3.0
    assert stats.intervals == [(0, "merge", 0.0, 3.0)]
    assert stats.wall_max("merge") == 3.0
    assert stats.wall_avg("merge") == 1.5


def test_phase_timer_double_stop_rejected():
    cfg = small_config()
    stats = SortStats(cfg, 1)
    sim = Simulator()
    clock = PhaseClock(stats.workers[0], "merge", sim=sim)
    clock.stop()
    with pytest.raises(RuntimeError):
        clock.stop()


def test_scaling_exempts_selection():
    cfg = small_config(downscale=10)
    stats = SortStats(cfg, 1)
    stats.record_wall(0, "merge", 2.0)
    stats.record_wall(0, "selection", 2.0)
    assert stats.scaled_wall_max("merge") == 20.0
    assert stats.scaled_wall_max("selection") == 2.0


def test_scaled_total_is_sum_of_phase_maxima():
    cfg = small_config(downscale=2)
    stats = SortStats(cfg, 2)
    stats.record_wall(0, "run_formation", 5.0)
    stats.record_wall(1, "run_formation", 3.0)
    stats.record_wall(0, "merge", 1.0)
    stats.record_wall(1, "merge", 2.0)
    stats.record_wall(0, "selection", 0.5)
    stats.record_wall(1, "selection", 0.25)
    stats.record_wall(0, "all_to_all", 0.0)
    stats.record_wall(1, "all_to_all", 0.0)
    assert stats.scaled_total_time == pytest.approx(2 * 5 + 2 * 2 + 0.5)


def test_counters_accumulate_and_total():
    cfg = small_config()
    stats = SortStats(cfg, 2)
    stats.workers[0].add_counter("x", 2)
    stats.workers[0].add_counter("x", 3)
    stats.workers[1].add_counter("x", 1)
    assert stats.workers[0].counters["x"] == 5
    assert stats.counter_total("x") == 6
    assert stats.counter_total("missing") == 0


def test_dynamic_phase_registration():
    cfg = small_config()
    stats = SortStats(cfg, 1)
    stats.record_wall(0, "distribute", 1.0)
    assert "distribute" in stats.phases


def test_summary_renders():
    cfg = small_config()
    stats = SortStats(cfg, 1)
    stats.record_wall(0, "run_formation", 12.0)
    stats.total_time = 12.0
    text = stats.summary()
    assert "P=1" in text
    assert "run_formation" in text


def test_stats_to_dict_and_json(tmp_path):
    from tests.helpers import run_small_sort

    _cl, _cfg, _em, _b, result = run_small_sort("random", n_nodes=2)
    snap = result.stats.to_dict()
    assert snap["n_workers"] == 2
    assert set(snap["phases"]) >= {"run_formation", "merge"}
    assert len(snap["per_worker"]) == 2
    assert snap["total_time_scaled"] > 0
    path = result.stats.save_json(str(tmp_path / "stats.json"))
    import json

    with open(path) as handle:
        loaded = json.load(handle)
    assert loaded["phases"]["merge"]["bytes"] > 0


def test_phase_some_ranks_never_recorded_reads_as_zero():
    stats = SortStats(small_config(), 2)
    stats.record_wall(0, "sample", 1.0)
    assert stats.wall_max("sample") == 1.0
    assert stats.wall_avg("sample") == 0.5
    assert stats.phases == ["sample"]
    assert "sample" in stats.summary()
    assert stats.to_dict()["phases"]["sample"]["wall_max"] == 1.0


# ------------------------------------------- the contract the suite reads


def test_native_to_dict_carries_every_key_the_suite_reads(tmp_path):
    import json
    import pickle

    from repro.native import native_sort
    from repro.native.stats import WorkerStats
    from tests.helpers import assert_suite_digest_keys

    result = native_sort(
        SortConfig(data_per_node_bytes=128 * 1024, memory_bytes=48 * 1024,
                   block_bytes=2048, seed=3),
        n_workers=2, spill_dir=str(tmp_path), timeout=120,
    )
    assert result.validate().ok
    # The service ships the same dict as JSON.
    stats = json.loads(json.dumps(result.stats.to_dict()))
    result.cleanup()
    assert_suite_digest_keys(stats)
    assert stats["n_runs"] >= 2
    assert len(stats["per_worker"]) == 2
    # benchmarks/suite/probes.py builds a record by hand and reads its
    # counters; workers pickle theirs to the driver.
    record = WorkerStats(rank=1)
    assert record.counters == {}
    record.add_counter("probe_prefetch_direct")
    assert pickle.loads(pickle.dumps(record)) == record
