"""Reproducibility guarantees: identical configs, identical results.

The simulation draws all randomness from seeded generators and schedules
same-instant events in FIFO order, so every number the harness reports
is exactly reproducible — the property that makes the recorded
EXPERIMENTS.md tables meaningful.
"""

import numpy as np

from repro import GiB, MiB
from repro.bench import paper_config, run_canonical
from tests.helpers import run_small_sort


def tiny():
    return paper_config(
        data_per_node_bytes=1 * GiB,
        memory_bytes=256 * MiB,
        downscale=4,
        block_elems=8,
    )


def test_harness_runs_bit_identical():
    a = run_canonical(3, "worstcase", config=tiny())
    b = run_canonical(3, "worstcase", config=tiny())
    assert a.total_seconds == b.total_seconds
    assert a.alltoall_volume_ratio == b.alltoall_volume_ratio
    for phase in a.stats.phases:
        assert a.stats.wall_max(phase) == b.stats.wall_max(phase)
        assert a.stats.phase_bytes(phase) == b.stats.phase_bytes(phase)
    assert [w.counters for w in a.stats.workers] == [
        w.counters for w in b.stats.workers
    ]


def test_different_seeds_differ():
    cfg = tiny()
    a = run_canonical(2, "random", config=cfg, seed=1)
    b = run_canonical(2, "random", config=cfg, seed=2)
    assert a.total_seconds != b.total_seconds


def test_per_node_stats_reproducible():
    _cl, _cfg, em1, _b, r1 = run_small_sort("skewed", n_nodes=3, seed=77)
    _cl, _cfg, em2, _b, r2 = run_small_sort("skewed", n_nodes=3, seed=77)
    for rank in range(3):
        for phase in r1.stats.phases:
            s1 = r1.stats.workers[rank]
            s2 = r2.stats.workers[rank]
            assert s1.walls[phase] == s2.walls[phase]
            assert s1.io_s[phase] == s2.io_s[phase]
    for a, b in zip(r1.output_keys(em1), r2.output_keys(em2)):
        assert np.array_equal(a, b)


def test_intervals_reproducible():
    _cl, _cfg, _em, _b, r1 = run_small_sort("random", n_nodes=2, seed=5)
    _cl, _cfg, _em, _b, r2 = run_small_sort("random", n_nodes=2, seed=5)
    assert r1.stats.intervals == r2.stats.intervals
