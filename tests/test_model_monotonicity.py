"""Sanity of the performance model: more resources never hurt.

These tests pin the cost model against inversions a refactor could
introduce: a machine with more disks, faster disks, a faster network or
more memory must never sort the same data slower (holding the random
seeds fixed and disabling the per-disk bandwidth jitter so comparisons
are exact).
"""

import pytest

from repro import CanonicalMergeSort, Cluster, MiB, PAPER_MACHINE
from repro.workloads import generate_input
from tests.helpers import small_config

#: Jitter-free machine so resource comparisons are deterministic.
BASE = PAPER_MACHINE.with_overrides(disk_bandwidth_spread=0.0)


def total_time(spec, **config_overrides):
    cfg = small_config(**config_overrides)
    cluster = Cluster(4, spec=spec)
    em, inputs = generate_input(cluster, cfg, "random")
    result = CanonicalMergeSort(cluster, cfg).sort(em, inputs)
    return result.stats.total_time


def test_more_disks_never_slower():
    slow = total_time(BASE.with_overrides(disks_per_node=2))
    fast = total_time(BASE.with_overrides(disks_per_node=8))
    assert fast < slow


def test_faster_disks_never_slower():
    slow = total_time(BASE.with_overrides(disk_bandwidth=40 * MiB))
    fast = total_time(BASE.with_overrides(disk_bandwidth=120 * MiB))
    assert fast < slow


def test_faster_network_never_slower():
    slow = total_time(
        BASE.with_overrides(net_p2p_bandwidth=2e8, net_min_bandwidth=2e8)
    )
    fast = total_time(
        BASE.with_overrides(net_p2p_bandwidth=4e9, net_min_bandwidth=4e9)
    )
    assert fast <= slow


def test_more_memory_means_fewer_runs_and_less_time():
    slow = total_time(BASE, memory_bytes=8 * MiB)   # R = 6
    fast = total_time(BASE, memory_bytes=24 * MiB)  # R = 2
    assert fast < slow


def test_more_cores_never_slower():
    slow = total_time(BASE.with_overrides(cores_per_node=1))
    fast = total_time(BASE.with_overrides(cores_per_node=16))
    assert fast <= slow


def test_seek_time_zero_never_slower():
    slow = total_time(BASE.with_overrides(disk_seek_time=0.05))
    fast = total_time(BASE.with_overrides(disk_seek_time=0.0))
    assert fast < slow


def test_io_time_bounded_by_wall_time():
    cfg = small_config()
    cluster = Cluster(3, spec=BASE)
    em, inputs = generate_input(cluster, cfg, "random")
    result = CanonicalMergeSort(cluster, cfg).sort(em, inputs)
    for rank in range(3):
        for phase in result.stats.phases:
            io = result.stats.workers[rank].io_s[phase]
            # The busiest disk of a phase cannot be busy longer than the
            # phase ran (plus async writes draining into the next phase).
            assert io <= result.stats.total_time + 1e-9
