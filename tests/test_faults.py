"""Failure-injection tests: the sort stays correct under stragglers.

The paper's §VII raises fault tolerance for very large machines; these
tests inject the performance faults a real cluster sees (degraded disks,
device stalls, throttled nodes) and assert two things: correctness is
untouched (exact splitting and validation are oblivious to timing), and
the faults surface exactly where Figure 3 would show them — as per-PE
imbalance.
"""

import numpy as np
import pytest

from repro import CanonicalMergeSort, Cluster
from repro.cluster import (
    inject_disk_slowdown,
    inject_disk_stall,
    inject_node_slowdown,
)
from repro.workloads import generate_input, input_keys, validate_output
from tests.helpers import small_config


def run_with_faults(inject, n_nodes=4, **overrides):
    cfg = small_config(**overrides)
    cluster = Cluster(n_nodes)
    em, inputs = generate_input(cluster, cfg, "random")
    before = input_keys(em, inputs)
    if inject is not None:
        inject(cluster)
    result = CanonicalMergeSort(cluster, cfg).sort(em, inputs)
    report = validate_output(before, result.output_keys(em))
    return cluster, result, report


def test_disk_slowdown_keeps_sort_correct():
    _cl, result, report = run_with_faults(
        lambda c: inject_disk_slowdown(c, node=1, disk=0, factor=4.0)
    )
    assert report.ok, report.issues


def test_disk_slowdown_creates_straggler():
    _cl, healthy, _rep = run_with_faults(None)
    _cl, faulty, _rep = run_with_faults(
        lambda c: inject_disk_slowdown(c, node=1, disk=0, factor=8.0)
    )
    assert faulty.stats.total_time > 1.2 * healthy.stats.total_time
    # The straggler is node 1: its merge wall time exceeds the others'.
    merge_walls = [pe.walls["merge"] for pe in faulty.stats.workers]
    assert merge_walls[1] == max(merge_walls)
    assert merge_walls[1] > 1.5 * min(merge_walls)


def test_transient_slowdown_recovers():
    _cl, healthy, _rep = run_with_faults(None)
    window = healthy.stats.total_time
    _cl, transient, rep = run_with_faults(
        lambda c: inject_disk_slowdown(
            c, node=0, disk=0, factor=8.0, at=0.0, duration=window / 10
        )
    )
    _cl, permanent, _rep = run_with_faults(
        lambda c: inject_disk_slowdown(c, node=0, disk=0, factor=8.0)
    )
    assert rep.ok
    assert transient.stats.total_time < permanent.stats.total_time


def test_disk_stall_keeps_sort_correct_and_costs_time():
    _cl, healthy, _rep = run_with_faults(None)
    stall = healthy.stats.total_time / 4
    _cl, faulty, report = run_with_faults(
        lambda c: inject_disk_stall(c, node=2, disk=1, at=0.01, duration=stall)
    )
    assert report.ok, report.issues
    assert faulty.stats.total_time > healthy.stats.total_time


def test_node_slowdown_keeps_sort_correct():
    _cl, healthy, _rep = run_with_faults(None)
    _cl, faulty, report = run_with_faults(
        lambda c: inject_node_slowdown(c, node=3, factor=10.0)
    )
    assert report.ok, report.issues
    # Compute is a minority share, so the hit is visible but bounded.
    assert faulty.stats.total_time > healthy.stats.total_time


def test_multiple_simultaneous_faults():
    def chaos(c):
        inject_disk_slowdown(c, node=0, disk=0, factor=3.0)
        inject_disk_stall(c, node=1, disk=2, at=0.05, duration=0.5)
        inject_node_slowdown(c, node=2, factor=5.0)

    _cl, result, report = run_with_faults(chaos)
    assert report.ok, report.issues


def test_fault_on_every_disk_of_one_node():
    def kill_node_io(c):
        for d in range(4):
            inject_disk_slowdown(c, node=0, disk=d, factor=6.0)

    _cl, result, report = run_with_faults(kill_node_io)
    assert report.ok
    walls = [pe.walls["merge"] for pe in result.stats.workers]
    assert walls[0] == max(walls)


def test_fault_validation():
    cluster = Cluster(2)
    with pytest.raises(ValueError):
        inject_disk_slowdown(cluster, 0, 0, factor=0.0)
    with pytest.raises(ValueError):
        inject_node_slowdown(cluster, 0, factor=-1.0)
    with pytest.raises(ValueError):
        inject_disk_stall(cluster, 0, 0, at=0.0, duration=-1.0)


def test_fault_in_the_past_rejected():
    cluster = Cluster(1)

    def body():
        yield cluster.sim.timeout(5.0)
        with pytest.raises(ValueError):
            inject_disk_slowdown(cluster, 0, 0, factor=2.0, at=1.0)
        return True

    assert cluster.sim.run_process(body()) is True


def test_fault_exactly_at_now_is_legal_and_takes_effect():
    """``at == sim.now`` is a valid injection time (only the past raises)."""
    cluster = Cluster(1)
    disk = cluster.nodes[0].disks[0]
    healthy = disk.bandwidth

    def body():
        yield cluster.sim.timeout(5.0)
        inject_disk_slowdown(cluster, 0, 0, factor=2.0, at=cluster.sim.now)
        yield cluster.sim.timeout(0.0)
        return disk.bandwidth

    degraded = cluster.sim.run_process(body())
    assert degraded == pytest.approx(healthy / 2.0)


def test_overlapping_slowdown_windows_restore_healthy_bandwidth():
    """Each injector captures the healthy bandwidth at *call* time.

    Two overlapping windows on the same disk therefore never compound
    into a permanently degraded disk: when the later window expires, the
    disk is back at its original bandwidth.  (Mid-overlap, the earlier
    recovery already restores full speed — the documented last-writer
    semantics of independent injectors.)
    """
    cluster = Cluster(1)
    disk = cluster.nodes[0].disks[0]
    healthy = disk.bandwidth
    inject_disk_slowdown(cluster, 0, 0, factor=4.0, at=0.0, duration=2.0)
    inject_disk_slowdown(cluster, 0, 0, factor=8.0, at=1.0, duration=3.0)

    probes = {}

    def body():
        for t in (0.5, 1.5, 2.5, 4.5):
            yield cluster.sim.timeout(t - cluster.sim.now)
            probes[t] = disk.bandwidth
        return True

    assert cluster.sim.run_process(body()) is True
    assert probes[0.5] == pytest.approx(healthy / 4.0)
    assert probes[1.5] == pytest.approx(healthy / 8.0)
    # First window's recovery fires at t=2 and restores the full speed it
    # captured, even though the second window is still open.
    assert probes[2.5] == pytest.approx(healthy)
    assert probes[4.5] == pytest.approx(healthy)


def test_overlapping_windows_keep_sort_correct():
    def overlap(c):
        inject_disk_slowdown(c, node=1, disk=0, factor=4.0, at=0.0, duration=0.4)
        inject_disk_slowdown(c, node=1, disk=0, factor=8.0, at=0.2, duration=0.4)
        inject_disk_slowdown(c, node=1, disk=0, factor=2.0, at=0.3, duration=0.5)

    _cl, _result, report = run_with_faults(overlap)
    assert report.ok, report.issues


@pytest.mark.parametrize("workload", ["random", "skewed", "duplicates", "worstcase"])
@pytest.mark.parametrize(
    "inject",
    [
        pytest.param(
            lambda c: inject_disk_slowdown(c, node=0, disk=1, factor=5.0),
            id="disk-slowdown",
        ),
        pytest.param(
            lambda c: inject_disk_stall(c, node=1, disk=0, at=0.05, duration=0.3),
            id="disk-stall",
        ),
        pytest.param(
            lambda c: inject_node_slowdown(c, node=2, factor=6.0),
            id="node-slowdown",
        ),
    ],
)
def test_every_injector_on_every_workload_keeps_output_valid(workload, inject):
    """Faults bend timing only: the sorted output is never altered."""
    cfg = small_config()
    cluster = Cluster(4)
    em, inputs = generate_input(cluster, cfg, workload)
    before = input_keys(em, inputs)
    inject(cluster)
    result = CanonicalMergeSort(cluster, cfg).sort(em, inputs)
    report = validate_output(before, result.output_keys(em))
    assert report.ok, (workload, report.issues)


def test_deterministic_under_identical_faults():
    def inject(c):
        inject_disk_slowdown(c, node=1, disk=0, factor=4.0, at=0.1, duration=1.0)

    _cl, a, _ = run_with_faults(inject)
    _cl, b, _ = run_with_faults(inject)
    assert a.stats.total_time == b.stats.total_time
