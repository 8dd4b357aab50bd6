"""Edge cases across the stack: degenerate sizes, extreme parameters.

The small-but-nasty configurations a downstream user will eventually
feed the library: one block of data, one key per block pair, memory
exactly equal to the data, caches of size zero, sub-operation counts
forced high, merge phases with empty segments.
"""

import numpy as np
import pytest

from repro import (
    CanonicalMergeSort,
    Cluster,
    MiB,
    SortConfig,
    generate_input,
    input_keys,
    validate_output,
)
from repro.core.merge_phase import merge_phase
from repro.core.stats import SortStats
from tests.helpers import small_config


def sort_ok(cfg, kind="random", n_nodes=2):
    cluster = Cluster(n_nodes)
    em, inputs = generate_input(cluster, cfg, kind)
    before = input_keys(em, inputs)
    result = CanonicalMergeSort(cluster, cfg).sort(em, inputs)
    report = validate_output(before, result.output_keys(em))
    assert report.ok, report.issues
    return result


def test_single_block_per_node():
    cfg = SortConfig(
        data_per_node_bytes=1 * MiB,
        memory_bytes=16 * MiB,
        block_bytes=1 * MiB,
        block_elems=8,
    )
    result = sort_ok(cfg)
    assert result.n_runs == 1


def test_memory_exactly_equals_data():
    cfg = SortConfig(
        data_per_node_bytes=16 * MiB,
        memory_bytes=16 * MiB,
        block_bytes=1 * MiB,
        block_elems=8,
    )
    result = sort_ok(cfg)
    assert result.n_runs == 1  # in-memory fast path


def test_memory_one_block_more_than_half():
    # Forces exactly R = 2 with minimal slack.
    cfg = SortConfig(
        data_per_node_bytes=16 * MiB,
        memory_bytes=9 * MiB,
        block_bytes=1 * MiB,
        block_elems=8,
    )
    result = sort_ok(cfg)
    assert result.n_runs == 2


def test_two_keys_per_block():
    cfg = small_config(block_elems=2, data_per_node_bytes=16 * MiB,
                       memory_bytes=8 * MiB)
    sort_ok(cfg)


def test_zero_capacity_selection_cache_still_correct():
    cfg = small_config(selection_cache_blocks=0)
    result = sort_ok(cfg, n_nodes=3)
    # Every probe now costs a block read.
    reads = result.stats.counter_total("selection_block_reads")
    assert reads > 0


def test_tiny_alltoall_memory_forces_many_subops():
    cfg = small_config(alltoall_mem_fraction=0.05, randomize=False)
    result = sort_ok(cfg, kind="worstcase", n_nodes=4)
    assert result.stats.workers[0].counters["alltoall_subops"] >= 4


def test_single_prefetch_buffer():
    cfg = small_config(prefetch_buffers=1, write_buffers=1)
    sort_ok(cfg, n_nodes=2)


def test_many_nodes_little_data_each():
    cfg = SortConfig(
        data_per_node_bytes=6 * MiB,
        memory_bytes=3 * MiB,
        block_bytes=1 * MiB,
        block_elems=8,
    )
    sort_ok(cfg, n_nodes=7)


def test_merge_phase_with_all_empty_segments():
    cfg = small_config()
    cluster = Cluster(1)
    from repro import ExternalMemory

    em = ExternalMemory(cluster, cfg.block_bytes, cfg.block_elems)
    stats = SortStats(cfg, 1)

    def pe(rank, cluster):
        piece = yield from merge_phase(rank, cluster, em, cfg, stats, [[], [], []])
        return piece

    pieces = cluster.run_spmd(pe)
    assert pieces[0].n_keys == 0


def test_huge_sample_every_degrades_gracefully():
    # The sample is one key per block (K = B): four 1024-key blocks per
    # piece leave every piece a four-key sample, and the warm start
    # still ends at the exact splits.
    cfg = small_config(block_bytes=4 * MiB, block_elems=1024)
    result = sort_ok(cfg, n_nodes=3)
    assert result.n_runs == 3


def test_extreme_duplicate_input_across_everything():
    cfg = small_config()
    sort_ok(cfg, kind="allequal", n_nodes=4)


@pytest.mark.parametrize("block_elems", [2, 3, 16, 64])
def test_odd_block_elem_counts(block_elems):
    cfg = small_config(block_elems=block_elems, data_per_node_bytes=12 * MiB,
                       memory_bytes=4 * MiB)
    sort_ok(cfg, n_nodes=2)
