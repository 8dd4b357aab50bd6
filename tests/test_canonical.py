"""End-to-end integration tests for CanonicalMergeSort.

These are the headline guarantees of the paper's Section IV: a correct,
exactly balanced, canonical output (PE i holds ranks (i−1)N/P+1 .. iN/P),
about two passes of I/O, communication close to one traversal of the
data, and graceful degradation (never worse than ~three passes) on
adversarial inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CanonicalMergeSort,
    Cluster,
    ConfigError,
    MiB,
    generate_input,
    input_keys,
    validate_output,
)
from tests.helpers import run_small_sort, small_config


@pytest.mark.parametrize("kind", [
    "random", "worstcase", "sorted", "reversed", "skewed", "duplicates", "allequal",
])
@pytest.mark.parametrize("n_nodes", [1, 4])
def test_sorts_correctly_across_workloads(kind, n_nodes):
    _cl, _cfg, em, before, result = run_small_sort(kind, n_nodes=n_nodes)
    report = validate_output(before, result.output_keys(em))
    assert report.ok, report.issues


@pytest.mark.parametrize("n_nodes", [2, 3, 5])
def test_sorts_correctly_odd_node_counts(n_nodes):
    _cl, _cfg, em, before, result = run_small_sort("random", n_nodes=n_nodes)
    assert validate_output(before, result.output_keys(em)).ok


def test_output_is_exactly_balanced():
    _cl, cfg, em, before, result = run_small_sort("skewed", n_nodes=4)
    total = sum(len(p) for p in before)
    outs = result.output_keys(em)
    for rank, part in enumerate(outs):
        want = (rank + 1) * total // 4 - rank * total // 4
        assert len(part) == want


def test_two_pass_io_for_random_input():
    cl, cfg, _em, _before, result = run_small_sort("random", n_nodes=4)
    n_bytes = cfg.total_bytes(4)
    # Two passes = read+write twice = 4N, plus small redistribution slack.
    assert result.stats.total_io_bytes <= 4.6 * n_bytes
    assert result.stats.total_io_bytes >= 3.9 * n_bytes


def test_worstcase_never_exceeds_three_passes():
    cl, cfg, _em, _before, result = run_small_sort(
        "worstcase", n_nodes=4, randomize=False
    )
    n_bytes = cfg.total_bytes(4)
    # "our algorithm degrades to a three-pass algorithm" = 6N + overheads.
    assert result.stats.total_io_bytes <= 7.0 * n_bytes


def test_communication_close_to_one_traversal():
    cl, cfg, _em, _before, result = run_small_sort("random", n_nodes=4)
    n_bytes = cfg.total_bytes(4)
    # Best case: the internal-sort exchange is the only data movement;
    # expected (P-1)/P of N plus samples and small redistribution.
    assert result.stats.network_bytes <= 1.4 * n_bytes


def test_randomization_reduces_worstcase_alltoall():
    _cl, cfg, _em, _b, with_rand = run_small_sort(
        "worstcase", n_nodes=4, randomize=True
    )
    _cl, _cfg, _em, _b, without = run_small_sort(
        "worstcase", n_nodes=4, randomize=False
    )
    vol_with = with_rand.stats.phase_bytes("all_to_all")
    vol_without = without.stats.phase_bytes("all_to_all")
    assert vol_without > 2.0 * vol_with


def test_deterministic_given_seed():
    _cl, _cfg, em1, _b1, r1 = run_small_sort("random", n_nodes=3, seed=42)
    _cl, _cfg, em2, _b2, r2 = run_small_sort("random", n_nodes=3, seed=42)
    for a, b in zip(r1.output_keys(em1), r2.output_keys(em2)):
        assert np.array_equal(a, b)
    assert r1.stats.total_time == r2.stats.total_time


def test_runs_match_configured_r():
    cl, cfg, _em, _b, result = run_small_sort("random", n_nodes=4)
    assert result.n_runs == cfg.n_runs(cl.spec)


def test_stats_have_all_phases():
    _cl, _cfg, _em, _b, result = run_small_sort("random", n_nodes=2)
    for phase in ("run_formation", "selection", "all_to_all", "merge"):
        assert result.stats.wall_max(phase) >= 0.0
    assert result.stats.total_time > 0.0


def test_in_place_peak_space_bounded():
    """§IV-E: temporary overhead stays a small multiple of the input."""
    _cl, cfg, em, _b, result = run_small_sort("worstcase", n_nodes=4,
                                              randomize=False)
    for rank in range(4):
        assert result.stats.workers[rank].peak_blocks <= 2.1 * cfg.blocks_per_node + 8


def test_single_run_fast_path_two_ios_per_block():
    cl, cfg, em, before, result = run_small_sort(
        "random", n_nodes=4, data_per_node_bytes=8 * MiB
    )
    assert result.n_runs == 1
    assert validate_output(before, result.output_keys(em)).ok
    n_bytes = cfg.total_bytes(4)
    assert result.stats.total_io_bytes == pytest.approx(2 * n_bytes, rel=0.05)
    assert result.stats.phases == ["run_formation", "merge"]


def test_single_node_cluster_needs_no_network():
    cl, _cfg, em, before, result = run_small_sort("random", n_nodes=1)
    assert validate_output(before, result.output_keys(em)).ok
    assert cl.total_network_bytes == 0.0


def test_infeasible_config_rejected_up_front():
    cfg = small_config(data_per_node_bytes=2000 * MiB, memory_bytes=2 * MiB)
    with pytest.raises(ConfigError):
        CanonicalMergeSort(Cluster(2), cfg)


def test_input_length_mismatch_rejected():
    cfg = small_config()
    cluster = Cluster(2)
    em, inputs = generate_input(cluster, cfg, "random")
    sorter = CanonicalMergeSort(cluster, cfg)
    with pytest.raises(ValueError):
        sorter.sort(em, inputs[:1])


def test_overlap_only_changes_time_not_output():
    _cl, _cfg, em1, _b, r1 = run_small_sort("random", n_nodes=3, overlap=True)
    _cl, _cfg, em2, _b, r2 = run_small_sort("random", n_nodes=3, overlap=False)
    for a, b in zip(r1.output_keys(em1), r2.output_keys(em2)):
        assert np.array_equal(a, b)
    assert r2.stats.total_time >= r1.stats.total_time


@pytest.mark.parametrize("strategy", ["sampled", "basic", "bisect"])
def test_selection_strategy_does_not_change_output(strategy):
    _cl, _cfg, em, before, result = run_small_sort(
        "duplicates", n_nodes=4, selection=strategy
    )
    assert validate_output(before, result.output_keys(em)).ok


@settings(max_examples=12, deadline=None)
@given(
    n_nodes=st.integers(1, 4),
    kind=st.sampled_from(["random", "worstcase", "skewed", "duplicates"]),
    randomize=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_property_sort_is_always_valid(n_nodes, kind, randomize, seed):
    """Randomized end-to-end property: every configuration sorts."""
    cfg = small_config(
        data_per_node_bytes=12 * MiB,
        memory_bytes=4 * MiB,
        block_elems=8,
        randomize=randomize,
        seed=seed,
    )
    cluster = Cluster(n_nodes)
    em, inputs = generate_input(cluster, cfg, kind)
    before = input_keys(em, inputs)
    result = CanonicalMergeSort(cluster, cfg).sort(em, inputs)
    report = validate_output(before, result.output_keys(em))
    assert report.ok, report.issues
