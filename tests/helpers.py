"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

import numpy as np

from repro import Cluster, MiB, SortConfig
from repro.workloads import generate_input, input_keys


def small_config(**overrides) -> SortConfig:
    """A tiny but non-degenerate sort configuration (R = 3 runs)."""
    params = dict(
        data_per_node_bytes=48 * MiB,
        memory_bytes=16 * MiB,
        block_bytes=1 * MiB,
        block_elems=16,
        seed=1234,
    )
    params.update(overrides)
    return SortConfig(**params)


def make_sorted_arrays(rng: np.random.Generator, n_seqs: int, max_len: int,
                       key_high: int = 1000):
    """Random sorted uint64 sequences for selection/merge tests."""
    return [
        np.sort(rng.integers(0, key_high, rng.integers(0, max_len + 1)))
        .astype(np.uint64)
        for _ in range(n_seqs)
    ]


def run_small_sort(kind: str = "random", n_nodes: int = 4, **config_overrides):
    """End-to-end CanonicalMergeSort at test scale; returns rich context."""
    from repro import CanonicalMergeSort

    cfg = small_config(**config_overrides)
    cl = Cluster(n_nodes)
    em, inputs = generate_input(cl, cfg, kind)
    before = input_keys(em, inputs)
    result = CanonicalMergeSort(cl, cfg).sort(em, inputs)
    return cl, cfg, em, before, result


def assert_suite_digest_keys(stats: dict) -> None:
    """``stats`` (a native ``SortStats.to_dict()``) carries every key
    ``benchmarks/suite/workloads.py::_digest`` reads, for one-shot runs
    and service job results alike."""
    from repro.core.config import PHASES

    for phase in PHASES:
        assert {"wall_max", "wall_avg", "bytes", "stall_s", "wire_sent"} <= set(
            stats["phases"][phase]
        ), phase
    assert stats["network_bytes"] > 0
    assert stats["n_runs"] >= 1
    for worker in stats["per_worker"]:
        assert {"max_rss_bytes", "walls"} <= set(worker)
        assert worker["max_rss_bytes"] > 0
