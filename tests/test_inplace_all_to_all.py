"""The in-place external all-to-all, end to end: two passes, 4N + o(N).

Real worker processes over real files, both record models.  After exact
selection almost everything a rank has to merge already sits in its own
piece files, so the all-to-all may move — read, ship, write — only what
changes rank and must leave the rest untouched for the merge to read in
place.  On random input that makes the whole sort two passes over the
data; on the paper's Figure 6 input (locally sorted, no randomization)
half of the data genuinely moves and the sort costs about 5N.

Every volume below comes from the block store's per-tag byte and op
counters, checked against counters of layers that know nothing of the
block store: the interconnect's payload bytes and the layout arithmetic
(``a2a_kept_bytes``).
"""

import os

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.native import NativeJob, NativeSorter
from repro.native.records import (
    RECORD_BYTES,
    VarlenBatch,
    make_records,
    resolve_string_family,
    write_varlen_file,
)
from repro.testing import corpus

KiB = 1024
SORT_PHASES = ("run_formation", "selection", "all_to_all", "merge")


def sort_corpus(tmp_path, entry, records, n_workers, randomize):
    """Sort pre-written corpus input; returns ``(result, oracle, N)`` —
    the oracle is each rank's expected output *file content*, N the
    input volume in the record model's own bytes."""
    n = 65536  # records per rank: 1 MiB of fixed16, R = 13 runs
    parts = [
        corpus.generate(entry, n, rank, n_workers, seed=5)
        for rank in range(n_workers)
    ]
    keys = np.concatenate(parts)
    assert len(np.unique(keys)) == len(keys)  # so the oracle is bytewise
    order = np.argsort(keys, kind="stable")
    bounds = [i * len(keys) // n_workers for i in range(n_workers + 1)]
    spill = tmp_path / "spill"
    spill.mkdir()

    if records == "fixed16":
        everything = make_records(keys, np.arange(len(keys), dtype=np.uint64))
        n_bytes = everything.nbytes
        for rank in range(n_workers):
            everything[rank * n : (rank + 1) * n].tofile(
                str(spill / f"input_{rank}.dat")
            )
        oracle = [
            everything[order[bounds[i] : bounds[i + 1]]].tobytes()
            for i in range(n_workers)
        ]
    else:
        to_key = resolve_string_family("hex")
        names = [to_key(int(k)) for k in keys]
        everything = VarlenBatch.build(names, range(len(keys)))
        n_bytes = everything.nbytes
        for rank in range(n_workers):
            write_varlen_file(
                str(spill / f"input_{rank}.dat"),
                everything.slice(rank * n, (rank + 1) * n),
            )
        ordered = VarlenBatch.build(
            [names[i] for i in order], [int(i) for i in order]
        )
        oracle = [
            bytes(ordered.slice(bounds[i], bounds[i + 1]).bytes_view())
            for i in range(n_workers)
        ]

    job = NativeJob(
        config=SortConfig(
            data_per_node_bytes=n * RECORD_BYTES,
            memory_bytes=256 * KiB,
            block_bytes=2 * KiB,
            randomize=randomize,
            seed=5,
        ),
        n_workers=n_workers,
        spill_dir=str(spill),
        generate=False,
        records=records,
        timeout=120.0,
    )
    return NativeSorter(job).run(), oracle, n_bytes


def shipped_bytes(stats, records):
    """Record bytes the all-to-all's senders handed to the interconnect
    (the string wire is LCP-coded, so there it is the raw-byte counter)."""
    if records == "fixed16":
        return stats.wire_sent("all_to_all")
    return int(stats.counter_total("a2a_raw_bytes"))


def check_two_pass_volumes(result, oracle, n_bytes, records):
    """Everything both inputs must satisfy; returns ``(moved, ratio)``."""
    stats = result.stats
    assert result.validate().ok
    for meta, want in zip(result.outputs, oracle):
        with open(meta.path, "rb") as handle:
            assert handle.read() == want, f"rank {meta.rank} output"

    def total(table, tag):
        return sum(getattr(w, table).get(tag, 0) for w in stats.workers)

    moved = shipped_bytes(stats, records)
    # The all-to-all reads and writes what changes rank, nothing else ...
    assert total("bytes_read", "all_to_all") == moved
    assert total("bytes_written", "all_to_all") == moved
    assert stats.phase_bytes("all_to_all") == 2 * moved
    # ... delivers nothing to itself, and what it kept is the rest of N.
    assert stats.local_bytes("all_to_all") == 0
    assert moved + stats.counter_total("a2a_kept_bytes") == n_bytes
    # One read per chunk sent, one write per chunk received: no op was
    # left over to touch a kept range, whatever its size.
    assert 0 < total("read_ops", "all_to_all") == total("write_ops", "all_to_all")
    # The two passes are exact, and no tag hides further data traffic.
    for phase in ("run_formation", "merge"):
        assert total("bytes_read", phase) == n_bytes, phase
        assert total("bytes_written", phase) == n_bytes, phase
    data_tags = {
        tag for w in stats.workers for tag in (*w.bytes_read, *w.bytes_written)
        if not tag.endswith(":index")
    }
    assert data_tags == set(SORT_PHASES)
    if records == "fixed16":
        # The merge's guide cost at most one single-record probe per run
        # and rank (a kept range that starts inside a block).
        for w in stats.workers:
            probes = w.read_ops.get("merge:index", 0)
            assert probes <= stats.n_runs
            assert w.bytes_read.get("merge:index", 0) == probes * RECORD_BYTES
    # Nothing but inputs and outputs is left in the spill directory.
    assert sorted(os.listdir(result.job.spill_dir)) == sorted(
        name
        for rank in range(stats.n_workers)
        for name in (
            (f"input_{rank}.dat", f"output_{rank}.dat")
            if records == "fixed16" else
            (f"input_{rank}.dat", f"input_{rank}.dat.idx",
             f"output_{rank}.dat", f"output_{rank}.dat.idx")
        )
    )
    ratio = sum(stats.phase_bytes(p) for p in SORT_PHASES) / n_bytes
    return moved, ratio


@pytest.mark.parametrize("records", ["fixed16", "string"])
def test_random_input_is_sorted_in_two_passes(tmp_path, records):
    """Random input: what changes rank is a sliver, total I/O <= 4.1 N."""
    result, oracle, n_bytes = sort_corpus(
        tmp_path, "uniform", records, n_workers=3, randomize=True
    )
    moved, ratio = check_two_pass_volumes(result, oracle, n_bytes, records)
    assert 0 < moved < n_bytes // 20
    assert 4.0 < ratio <= 4.1, ratio


@pytest.mark.parametrize("records", ["fixed16", "string"])
def test_fig6_input_moves_half_the_data_and_costs_5n(tmp_path, records):
    """Locally sorted input, no randomization (paper Fig. 6): every run
    holds one quantile range of both PEs, so half of every run changes
    rank — the all-to-all's 2 x N/2 on top of the two passes."""
    result, oracle, n_bytes = sort_corpus(
        tmp_path, "fig6_local_sorted", records, n_workers=2, randomize=False
    )
    moved, ratio = check_two_pass_volumes(result, oracle, n_bytes, records)
    assert 0.45 * n_bytes < moved < 0.55 * n_bytes
    assert 4.9 < ratio < 5.15, ratio
