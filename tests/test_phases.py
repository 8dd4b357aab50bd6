"""Phase-level tests: run formation, selection, all-to-all, merging.

These run the SPMD phases individually on small clusters and verify the
paper's invariants for each: globally sorted runs with exact quantile
pieces after phase one, exact splitter matrices after the selection,
conservation and ordering after the redistribution, and a sorted,
conserved output after merging.
"""

import numpy as np
import pytest

from repro import Cluster
from repro.core.all_to_all import all_to_all_phase
from repro.core.internal_sort import distributed_sort_run
from repro.core.merge_phase import merge_phase
from repro.core.run_formation import run_formation
from repro.core.selection_phase import selection_phase
from repro.core.stats import SortStats
from repro.records import exact_multiway_partition
from repro.workloads import generate_input, input_keys

from tests.helpers import small_config


def _run_phases(kind="random", n_nodes=4, upto="merge", **overrides):
    """Run the pipeline up to a phase; returns a context dict."""
    cfg = small_config(**overrides)
    cluster = Cluster(n_nodes)
    em, inputs = generate_input(cluster, cfg, kind)
    before = input_keys(em, inputs)
    stats = SortStats(cfg, n_nodes)
    ctx = {"cluster": cluster, "config": cfg, "em": em, "stats": stats,
           "before": before, "runs": {}, "splits": {}, "segments": {},
           "output": {}}

    def pe(rank, cluster):
        runs = yield from run_formation(rank, cluster, em, cfg, stats, inputs[rank])
        ctx["runs"][rank] = runs
        if upto == "run_formation":
            return None
        splits = yield from selection_phase(rank, cluster, em, cfg, stats, runs)
        ctx["splits"][rank] = splits
        if upto == "selection":
            return None
        segments = yield from all_to_all_phase(
            rank, cluster, em, cfg, stats, runs, splits
        )
        ctx["segments"][rank] = segments
        if upto == "all_to_all":
            return None
        piece = yield from merge_phase(rank, cluster, em, cfg, stats, segments)
        ctx["output"][rank] = piece
        return None

    cluster.run_spmd(pe)
    return ctx


# ------------------------------------------------------ distributed sort


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 4])
def test_distributed_sort_run_exact_quantiles(n_nodes):
    cfg = small_config()
    cluster = Cluster(n_nodes)
    stats = SortStats(cfg, n_nodes)
    rng = np.random.default_rng(0)
    locals_ = [rng.integers(0, 1000, 100).astype(np.uint64) for _ in range(n_nodes)]

    def pe(rank, cluster):
        piece = yield from distributed_sort_run(
            rank, cluster, cfg, stats, locals_[rank], "run_formation"
        )
        return piece

    pieces = cluster.run_spmd(pe)
    merged = np.concatenate(pieces)
    assert np.array_equal(merged, np.sort(np.concatenate(locals_)))
    total = 100 * n_nodes
    for i, piece in enumerate(pieces):
        assert len(piece) == (i + 1) * total // n_nodes - i * total // n_nodes


def test_distributed_sort_empty_contribution():
    cfg = small_config()
    cluster = Cluster(2)
    stats = SortStats(cfg, 2)
    locals_ = [np.arange(10, dtype=np.uint64), np.empty(0, np.uint64)]

    def pe(rank, cluster):
        return (yield from distributed_sort_run(
            rank, cluster, cfg, stats, locals_[rank], "t"))

    pieces = cluster.run_spmd(pe)
    assert len(pieces[0]) == 5 and len(pieces[1]) == 5


# --------------------------------------------------------- run formation


def test_run_formation_produces_sorted_global_runs():
    ctx = _run_phases(upto="run_formation")
    em, before = ctx["em"], ctx["before"]
    runs = ctx["runs"][0]
    cfg = ctx["config"]
    assert len(runs) == cfg.n_runs(ctx["cluster"].spec)
    all_run_keys = []
    for run in runs:
        keys = np.concatenate(
            [
                em.store(piece.node).peek(bid)
                for piece in run.pieces
                for bid in piece.blocks
            ]
        ) if any(p.blocks for p in run.pieces) else np.empty(0, np.uint64)
        # globally sorted across the pieces in rank order
        assert np.array_equal(keys, np.sort(keys))
        all_run_keys.append(keys)
    # conservation: runs partition the input multiset
    everything = np.sort(np.concatenate(all_run_keys))
    assert np.array_equal(everything, np.sort(np.concatenate(before)))


def test_run_formation_pieces_balanced():
    ctx = _run_phases(upto="run_formation")
    for run in ctx["runs"][0]:
        sizes = [p.n_keys for p in run.pieces]
        assert max(sizes) - min(sizes) <= 1


def test_run_formation_samples_every_k():
    # The sample is the pieces' block-first keys: K = B.
    ctx = _run_phases(upto="run_formation")
    cfg = ctx["config"]
    for run in ctx["runs"][0]:
        for piece in run.pieces:
            assert len(piece.first_keys) == -(-piece.n_keys // cfg.block_elems)


def test_run_formation_randomization_changes_runs():
    a = _run_phases(kind="worstcase", upto="run_formation", randomize=True)
    b = _run_phases(kind="worstcase", upto="run_formation", randomize=False)
    run_a = a["runs"][0][0]
    run_b = b["runs"][0][0]
    keys_a = np.concatenate(
        [a["em"].store(p.node).peek(bid) for p in run_a.pieces for bid in p.blocks]
    )
    keys_b = np.concatenate(
        [b["em"].store(p.node).peek(bid) for p in run_b.pieces for bid in p.blocks]
    )
    # Without randomization the first run of a locally sorted input is a
    # narrow key slice; with randomization it spans the whole range.
    assert keys_a.max() - keys_a.min() > 2 * (keys_b.max() - keys_b.min())


def test_run_formation_frees_input_blocks():
    ctx = _run_phases(upto="run_formation")
    cfg, em = ctx["config"], ctx["em"]
    # In-place: blocks in use equal the run data, input slots were reused.
    for rank in range(4):
        assert em.store(rank).blocks_in_use <= cfg.blocks_per_node + 1


# --------------------------------------------------------------- selection


@pytest.mark.parametrize("strategy", ["sampled", "basic", "bisect"])
def test_selection_matrix_matches_offline_partition(strategy):
    ctx = _run_phases(upto="selection", selection=strategy)
    em = ctx["em"]
    runs = ctx["runs"][0]
    splits = ctx["splits"][0]
    n_nodes = 4
    seqs = []
    for run in runs:
        keys = np.concatenate(
            [em.store(p.node).peek(bid) for p in run.pieces for bid in p.blocks]
        )
        seqs.append(keys)
    total = sum(len(s) for s in seqs)
    for i in range(n_nodes):
        want = exact_multiway_partition(seqs, i * total // n_nodes)
        assert splits[i] == want, f"rank {i} splitters differ under {strategy}"
    assert splits[n_nodes] == [len(s) for s in seqs]


def test_selection_all_ranks_agree():
    ctx = _run_phases(upto="selection")
    for rank in range(1, 4):
        assert ctx["splits"][rank] == ctx["splits"][0]


def test_selection_counters_populated():
    ctx = _run_phases(upto="selection")
    stats = ctx["stats"]
    assert stats.counter_total("selection_block_reads") > 0
    # rank 0 selects rank 0 (trivial); others probe
    assert stats.counter_total("selection_touches") > 0


# --------------------------------------------------------------- all-to-all


def _segment_keys(em, segments_r):
    parts = [em.store(b.bid.node).peek(b.bid)[: b.count] for b in segments_r]
    return np.concatenate(parts) if parts else np.empty(0, np.uint64)


@pytest.mark.parametrize("kind,randomize", [
    ("random", True),
    ("worstcase", True),
    ("worstcase", False),
    ("duplicates", True),
])
def test_alltoall_segments_are_the_exact_ranges(kind, randomize):
    ctx = _run_phases(kind=kind, upto="all_to_all", randomize=randomize)
    em = ctx["em"]
    runs = ctx["runs"][0]
    splits = ctx["splits"][0]
    for rank in range(4):
        for r, run in enumerate(runs):
            keys = _segment_keys(em, ctx["segments"][rank][r])
            assert np.array_equal(keys, np.sort(keys)), "segment not sorted"
            want = splits[rank + 1][r] - splits[rank][r]
            assert len(keys) == want


def test_alltoall_conserves_multiset():
    ctx = _run_phases(kind="worstcase", upto="all_to_all", randomize=False)
    em = ctx["em"]
    collected = []
    for rank in range(4):
        for seg in ctx["segments"][rank]:
            collected.append(_segment_keys(em, seg))
    got = np.sort(np.concatenate(collected))
    want = np.sort(np.concatenate(ctx["before"]))
    assert np.array_equal(got, want)


def test_alltoall_random_input_moves_little():
    ctx = _run_phases(kind="random", upto="all_to_all")
    stats = ctx["stats"]
    cfg = ctx["config"]
    moved = stats.counter_total("alltoall_sent_keys")
    assert moved < 0.25 * cfg.total_keys(4)


def test_alltoall_worstcase_nonrandomized_moves_almost_everything():
    ctx = _run_phases(kind="worstcase", upto="all_to_all", randomize=False)
    stats = ctx["stats"]
    cfg = ctx["config"]
    moved = stats.counter_total("alltoall_sent_keys")
    assert moved > 0.6 * cfg.total_keys(4)


# -------------------------------------------------------------------- merge


def test_merge_produces_sorted_balanced_output():
    ctx = _run_phases(upto="merge")
    em = ctx["em"]
    total = sum(len(b) for b in ctx["before"])
    outs = []
    for rank in range(4):
        piece = ctx["output"][rank]
        keys = np.concatenate([em.store(rank).peek(b) for b in piece.blocks])
        assert np.array_equal(keys, np.sort(keys))
        want = (rank + 1) * total // 4 - rank * total // 4
        assert len(keys) == want
        outs.append(keys)
    merged = np.concatenate(outs)
    assert np.array_equal(merged, np.sort(np.concatenate(ctx["before"])))


def test_merge_frees_inputs_in_place():
    ctx = _run_phases(upto="merge")
    em = ctx["em"]
    cfg = ctx["config"]
    for rank in range(4):
        # After the merge only the output blocks remain.
        piece = ctx["output"][rank]
        assert em.store(rank).blocks_in_use == len(piece.blocks)


def test_merge_naive_prefetch_also_correct():
    ctx = _run_phases(upto="merge", optimal_prefetch=False)
    em = ctx["em"]
    merged = np.concatenate(
        [
            np.concatenate(
                [em.store(r).peek(b) for b in ctx["output"][r].blocks]
            )
            for r in range(4)
        ]
    )
    assert np.array_equal(merged, np.sort(np.concatenate(ctx["before"])))


def test_selection_load_balanced_across_serving_disks():
    """§IV-A: randomization balances the remote accesses the selections
    trigger across the nodes that store the runs."""
    ctx = _run_phases(kind="random", n_nodes=4, upto="selection")
    cluster = ctx["cluster"]
    served = [
        sum(d.read_bytes_by_tag.get("selection", 0.0) for d in node.disks)
        for node in cluster.nodes
    ]
    assert all(s > 0 for s in served)
    mean = sum(served) / len(served)
    assert max(served) <= 3.0 * mean


def test_randomized_runs_have_similar_distributions():
    """§IV: with randomization "all runs have a similar input
    distribution" — quantified with a two-sample KS statistic."""
    from scipy import stats as sps

    def run_key_sets(randomize):
        ctx = _run_phases(kind="worstcase", upto="run_formation",
                          randomize=randomize)
        em = ctx["em"]
        out = []
        for run in ctx["runs"][0]:
            keys = np.concatenate(
                [em.store(p.node).peek(b) for p in run.pieces for b in p.blocks]
            )
            out.append(keys.astype(np.float64))
        return out

    def max_pairwise_ks(runs):
        worst = 0.0
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                worst = max(worst, sps.ks_2samp(runs[i], runs[j]).statistic)
        return worst

    ks_rand = max_pairwise_ks(run_key_sets(True))
    ks_plain = max_pairwise_ks(run_key_sets(False))
    assert ks_rand < 0.2          # randomized runs resemble each other
    assert ks_plain > 0.9         # naive chunks are disjoint key slices
