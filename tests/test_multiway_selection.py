"""Tests for exact multiway selection (§IV-A, Appendix B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import (
    multiway_select,
    multiway_select_bisect,
    sample_initial_positions,
    sample_windows,
    select_coroutine,
    select_in_windows,
)
from repro.records import KEY_DTYPE, exact_multiway_partition

seq_lists = st.lists(
    st.lists(st.integers(0, 40), max_size=25), min_size=1, max_size=6
)


def sorted_seqs(lists):
    return [np.sort(np.array(x, dtype=KEY_DTYPE)) for x in lists]


def check(seqs, rank, positions):
    assert sum(positions) == rank
    left = [(int(s[i]), j, i) for j, s in enumerate(seqs) for i in range(positions[j])]
    right = [
        (int(s[i]), j, i)
        for j, s in enumerate(seqs)
        for i in range(positions[j], len(s))
    ]
    if left and right:
        assert max(left) < min(right)


# ------------------------------------------------ step-halving (paper §IV-A)


@settings(max_examples=250, deadline=None)
@given(seq_lists, st.data())
def test_step_halving_matches_vectorized_partition(lists, data):
    seqs = sorted_seqs(lists)
    total = sum(len(s) for s in seqs)
    rank = data.draw(st.integers(0, total))
    res = multiway_select(seqs, rank)
    check(seqs, rank, res.positions)
    assert res.positions == exact_multiway_partition(seqs, rank)


def test_trivial_ranks_need_no_probes():
    seqs = sorted_seqs([[1, 2, 3], [4, 5]])
    assert multiway_select(seqs, 0).touches == 0
    assert multiway_select(seqs, 5).touches == 0
    assert multiway_select(seqs, 0).positions == [0, 0]
    assert multiway_select(seqs, 5).positions == [3, 2]


def test_boundary_element_is_left_maximum():
    seqs = sorted_seqs([[10, 20, 30], [15, 25]])
    res = multiway_select(seqs, 3)
    key, j, pos = res.boundary
    lefts = [
        (int(s[i]), jj, i)
        for jj, s in enumerate(seqs)
        for i in range(res.positions[jj])
    ]
    assert (key, j, pos) == max(lefts)


def test_duplicate_heavy_selection():
    seqs = sorted_seqs([[7] * 10, [7] * 10, [7] * 10])
    for rank in [0, 1, 15, 29, 30]:
        res = multiway_select(seqs, rank)
        check(seqs, rank, res.positions)


def test_invalid_rank_rejected():
    seqs = sorted_seqs([[1, 2]])
    with pytest.raises(ValueError):
        multiway_select(seqs, 3)
    with pytest.raises(ValueError):
        multiway_select(seqs, -1)


def test_empty_sequences_tolerated():
    seqs = sorted_seqs([[], [1, 2], []])
    res = multiway_select(seqs, 1)
    assert res.positions == [0, 1, 0]


def test_no_sequences_rejected():
    with pytest.raises(ValueError):
        multiway_select([], 0)


def test_coroutine_probe_protocol():
    """The coroutine yields (seq, pos) probes and accepts raw keys."""
    seqs = sorted_seqs([[5, 10], [1, 20]])
    gen = select_coroutine([2, 2], 2)
    probes = []
    try:
        req = next(gen)
        while True:
            probes.append(req)
            j, pos = req
            req = gen.send(int(seqs[j][pos]))
    except StopIteration as stop:
        result = stop.value
    assert result.positions == exact_multiway_partition(seqs, 2)
    assert len(set(probes)) == result.touches


def test_memoization_never_reprobes():
    seqs = sorted_seqs([list(range(30)), list(range(30))])
    gen = select_coroutine([30, 30], 31)
    seen = set()
    try:
        req = next(gen)
        while True:
            assert req not in seen, f"probe {req} repeated"
            seen.add(req)
            j, pos = req
            req = gen.send(int(seqs[j][pos]))
    except StopIteration:
        pass


# ------------------------------------------------------- warm start (App. B)


@settings(max_examples=150, deadline=None)
@given(seq_lists, st.integers(1, 6), st.data())
def test_sampled_warm_start_stays_exact(lists, k, data):
    seqs = sorted_seqs(lists)
    total = sum(len(s) for s in seqs)
    rank = data.draw(st.integers(0, total))
    samples = [s[::k] for s in seqs]
    pos0, step0 = sample_initial_positions(samples, k, rank, [len(s) for s in seqs])
    res = multiway_select(seqs, rank, init_positions=pos0, init_step=step0)
    check(seqs, rank, res.positions)
    assert res.positions == exact_multiway_partition(seqs, rank)


def test_warm_start_slashes_probe_count():
    rng = np.random.default_rng(3)
    seqs = [np.sort(rng.integers(0, 2 ** 40, 4000)).astype(KEY_DTYPE) for _ in range(8)]
    rank = 13000
    cold = multiway_select(seqs, rank)
    samples = [s[::64] for s in seqs]
    pos0, step0 = sample_initial_positions(samples, 64, rank, [len(s) for s in seqs])
    warm = multiway_select(seqs, rank, init_positions=pos0, init_step=step0)
    assert warm.positions == cold.positions
    assert warm.touches * 5 < cold.touches


def test_warm_start_zero_rank():
    pos, step = sample_initial_positions([np.array([1, 2])], 2, 0, [4])
    assert pos == [0]
    assert step == 2


def test_warm_start_invalid_sample_every():
    with pytest.raises(ValueError):
        sample_initial_positions([np.array([1])], 0, 1, [2])


# ------------------------------------------- sample windows (run formation)


def _window_case_keys(shape, lengths, data):
    """Sorted u64 key sequences of the given shape and lengths."""
    n_seqs = len(lengths)
    if shape == "equal":
        return [np.full(n, 7, dtype=KEY_DTYPE) for n in lengths]
    if shape == "staircase":
        # Fig. 6: every sequence rises in duplicate plateaus, the
        # sequences interleaved step by step.
        plateau = data.draw(st.integers(1, 9), label="plateau")
        return [
            (np.arange(n, dtype=KEY_DTYPE) // KEY_DTYPE(plateau))
            * KEY_DTYPE(n_seqs) + KEY_DTYPE(j)
            for j, n in enumerate(lengths)
        ]
    high = data.draw(st.sampled_from([3, 1000, 2**64 - 1]), label="high")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return [np.sort(rng.integers(0, high, n, dtype=KEY_DTYPE)) for n in lengths]


def _as_strings(seqs):
    """The keys as NUL-padded ``S{w}`` columns of varying widths (hex
    digits, so NUL-free), re-sorted, with their order-preserving ints."""
    strs = [
        np.sort(np.array([format(int(k), "x").encode() for k in s],
                         dtype=f"S{17 if len(s) else 1}"))
        for s in seqs
    ]
    ints = [[int.from_bytes(bytes(k).ljust(17, b"\0"), "big") for k in s]
            for s in strs]
    return strs, ints


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from([1, 2, 7, 64]),
    st.sampled_from(["random", "equal", "staircase"]),
    st.sampled_from(["u64", "S"]),
    st.data(),
)
def test_sample_windows_hold_the_exact_split(n_seqs, every, shape, kind, data):
    """For every rank t in 0..n the windows hold the exact split, span at
    most 2·P·K keys together (so each one does too), and the selection
    inside them is ``multiway_select`` over the full arrays (the u64
    embedding for ``S{w}`` keys)."""
    lengths = data.draw(
        st.lists(st.integers(0, 90), min_size=n_seqs, max_size=n_seqs),
        label="lengths",
    )
    seqs = _window_case_keys(shape, lengths, data)
    ints = seqs
    if kind == "S":
        seqs, ints = _as_strings(seqs)
    total = sum(lengths)
    ranks = list(range(total + 1))
    lo, hi = sample_windows([s[::every] for s in seqs], every, ranks, lengths)
    assert lo.shape == hi.shape == (total + 1, n_seqs)
    assert np.all((hi - lo).sum(axis=1) <= 2 * n_seqs * every)
    for t in ranks:
        exact = multiway_select(ints, t).positions
        assert np.all(lo[t] <= exact) and np.all(np.array(exact) <= hi[t])
        windows = [s[a:b] for s, a, b in zip(seqs, lo[t], hi[t])]
        assert select_in_windows(windows, lo[t], t) == exact


def test_select_in_windows_rejects_windows_without_the_split():
    seqs = sorted_seqs([list(range(10)), list(range(10))])
    with pytest.raises(ValueError):
        select_in_windows([s[6:8] for s in seqs], [6, 6], 5)


# --------------------------------------------------------- bisection variant


@settings(max_examples=250, deadline=None)
@given(seq_lists, st.data())
def test_bisect_matches_vectorized_partition(lists, data):
    seqs = sorted_seqs(lists)
    total = sum(len(s) for s in seqs)
    rank = data.draw(st.integers(0, total))
    res = multiway_select_bisect(seqs, rank)
    assert res.positions == exact_multiway_partition(seqs, rank)


def test_bisect_probe_count_bounded():
    """O(R log^2 M)-ish even on adversarial long sequences."""
    rng = np.random.default_rng(4)
    seqs = [np.sort(rng.integers(0, 2 ** 50, 8192)).astype(KEY_DTYPE) for _ in range(8)]
    res = multiway_select_bisect(seqs, 30000)
    assert res.positions == exact_multiway_partition(seqs, 30000)
    assert res.touches < 8 * 13 * 13  # R * log^2(M) with slack


def test_bisect_honours_brackets():
    seqs = sorted_seqs([list(range(100)), list(range(100))])
    exact = exact_multiway_partition(seqs, 100)
    res = multiway_select_bisect(seqs, 100, lo=[40, 40], hi=[60, 60])
    assert res.positions == exact


def test_bisect_invalid_bracket_rejected():
    seqs = sorted_seqs([list(range(10))])
    with pytest.raises(ValueError):
        multiway_select_bisect(seqs, 5, lo=[8], hi=[2])


def test_bisect_duplicates_exact():
    seqs = sorted_seqs([[3] * 20, [3] * 20])
    for rank in [0, 1, 19, 20, 39, 40]:
        res = multiway_select_bisect(seqs, rank)
        assert res.positions == exact_multiway_partition(seqs, rank)


def test_fixup_swaps_reported():
    rng = np.random.default_rng(5)
    seqs = [np.sort(rng.integers(0, 1000, 50)).astype(KEY_DTYPE) for _ in range(4)]
    res = multiway_select(seqs, 100)
    assert res.fixup_swaps >= 0  # field exists and is non-negative


# ------------------------- splitter exactness on the conformance corpus


def corpus_runs(entry: str, n_runs: int, n_per_run: int, seed: int):
    """Sorted runs built from a conformance-corpus key distribution —
    the run shapes the selection phase actually faces."""
    from repro.testing import corpus

    return [
        np.sort(corpus.generate(entry, n_per_run, r, n_runs, seed))
        for r in range(n_runs)
    ]


WORST_CASES = ["dup_all", "staircase", "presorted", "zipf", "gensort_dup"]


@pytest.mark.parametrize("entry", WORST_CASES)
@pytest.mark.parametrize("n_workers", [1, 2, 3, 7])
def test_splitter_ranks_exactly_iN_over_P(entry, n_workers):
    """The paper's §IV-A invariant, not weakened to ±1: on every corpus
    worst case the selected splitters hit global rank i·N/P *exactly*,
    for every i and every run count."""
    from repro.testing import oracle

    runs = corpus_runs(entry, n_runs=4, n_per_run=97, seed=13)
    total = sum(len(s) for s in runs)
    splits = []
    for i in range(n_workers + 1):
        target = total if i == n_workers else i * total // n_workers
        res = multiway_select(runs, target)
        assert sum(res.positions) == target  # exact, not ±1
        assert oracle.partition_issues(runs, res.positions, target) == []
        splits.append(res.positions)
    assert oracle.splitter_rank_issues(splits, [len(s) for s in runs], n_workers) == []


@pytest.mark.parametrize("entry", WORST_CASES)
@pytest.mark.parametrize("n_workers", [2, 3, 7])
def test_bisect_splitters_match_step_halving_on_corpus(entry, n_workers):
    runs = corpus_runs(entry, n_runs=3, n_per_run=64, seed=8)
    total = sum(len(s) for s in runs)
    for i in range(1, n_workers):
        target = i * total // n_workers
        assert (
            multiway_select_bisect(runs, target).positions
            == multiway_select(runs, target).positions
            == exact_multiway_partition(runs, target)
        )


@pytest.mark.parametrize("entry", ["dup_all", "staircase"])
def test_sampled_warm_start_exact_on_duplicate_plateaus(entry):
    """The warm start (Appendix B) must not cost exactness on inputs
    where whole sample windows carry one repeated key."""
    runs = corpus_runs(entry, n_runs=4, n_per_run=128, seed=3)
    total = sum(len(s) for s in runs)
    for n_workers in (2, 3, 7):
        for i in range(1, n_workers):
            target = i * total // n_workers
            samples = [s[::16] for s in runs]
            pos0, step0 = sample_initial_positions(
                samples, 16, target, [len(s) for s in runs]
            )
            res = multiway_select(runs, target, init_positions=pos0, init_step=step0)
            assert sum(res.positions) == target
            assert res.positions == exact_multiway_partition(runs, target)
