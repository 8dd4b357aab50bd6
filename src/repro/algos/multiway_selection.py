"""Exact multiway selection (paper Section IV-A and Appendix B).

Given R sorted sequences, *multiway selection* finds the element of global
rank ``r`` together with splitter positions ``p_j`` that partition every
sequence with respect to that element: ``sum(p_j) == r`` and every element
left of a splitter precedes every element right of one.  Ties are broken
by (key, sequence, position), making the partition unique.

The algorithm is the paper's step-size-halving search: splitter positions
start at 0 (or at sample-derived positions, Appendix B) with step ``s``;
while fewer than ``r`` elements lie left of the splitters, the splitter
whose *next* element is smallest advances by ``s``; then ``s`` is halved
and splitters whose *previous* element is largest retreat by ``s`` while
more than ``r`` elements lie left.  After the ``s = 1`` round the count is
exact; a final swap loop restores the partition property (it runs zero
times on the paths the geometric search already fixed, and guarantees
exactness unconditionally).  The number of sequence elements touched is
O(R log M) from a cold start and O(R log B) from a sample start.

The core is written as an *effect coroutine*: it yields ``(sequence,
position)`` probe requests and is sent back raw keys.  The in-memory
driver (:func:`multiway_select`) answers from arrays; the external driver
in :mod:`repro.core.selection_phase` answers by performing (cached,
possibly remote) block I/O on the simulated cluster.  One implementation,
two execution environments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SelectionResult",
    "select_coroutine",
    "multiway_select",
    "sample_initial_positions",
    "sample_windows",
    "select_in_windows",
]


@dataclass
class SelectionResult:
    """Outcome of a multiway selection."""

    #: Splitter position per sequence; ``sum(positions) == rank``.
    positions: List[int]
    #: Number of distinct sequence elements probed.
    touches: int
    #: The largest element left of the splitters as a ``(key, seq, pos)``
    #: triple, or None when ``rank == 0``.
    boundary: Optional[Tuple[int, int, int]]
    #: Corrective swaps the final fixup loop performed (0 whenever the
    #: geometric search already landed on the exact partition).
    fixup_swaps: int = 0


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def select_coroutine(
    lengths: Sequence[int],
    rank: int,
    init_positions: Optional[Sequence[int]] = None,
    init_step: Optional[int] = None,
) -> Generator[Tuple[int, int], int, SelectionResult]:
    """The selection algorithm as a probe coroutine.

    Yields ``(sequence, position)`` probe requests; must be sent the raw
    integer key at that position.  Returns a :class:`SelectionResult`.
    """
    lengths = [int(n) for n in lengths]
    n_seqs = len(lengths)
    if n_seqs == 0:
        raise ValueError("need at least one sequence")
    for n in lengths:
        if n < 0:
            raise ValueError(f"negative sequence length {n}")
    total = sum(lengths)
    if not 0 <= rank <= total:
        raise ValueError(f"rank {rank} outside 0..{total}")

    # Trivial ranks need no probes at all.
    if rank == 0:
        return SelectionResult([0] * n_seqs, 0, None)
    if rank == total:
        # boundary = global maximum; not needed by callers for this case.
        return SelectionResult(list(lengths), 0, None)

    if init_positions is None:
        positions = [0] * n_seqs
    else:
        positions = [min(max(0, int(p)), lengths[j]) for j, p in enumerate(init_positions)]
    step = init_step if init_step is not None else _next_pow2(max(lengths))
    if step < 1:
        raise ValueError(f"init_step must be >= 1, got {init_step}")

    memo = {}

    def probe(j: int, pos: int):
        """Key triple at (j, pos); yields an I/O request on memo miss."""
        cached = memo.get((j, pos))
        if cached is None:
            raw = yield (j, pos)
            cached = (int(raw), j, pos)
            memo[(j, pos)] = cached
        return cached

    # Lazy heaps over the elements adjacent to the splitters.
    right_heap: List[Tuple[Tuple[int, int, int], int, int]] = []  # (key, j, pos)
    left_heap: List[Tuple[Tuple[int, int, int], int, int]] = []  # (negated key, j, pos)

    def arm(j: int):
        """(Re)register sequence j's boundary-adjacent elements."""
        pos = positions[j]
        if pos < lengths[j]:
            key = yield from probe(j, pos)
            heapq.heappush(right_heap, (key, j, pos))
        if pos > 0:
            key = yield from probe(j, pos - 1)
            k, jj, pp = key
            heapq.heappush(left_heap, ((-k, -jj, -pp), j, pos))

    for j in range(n_seqs):
        yield from arm(j)

    def min_right() -> Optional[int]:
        """Sequence whose next (right-of-splitter) element is smallest."""
        while right_heap:
            _key, j, pos = right_heap[0]
            if positions[j] == pos and pos < lengths[j]:
                return j
            heapq.heappop(right_heap)
        return None

    def max_left() -> Optional[int]:
        """Sequence whose last (left-of-splitter) element is largest."""
        while left_heap:
            _key, j, pos = left_heap[0]
            if positions[j] == pos and pos > 0:
                return j
            heapq.heappop(left_heap)
        return None

    count = sum(positions)
    # Generous safety bound: geometric rounds touch O(R log M) elements,
    # the fixup loop is linear in displacement; runaway means a bug.
    budget = 64 * (n_seqs + 4) * (2 + int(np.log2(max(2, step)))) + 8 * total + 1024

    def move(j: int, delta: int):
        positions[j] += delta
        yield from arm(j)

    def charge():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise AssertionError("multiway selection exceeded its work budget")

    def increase(s: int):
        """Advance the smallest-next splitter by ``s`` until count > rank."""
        nonlocal count
        while count <= rank:
            j = min_right()
            assert j is not None, "increase phase ran out of elements"
            delta = min(s, lengths[j] - positions[j])
            yield from move(j, delta)
            count += delta
            charge()

    def decrease(s: int):
        """Retreat the largest-previous splitter by ``s`` while count > rank."""
        nonlocal count
        while count > rank:
            j = max_left()
            assert j is not None, "decrease phase ran out of elements"
            delta = min(s, positions[j])
            yield from move(j, -delta)
            count -= delta
            charge()

    # The paper's alternation: grow with step s, halve, shrink, repeat,
    # finishing with unit steps so the count lands exactly on ``rank``.
    yield from increase(step)
    while step > 1:
        step //= 2
        yield from decrease(step)
        yield from increase(step)
    yield from decrease(1)

    # Fixup: enforce the partition property by swapping extremal elements.
    swaps = 0
    while True:
        ja = max_left()
        jb = min_right()
        if ja is None or jb is None:
            break
        a_key = memo[(ja, positions[ja] - 1)]
        b_key = memo[(jb, positions[jb])]
        if a_key < b_key:
            break
        yield from move(ja, -1)
        yield from move(jb, +1)
        swaps += 1
        charge()

    ja = max_left()
    boundary = memo[(ja, positions[ja] - 1)] if ja is not None else None
    return SelectionResult(list(positions), len(memo), boundary, swaps)


def select_bisect_coroutine(
    lengths: Sequence[int],
    rank: int,
    lo: Optional[Sequence[int]] = None,
    hi: Optional[Sequence[int]] = None,
) -> Generator[Tuple[int, int], int, SelectionResult]:
    """Provably exact multiway selection by interval bisection.

    Maintains per-sequence intervals ``[lo_j, hi_j]`` bracketing the exact
    splitter positions.  Each round picks a pivot element (the middle of
    the widest interval), locates it in every sequence by binary search
    restricted to the intervals, and — depending on whether the pivot's
    global rank is above or below ``rank`` — clamps all intervals from one
    side.  Pivot monotonicity makes the clamps safe; the pivot's own
    interval at least halves, so the algorithm terminates in
    O(R log max_j M_j) rounds.

    This is the deterministic fallback behind the *scalable* selection of
    Appendix B: its probe count is worst-case bounded, independent of the
    input distribution, whereas the step-halving search of Section IV-A is
    a (much cheaper on average) heuristic search that the fixup loop makes
    exact.
    """
    lengths = [int(n) for n in lengths]
    n_seqs = len(lengths)
    total = sum(lengths)
    if not 0 <= rank <= total:
        raise ValueError(f"rank {rank} outside 0..{total}")
    if rank == 0:
        return SelectionResult([0] * n_seqs, 0, None)
    if rank == total:
        return SelectionResult(list(lengths), 0, None)

    los = [0] * n_seqs if lo is None else [max(0, int(x)) for x in lo]
    his = list(lengths) if hi is None else [min(lengths[j], int(x)) for j, x in enumerate(hi)]
    for j in range(n_seqs):
        if los[j] > his[j]:
            raise ValueError(f"empty bracket for sequence {j}: [{los[j]}, {his[j]}]")

    memo = {}

    def probe(j: int, pos: int):
        cached = memo.get((j, pos))
        if cached is None:
            raw = yield (j, pos)
            cached = (int(raw), j, pos)
            memo[(j, pos)] = cached
        return cached

    while True:
        widths = [his[j] - los[j] for j in range(n_seqs)]
        if sum(widths) == 0:
            break
        jp = max(range(n_seqs), key=lambda j: widths[j])
        mid = (los[jp] + his[jp]) // 2
        pivot = yield from probe(jp, mid)
        # Locate the pivot in every sequence: first position (within the
        # bracket) whose element is >= pivot in (key, seq, pos) order.
        cuts = [0] * n_seqs
        for j in range(n_seqs):
            a, b = los[j], his[j]
            while a < b:
                m = (a + b) // 2
                elem = yield from probe(j, m)
                if elem < pivot:
                    a = m + 1
                else:
                    b = m
            cuts[j] = a
        t = sum(cuts)
        if t >= rank:
            # Exact positions are <= the pivot cut everywhere.
            for j in range(n_seqs):
                his[j] = min(his[j], cuts[j])
        else:
            # The pivot itself belongs to the left part.
            for j in range(n_seqs):
                los[j] = max(los[j], cuts[j])
            los[jp] = max(los[jp], mid + 1)
        for j in range(n_seqs):
            if los[j] > his[j]:  # pragma: no cover - invariant guard
                raise AssertionError("bisection brackets crossed")

    positions = los
    boundary = None
    best = None
    for j in range(n_seqs):
        if positions[j] > 0:
            elem = yield from probe(j, positions[j] - 1)
            if best is None or elem > best:
                best = elem
    boundary = best
    return SelectionResult(list(positions), len(memo), boundary)


def multiway_select_bisect(
    seqs: List[np.ndarray],
    rank: int,
    lo: Optional[Sequence[int]] = None,
    hi: Optional[Sequence[int]] = None,
) -> SelectionResult:
    """Run the bisection selection against in-memory sorted arrays."""
    gen = select_bisect_coroutine([len(s) for s in seqs], rank, lo=lo, hi=hi)
    try:
        j, pos = next(gen)
        while True:
            j, pos = gen.send(int(seqs[j][pos]))
    except StopIteration as stop:
        return stop.value


def multiway_select(
    seqs: List[np.ndarray],
    rank: int,
    init_positions: Optional[Sequence[int]] = None,
    init_step: Optional[int] = None,
) -> SelectionResult:
    """Run the selection against in-memory sorted arrays."""
    gen = select_coroutine(
        [len(s) for s in seqs], rank, init_positions=init_positions, init_step=init_step
    )
    try:
        j, pos = next(gen)
        while True:
            j, pos = gen.send(int(seqs[j][pos]))
    except StopIteration as stop:
        return stop.value


def sample_initial_positions(
    samples: List[np.ndarray],
    sample_every: int,
    rank: int,
    lengths: Sequence[int],
) -> Tuple[List[int], int]:
    """Sample-based warm start (Appendix B).

    ``samples[j]`` holds every ``sample_every``-th element of sequence
    ``j`` (starting at position 0).  Returns initial splitter positions
    close to the exact ones and the matching initial step size
    (``sample_every``), so the selection only refines within one sample
    gap per sequence.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    n_seqs = len(samples)
    counts = [len(s) for s in samples]
    total_samples = sum(counts)
    if total_samples == 0 or rank == 0:
        return [0] * n_seqs, sample_every
    keys = np.concatenate([np.asarray(s) for s in samples if len(s)])
    runs = np.concatenate(
        [np.full(len(s), j, dtype=np.int64) for j, s in enumerate(samples) if len(s)]
    )
    idxs = np.concatenate(
        [np.arange(len(s), dtype=np.int64) for s in samples if len(s)]
    )
    order = np.lexsort((idxs, runs, keys))
    # The sample whose global element rank is closest below ``rank``.
    t = min(rank // sample_every, total_samples - 1)
    prefix = order[: t + 1]
    positions = [0] * n_seqs
    if t >= 0:
        run_counts = np.bincount(runs[prefix], minlength=n_seqs)
        for j in range(n_seqs):
            # Sample i sits at position i*K; including c samples of run j
            # places the splitter just after the c-th sample's position.
            c = int(run_counts[j])
            pos = 0 if c == 0 else (c - 1) * sample_every
            positions[j] = min(pos, int(lengths[j]))
    return positions, sample_every


def sample_windows(
    samples: Sequence[Sequence],
    sample_every: int,
    ranks: Sequence[int],
    lengths: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per target rank, a window per sequence that holds the exact split.

    ``samples[j]`` holds every ``sample_every``-th key (u64 or NUL-padded
    ``S{w}``) of sorted sequence ``j``.  Returns ``(lo, hi)`` of shape
    ``(len(ranks), len(samples))`` with ``lo[d] <= p <= hi[d]`` for the
    exact split ``p`` of ``ranks[d]`` (:func:`multiway_select`'s).

    In (key, sequence, position) order over the samples, ``c`` earlier
    samples of sequence ``j`` put at least ``(c - 1)·K + 1`` and at most
    ``c·K`` of its elements before a sample (exactly ``c·K`` for its own
    sequence).  The last sample whose upper bound is below the rank lies
    left of the split with everything before it (``lo``); the first whose
    lower bound reaches the rank lies right of it with everything after
    it (``hi``).  Fewer than P samples lie between the two, so one rank's
    windows span fewer than 2P sample gaps together.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    k = sample_every
    n_seqs = len(samples)
    lengths = np.asarray(lengths, dtype=np.int64)
    ranks = np.asarray(ranks, dtype=np.int64)
    lo = np.zeros((len(ranks), n_seqs), dtype=np.int64)
    hi = np.tile(lengths, (len(ranks), 1))
    sizes = [len(s) for s in samples]
    if not any(sizes):
        return lo, hi
    keys = np.concatenate([np.asarray(s) for s in samples if len(s)])
    # Concatenated in (sequence, position) order: a stable sort of the
    # keys gives the (key, sequence, position) order, in which each
    # sequence's samples keep their own order.
    order = np.argsort(keys, kind="stable")
    seqs = np.repeat(np.arange(n_seqs), sizes)[order]
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx = (np.arange(len(keys)) - starts)[order]  # index in its sequence
    # Each sample raises the lower bound on what lies before it by 1 (the
    # first of its sequence) or K, and the upper bound on what lies before
    # the next sample of its sequence by the records of its gap.  Prefix
    # sums of both keep memory O(samples): a samples × sequences table
    # does not fit phase 2's R·P sequences.
    n = lengths[seqs]
    gap = np.minimum((idx + 1) * k, n) - np.minimum(idx * k, n)
    upper = np.cumsum(gap) - gap
    lower = np.cumsum(np.where(idx == 0, 1, k)) - 1
    qa = np.searchsorted(upper, ranks, side="left") - 1
    qb = np.searchsorted(lower, ranks, side="left")
    for d, (a, b) in enumerate(zip(qa, qb)):
        if a >= 0:
            upto = np.bincount(seqs[: a + 1], minlength=n_seqs)
            lo[d] = np.where(upto > 0, (upto - 1) * k + 1, 0)
        if b < len(keys):
            before = np.bincount(seqs[:b], minlength=n_seqs)
            hi[d] = np.minimum(before * k, lengths)
    return lo, hi


#: Window keys :func:`select_in_windows` still has in play when it stops
#: narrowing and sorts them: small enough that no sort buffer outgrows a
#: block of keys.
_SORT_WINDOW_KEYS = 1024


def select_in_windows(
    windows: Sequence[np.ndarray], lo: Sequence[int], rank: int
) -> List[int]:
    """The exact split of ``rank`` from windows known to contain it.

    ``windows[j]`` is sequence ``j``'s ``keys[lo[j] : lo[j] +
    len(windows[j])]`` (as from :func:`sample_windows`).  The split takes
    the first ``rank - sum(lo)`` window elements in (key, sequence,
    position) order: :func:`multiway_select`'s partition, for u64 and
    ``S{w}`` keys alike.  The windows are sorted, so weighted-median
    pivots narrow each to a range ``[a, b)`` (everything before ``a``
    taken, nothing from ``b`` on) without concatenating them; the few
    keys left are sorted at the end.
    """
    lo = [int(x) for x in lo]
    need = rank - sum(lo)
    if not 0 <= need <= sum(len(w) for w in windows):
        raise ValueError(f"rank {rank} is outside the windows")
    a = [0] * len(windows)
    b = [len(w) for w in windows]
    while sum(b) - sum(a) > _SORT_WINDOW_KEYS:
        mids = sorted(
            (windows[j][(a[j] + b[j]) // 2].item(), j)
            for j in range(len(windows)) if a[j] < b[j]
        )
        weights = np.cumsum([b[j] - a[j] for _key, j in mids])
        key, s = mids[int(np.searchsorted(weights, weights[-1] / 2))]
        m = (a[s] + b[s]) // 2
        # Elements of each window before the pivot (key, s, m).
        before = [
            m if j == s else
            int(np.searchsorted(w, key, "right" if j < s else "left"))
            for j, w in enumerate(windows)
        ]
        if sum(before) < need:  # the pivot is taken, and all before it
            a = before
            a[s] = m + 1
        else:
            b = before
    keys = np.concatenate(
        [np.asarray(w[i:k]) for w, i, k in zip(windows, a, b)]
    )
    seqs = np.repeat(np.arange(len(windows)), np.subtract(b, a))
    taken = seqs[np.argsort(keys, kind="stable")[: need - sum(a)]]
    counts = np.bincount(taken, minlength=len(windows))
    return [x + i + int(c) for x, i, c in zip(lo, a, counts)]
