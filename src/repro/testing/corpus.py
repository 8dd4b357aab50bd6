"""The adversarial workload corpus: named, seeded, deterministic inputs.

External sorters break on *boundaries*: run boundaries, memory-budget
boundaries, block boundaries, and key distributions that defeat the
randomization arguments (paper Fig. 6; Bender et al., *Run Generation
Revisited*; Arge & Thorup, *RAM-Efficient External Memory Sorting*).
This corpus packages exactly those inputs as ``(name, seed, generator)``
triples so every test tier — the tier-1 pruned matrix, the nightly full
matrix, the property-based search, and the ``conformance`` CLI — draws
from one shared, replayable vocabulary.

Two orthogonal axes:

* **entries** (:data:`ENTRIES`) fix the *key distribution* per rank;
* **sizings** (:data:`SIZINGS`) fix the *record counts* relative to the
  memory budget M and block size B — ``N = M ± 1`` record, counts
  straddling a block boundary, the single-run N ≤ M regime, and a
  many-run configuration towards the two-pass N = O(M²/B) limit.

Everything is a pure function of ``(name, n, rank, n_ranks, seed)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..workloads.gensort import record_keys

__all__ = [
    "CorpusEntry",
    "Sizing",
    "ENTRIES",
    "SIZINGS",
    "generate",
    "write_native_inputs",
    "entry_names",
    "resolve_sizing",
    "sizing_feasible",
    "quick_matrix",
    "full_matrix",
]

#: Key domain ceiling shared with the sim workload generators.
_KEY_HIGH = np.uint64(2 ** 63)


def _rng(seed: int, rank: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(name.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng((seed, tag, rank))


# ---------------------------------------------------------------- generators
# Signature: gen(n, rank, n_ranks, seed) -> uint64 key array of length n.


def _uniform(n, rank, n_ranks, seed):
    """Uniform random keys — the control case (paper's random input)."""
    return _rng(seed, rank, "uniform").integers(0, _KEY_HIGH, n, dtype=np.uint64)


def _dup_all(n, rank, n_ranks, seed):
    """One single key value everywhere: every comparison is a tie."""
    return np.full(n, 42, dtype=np.uint64)


def _dup_tiny_domain(n, rank, n_ranks, seed):
    """Seven distinct keys: duplicate-heavy, exercises exact tie-breaks."""
    return _rng(seed, rank, "dup_tiny").integers(0, 7, n, dtype=np.uint64)


def _slice_bounds(index: int, n_ranks: int) -> Tuple[int, int]:
    width = int(_KEY_HIGH)
    return index * width // n_ranks, (index + 1) * width // n_ranks


def _presorted(n, rank, n_ranks, seed):
    """Globally sorted input: rank r holds the r-th key slice, sorted."""
    lo, hi = _slice_bounds(rank, n_ranks)
    return np.sort(_rng(seed, rank, "presorted").integers(lo, hi, n, dtype=np.uint64))


def _reversed_global(n, rank, n_ranks, seed):
    """Globally reverse sorted: every record must cross the machine."""
    lo, hi = _slice_bounds(n_ranks - 1 - rank, n_ranks)
    keys = np.sort(_rng(seed, rank, "reversed").integers(lo, hi, n, dtype=np.uint64))
    return keys[::-1].copy()


def _fig6_local_sorted(n, rank, n_ranks, seed):
    """Fig. 6 worst case: each rank's input is locally sorted, so without
    randomized run formation the r-th chunk of every rank covers a thin
    global key slice and (almost) everything moves in the all-to-all."""
    return np.sort(_rng(seed, rank, "fig6").integers(0, _KEY_HIGH, n, dtype=np.uint64))


def _staircase(n, rank, n_ranks, seed):
    """Staircase plateaus: rank-local keys rise in duplicate plateaus of
    32 records — locally sorted *and* duplicate-heavy, the combination
    that defeats non-randomized run formation and stresses splitter
    tie-breaking at the same time."""
    plateau = 32
    steps = (np.arange(n, dtype=np.uint64) // np.uint64(plateau))
    return steps * np.uint64(n_ranks) + np.uint64(rank)


def _zipf(n, rank, n_ranks, seed):
    """Heavy-tailed (Pareto/Zipf-flavoured) skew: most mass near zero."""
    raw = _rng(seed, rank, "zipf").pareto(1.1, n)
    return np.minimum(raw * 1e15, float(_KEY_HIGH) - 1).astype(np.uint64)


def _gensort(n, rank, n_ranks, seed):
    """The gensort-compatible deterministic keys (Indy-style uniform)."""
    return record_keys(rank * n, n, seed=seed)


def _gensort_dup(n, rank, n_ranks, seed):
    """Gensort's duplicate-heavy Daytona-like distribution."""
    return record_keys(rank * n, n, seed=seed, skew=True)


@dataclass(frozen=True)
class CorpusEntry:
    """One adversarial key distribution, deterministic per (seed, rank)."""

    name: str
    make: Callable[[int, int, int, int], np.ndarray]
    #: Run the Fig.-6 configuration (randomize=False) for this entry too.
    fig6_mode: bool = False
    note: str = ""


ENTRIES: Dict[str, CorpusEntry] = {
    e.name: e
    for e in [
        CorpusEntry("uniform", _uniform, note="control case"),
        CorpusEntry("dup_all", _dup_all, note="all comparisons tie"),
        CorpusEntry("dup_tiny_domain", _dup_tiny_domain, note="7 distinct keys"),
        CorpusEntry("presorted", _presorted, note="already globally sorted"),
        CorpusEntry("reversed", _reversed_global, note="globally reverse sorted"),
        CorpusEntry("fig6_local_sorted", _fig6_local_sorted, fig6_mode=True,
                    note="locally sorted; worst case for non-randomized runs"),
        CorpusEntry("staircase", _staircase, fig6_mode=True,
                    note="locally sorted duplicate plateaus"),
        CorpusEntry("zipf", _zipf, note="heavy-tailed key skew"),
        CorpusEntry("gensort", _gensort, note="gensort-compatible seeds"),
        CorpusEntry("gensort_dup", _gensort_dup, note="Daytona-like duplicates"),
    ]
}


def entry_names() -> List[str]:
    return sorted(ENTRIES)


def generate(name: str, n: int, rank: int, n_ranks: int, seed: int) -> np.ndarray:
    """Rank ``rank``'s keys for corpus entry ``name`` — pure and seeded."""
    if name not in ENTRIES:
        raise ValueError(f"unknown corpus entry {name!r}; choose from {entry_names()}")
    if n < 0:
        raise ValueError(f"negative record count {n}")
    keys = np.ascontiguousarray(ENTRIES[name].make(n, rank, n_ranks, seed),
                                dtype=np.uint64)
    if len(keys) != n:
        raise AssertionError(f"corpus entry {name} produced {len(keys)} != {n} keys")
    return keys


def write_native_inputs(spill_dir: str, parts, records: str = "fixed16") -> None:
    """Pre-write ``input_<rank>.dat`` for a ``generate=False`` job.

    ``parts[rank]`` are that rank's keys; the payload is the global
    input index, so an output record can be traced back to the exact
    input permutation.  ``records="string"`` writes varlen files whose
    keys are the order-preserving
    :func:`~repro.native.records.string_key_from_u64` images.
    """
    import os

    from ..native.records import (
        VarlenBatch,
        make_records,
        string_key_from_u64,
        write_varlen_file,
    )

    os.makedirs(spill_dir, exist_ok=True)
    first = 0
    for rank, keys in enumerate(parts):
        payloads = np.arange(first, first + len(keys), dtype=np.uint64)
        path = os.path.join(spill_dir, f"input_{rank}.dat")
        if records == "string":
            write_varlen_file(path, VarlenBatch.build(
                [string_key_from_u64(int(k)) for k in keys], payloads
            ))
        else:
            make_records(keys, payloads).tofile(path)
        first += len(keys)


# ------------------------------------------------------------------- sizings


@dataclass(frozen=True)
class Sizing:
    """Record counts relative to the memory budget M and block size B.

    All quantities are in *records* (16 bytes each for the native
    backend).  ``memory_records`` is the per-worker budget M; the native
    backend sizes one run chunk at M / ``working_copies`` records of the
    record model (M/2 for fixed16, M/3 for strings), so the run count R
    follows from ``n_per_rank``, these two numbers and the model.  The
    comments below give R as fixed16 / strings.
    """

    name: str
    n_per_rank: int
    block_records: int
    memory_records: int
    note: str = ""


SIZINGS: Dict[str, Sizing] = {
    s.name: s
    for s in [
        # Baseline: R = 3 / 4 runs of M/2 = 192 / M/3 = 128 records.
        Sizing("base", 512, 32, 384, "multi-run baseline"),
        # The memory-budget boundary: one record less / more than M.  At
        # 12 / 13 blocks, R = 2 / 3 (fixed16) and 3 / 4 (strings): the
        # extra record opens a one-block run.
        Sizing("m_minus_1", 383, 32, 384, "N = M - 1 record"),
        Sizing("m_plus_1", 385, 32, 384, "N = M + 1 record"),
        # The block boundary: one record less / more than a whole block.
        Sizing("block_minus_1", 255, 32, 384, "N = 8B - 1 record"),
        Sizing("block_plus_1", 257, 32, 384, "N = 8B + 1 record"),
        # N <= M: the single-run regime (no selection/redistribution work).
        Sizing("single_run", 128, 32, 384, "one run: N <= the run chunk"),
        # Many runs: R = 11 / 16, towards the two-pass N = O(M^2/B) limit.
        Sizing("many_runs", 2048, 8, 384, "R = 11 / 16 runs near the 2-pass limit"),
    ]
}


_AD_HOC = re.compile(r"^n(\d+)b(\d+)m(\d+)$")


def resolve_sizing(name: str) -> Sizing:
    """A named sizing, or an ad-hoc ``n<N>b<B>m<M>`` one (records each).

    The ad-hoc form is what the property-based search emits, so a
    minimized failure's replay token stays self-contained: the sizing is
    spelled out inside the token instead of pointing at a registry entry.
    """
    if name in SIZINGS:
        return SIZINGS[name]
    match = _AD_HOC.match(name)
    if match is None:
        raise ValueError(
            f"unknown sizing {name!r}: not in {sorted(SIZINGS)} and not "
            "of the ad-hoc n<N>b<B>m<M> form"
        )
    n, b, m = (int(g) for g in match.groups())
    return Sizing(name, n, b, m, "ad-hoc (property search)")


def ad_hoc_name(n_per_rank: int, block_records: int, memory_records: int) -> str:
    return f"n{n_per_rank}b{block_records}m{memory_records}"


def sizing_feasible(sizing: Sizing, record_bytes: int = 16) -> bool:
    """Would both backends, and both native record models, accept this
    sizing?  Mirrors the feasibility checks of
    :class:`repro.native.job.NativeJob` (the merge stage of R + 1 blocks
    fits the working copies beside one run chunk of M/2 or M/3) and the
    simulator's ``SortConfig.validate`` (R ≤ memory blocks, ≥ 2 keys per
    block)."""
    n, b, m = sizing.n_per_rank, sizing.block_records, sizing.memory_records
    if n < 1 or b < 2 or m < b:
        return False
    input_blocks = -(-n // b)
    # Native: a run chunk is M / working_copies worth of blocks.
    from ..native.records import MODELS

    for copies in sorted({model.working_copies for model in MODELS.values()}):
        piece_native = max(1, (m * record_bytes // copies) // (b * record_bytes))
        runs_native = max(1, -(-input_blocks // piece_native))
        if runs_native + 1 > (copies - 1) * piece_native:
            return False
    # Sim: run piece is the full memory in blocks.
    piece_sim = max(1, m // b)
    runs_sim = max(1, -(-input_blocks // piece_sim))
    return runs_sim <= piece_sim


# -------------------------------------------------------------- the matrices


def quick_matrix() -> List[Tuple[str, str]]:
    """The pruned tier-1 matrix: ≤ 8 (entry, sizing) cases, small N.

    One representative of each adversary family, plus the two
    memory-budget boundary sizings on the control distribution.
    """
    return [
        ("uniform", "base"),
        ("dup_all", "base"),
        ("staircase", "base"),
        ("presorted", "base"),
        ("reversed", "base"),
        ("zipf", "base"),
        ("gensort_dup", "m_plus_1"),
        ("uniform", "m_minus_1"),
    ]


def full_matrix() -> List[Tuple[str, str]]:
    """The nightly matrix: every entry × every sizing."""
    return [
        (entry, sizing)
        for entry in entry_names()
        for sizing in sorted(SIZINGS)
    ]
