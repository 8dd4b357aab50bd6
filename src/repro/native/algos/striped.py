"""Mergesort with global striping, natively (paper Section III).

The paper's baseline: runs are formed **locally** (no cross-PE sort)
but written *striped* block-wise over all P PEs' spill files, and the
merge pass re-sorts batches of striped blocks collectively before
placing them into the canonical output.  Communication therefore rides
in **both** passes — the stripe write of run formation and the batch
re-sort + output placement of the merge — instead of canonical's single
dedicated all-to-all.  That is the amplification CANONICALMERGESORT
exists to avoid, and this backend makes it measurable: per-phase wire
counters show ≥ 1·N·16 bytes under ``run_formation`` and ≥ 2·N·16 under
``merge`` (batch exchange + placement), versus canonical's exactly
1·N·16 under ``all_to_all``.

Phase mapping onto the worker's five-slot pipeline:

=================  =========================================================
``run_formation``  sort M/3-record chunks locally; stripe each run's blocks
                   round-robin over the PEs (one all-to-all per run);
                   allgather per-block first keys — the prediction sequence
``selection``      pure planning: the global prediction order
                   (:func:`repro.em.prefetch.prediction_order`) over every
                   (run, block) of the striped layout; no I/O, no wire
``all_to_all``     **empty** — striping has no dedicated redistribution
                   phase; its traffic lives in the two passes around it
``merge``          batches of blocks in prediction order: each PE reads the
                   striped blocks it owns (fetch order =
                   :func:`~repro.native.pipeline.plan_fetch_order`, i.e.
                   prediction order through the optimal prefetch schedule
                   over the stripe layout), the batch is re-sorted
                   collectively (:func:`~repro.native.phases._distributed_sort_run`),
                   records below the next unread block's first key are
                   final and shipped to their canonical output owner, the
                   rest carry over as leftover (≤ R·B, re-sent next round —
                   counted in ``striped_resent_records``)
=================  =========================================================

The final output is the canonical balanced layout (rank i holds records
``[i·N/P, (i+1)·N/P)``), written at exact offsets as placement chunks
arrive; sortedness is proven by span tiling (every arriving chunk is a
sorted contiguous slice of the global order, and adjacent spans must
meet in order), the checksum is the usual order-independent key sum.

Striped jobs keep the disk-side conservation invariant *per pass*:
``run_formation`` and ``merge`` each read and write exactly N·16 bytes;
the ``selection`` and ``all_to_all`` phases touch nothing.  Memory note:
an adversarial input whose duplicate keys all collide (every block's
first key equal) defers every emission to the final round, growing the
leftover to O(N/P) records per PE — canonical has no such mode, which
is one more row of the decision matrix in docs/NATIVE.md.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...em.prefetch import prediction_order
from ..phases import (
    _MASK,
    TAG_MERGE,
    TAG_RF,
    NativeContext,
    OutputMeta,
    _chunk_schedule,
    _distributed_sort_run,
    generate_input,
)
from ..pipeline import plan_fetch_order
from ..records import (
    NATIVE_DTYPE,
    RECORD_BYTES,
    bytes_view,
    records_from_bytes,
    sort_records,
)

__all__ = [
    "StripedRun",
    "generate_input",
    "run_formation",
    "selection",
    "all_to_all",
    "merge",
]


class StripedRun:
    """One locally sorted run, striped block-wise over all PEs.

    Block ``b`` of run ``run_id`` (records ``[b·B, (b+1)·B)`` of the
    run) lives on PE ``(b + run_id) % P`` — the run offset rotates the
    stripe so partial tail blocks spread over the PEs — at local block
    slot ``b // P`` of that PE's ``piece_path(run_id)`` file.
    """

    def __init__(
        self,
        run_id: int,
        n_records: int,
        block_records: int,
        n_workers: int,
        first_keys: List[int],
    ):
        self.run_id = run_id
        self.n_records = n_records
        self.block_records = block_records
        self.n_workers = n_workers
        #: Smallest key of every block, in block order (the run is
        #: sorted, so these ascend) — the merge's prediction sequence.
        self.first_keys = first_keys

    @property
    def n_blocks(self) -> int:
        return -(-self.n_records // self.block_records)

    def owner(self, b: int) -> int:
        return (b + self.run_id) % self.n_workers

    def local_slot(self, b: int) -> int:
        return b // self.n_workers

    def block_count(self, b: int) -> int:
        return min(self.block_records, self.n_records - b * self.block_records)

    def __len__(self) -> int:
        return self.n_records


# ------------------------------------------------------------- phase 1


def run_formation(ctx: NativeContext) -> List[StripedRun]:
    """Form local runs and stripe each over all PEs' spill files.

    Round r forms P runs at once — every rank sorts its chunk r into run
    ``r·P + rank`` — and one exchange ships every block to its stripe
    owner, which writes it at its local slot and harvests the block's
    first key (the prediction sequence, for free, exactly as canonical's
    all-to-all harvests its merge keys).  A final allgather shares the
    harvested keys so every rank can build the identical merge plan.
    """
    job, comm, store, rank = ctx.job, ctx.comm, ctx.store, ctx.rank
    n_workers = job.n_workers
    block = job.block_records
    chunks = _chunk_schedule(ctx)
    n_rounds = comm.allreduce(len(chunks), max)
    input_path = store.input_path()

    run_lengths: Dict[int, int] = {}
    harvested: Dict[int, Dict[int, int]] = {}
    for r in range(n_rounds):
        block_ids = chunks[r] if r < len(chunks) else []
        records = store.read_blocks(input_path, block_ids, TAG_RF)
        ctx.add_checksum(records)
        ctx.stats.note_resident(2 * records.nbytes)
        records = sort_records(records)

        gid = r * n_workers + rank
        lengths: List[int] = comm.allgather(len(records))
        handles: Dict[int, object] = {}
        for j, length in enumerate(lengths):
            g = r * n_workers + j
            run_lengths[g] = length
            mine = 0
            for b in range(-(-length // block)):
                if (b + g) % n_workers == rank:
                    mine += min(block, length - b * block)
            if mine:
                path = store.piece_path(g)
                store.preallocate(path, mine * RECORD_BYTES)
                handles[g] = open(path, "r+b")

        def outgoing():
            length = len(records)
            for b in range(-(-length // block)):
                dest = (b + gid) % n_workers
                chunk = records[b * block : min((b + 1) * block, length)]
                yield dest, ("stw", gid, b, bytes_view(chunk))

        def on_chunk(peer: int, payload: tuple) -> None:
            kind, g, b, buf = payload
            assert kind == "stw"
            harvested.setdefault(g, {})[b] = struct.unpack_from("<Q", buf, 0)[0]
            offset = (b // n_workers) * block * RECORD_BYTES
            store.write_at(handles[g], offset, buf, TAG_RF)

        comm.exchange(outgoing(), on_chunk)
        for handle in handles.values():
            handle.close()
        del records

    gathered = comm.allgather(
        [(g, b, key) for g, keys in harvested.items() for b, key in keys.items()]
    )
    first_keys: Dict[int, Dict[int, int]] = {g: {} for g in run_lengths}
    for entry in gathered:
        for g, b, key in entry:
            first_keys[g][b] = key

    runs: List[StripedRun] = []
    for g in sorted(run_lengths):
        length = run_lengths[g]
        n_blocks = -(-length // block)
        if len(first_keys[g]) != n_blocks:
            raise AssertionError(
                f"striped run {g}: harvested {len(first_keys[g])} block "
                f"keys, expected {n_blocks}"
            )
        runs.append(
            StripedRun(
                g, length, block, n_workers,
                [first_keys[g][b] for b in range(n_blocks)],
            )
        )
    ctx.stats.add_counter("runs_formed", float(len(chunks)))
    ctx.stats.add_counter("striped_blocks_received", float(len(
        [b for keys in harvested.values() for b in keys]
    )))
    return runs


# ------------------------------------------------------------- phase 2


def selection(
    ctx: NativeContext, runs: List[StripedRun]
) -> List[Tuple[int, int, int]]:
    """Build the global merge plan: prediction order over every block.

    Pure planning from the metadata run formation allgathered — no disk,
    no wire.  Returns the flat ``(first_key, run_index, block)`` list in
    the order the merge will consume it; identical on every rank.
    """
    triples = [
        (key, ri, b)
        for ri, run in enumerate(runs)
        for b, key in enumerate(run.first_keys)
    ]
    plan = [triples[i] for i in prediction_order(triples)]
    ctx.stats.add_counter("striped_plan_blocks", float(len(plan)))
    return plan


# ------------------------------------------------------------- phase 3


def all_to_all(
    ctx: NativeContext,
    runs: List[StripedRun],
    plan: List[Tuple[int, int, int]],
) -> Tuple[tuple, None]:
    """Striping has no dedicated redistribution phase — pass through.

    The stripe write already scattered the runs (phase 1) and the merge
    re-sorts and places them (phase 4); this slot only threads the run
    inventory and the plan to the merge.  Its measured wall/wire/disk
    stay ~0, which is itself the comparison point against canonical's
    N·16-byte phase.
    """
    return (runs, plan), None


# ------------------------------------------------------------- phase 4


def merge(
    ctx: NativeContext,
    carrier: tuple,
    _block_first_keys: Optional[List[List[int]]] = None,
) -> OutputMeta:
    """Batched prediction-order merge with collective re-sort + placement.

    Per round: each PE reads the striped blocks it owns from the next
    ``batch`` plan entries (read order = prediction order through the
    optimal prefetch schedule over the stripe layout), the batch (plus
    carried leftover) is re-sorted collectively, and every record below
    the next unread block's first key — provably final — is shipped to
    the canonical owner of its global output position, which writes it
    at its exact offset.  Records at or above the bound stay as leftover
    and re-enter the next round's sort (the resend amplification striping
    pays; counted).
    """
    runs, plan = carrier
    job, comm, store, rank = ctx.job, ctx.comm, ctx.store, ctx.rank
    n_workers = job.n_workers
    block = job.block_records
    total = sum(run.n_records for run in runs)
    out_bounds = [d * total // n_workers for d in range(n_workers + 1)]
    out_lo, out_hi = out_bounds[rank], out_bounds[rank + 1]

    out_path = store.output_path()
    store.preallocate(out_path, (out_hi - out_lo) * RECORD_BYTES)
    out_handle = open(out_path, "r+b")

    spans: List[Tuple[int, int, int, int, bool]] = []
    checksum = 0

    def on_placement(peer: int, payload: tuple) -> None:
        nonlocal checksum
        kind, gpos, buf = payload
        assert kind == "out"
        arrived = records_from_bytes(buf)
        keys = arrived["key"]
        store.write_at(
            out_handle, (gpos - out_lo) * RECORD_BYTES, buf, TAG_MERGE
        )
        ok = len(keys) < 2 or bool(np.all(keys[:-1] <= keys[1:]))
        with np.errstate(over="ignore"):
            checksum = (checksum + int(np.add.reduce(keys))) & _MASK
        spans.append((gpos - out_lo, len(keys), int(keys[0]), int(keys[-1]), ok))

    batch = max(n_workers, job.piece_blocks * n_workers // 2)
    leftover = np.empty(0, dtype=NATIVE_DTYPE)
    emitted_total = 0
    resent = 0
    rounds = 0
    cursor = 0
    try:
        while cursor < len(plan):
            this_round = plan[cursor : cursor + batch]
            nxt = cursor + len(this_round)
            bound = plan[nxt][0] if nxt < len(plan) else None

            mine = [
                (key, ri, b)
                for key, ri, b in this_round
                if runs[ri].owner(b) == rank
            ]
            parts: List[np.ndarray] = [leftover] if len(leftover) else []
            if mine:
                order = plan_fetch_order(
                    mine,
                    [ri for _key, ri, _b in mine],
                    max(1, min(len(mine), job.piece_blocks)),
                )
                for idx in order:
                    _key, ri, b = mine[idx]
                    run = runs[ri]
                    parts.append(
                        store.read_range(
                            store.piece_path(run.run_id),
                            run.local_slot(b) * block,
                            run.block_count(b),
                            TAG_MERGE,
                        )
                    )
            local = (
                np.concatenate(parts)
                if len(parts) != 1
                else parts[0]
            ) if parts else np.empty(0, dtype=NATIVE_DTYPE)
            ctx.stats.note_resident(3 * local.nbytes)
            local = sort_records(local)
            piece = _distributed_sort_run(ctx, local)
            del local, parts

            if bound is None:
                cut = len(piece)
            else:
                cut = int(np.searchsorted(piece["key"], bound, side="left"))
            cuts: List[int] = comm.allgather(cut)
            base = emitted_total + sum(cuts[:rank])

            def outgoing():
                sent = 0
                while sent < cut:
                    gpos = base + sent
                    dest = bisect_right(out_bounds, gpos) - 1
                    limit = min(out_bounds[dest + 1] - gpos, block, cut - sent)
                    span = piece[sent : sent + limit]
                    yield dest, ("out", gpos, bytes_view(span))
                    sent += limit

            comm.exchange(outgoing(), on_placement)

            leftover = piece[cut:].copy()
            resent += len(leftover)
            del piece
            emitted_total += sum(cuts)
            cursor = nxt
            rounds += 1
    finally:
        out_handle.close()

    if emitted_total != total or len(leftover):
        raise AssertionError(
            f"striped merge emitted {emitted_total} of {total} records "
            f"with {len(leftover)} left over"
        )

    # Span tiling proves the output: the arriving chunks must cover
    # [0, out_hi - out_lo) exactly, each internally sorted, and adjacent
    # spans must meet in key order.
    spans.sort()
    acc = 0
    sorted_ok = True
    prev_last: Optional[int] = None
    for off, n, first, last, ok in spans:
        if off != acc:
            raise AssertionError(
                f"rank {rank}: output span at offset {off}, expected {acc}"
            )
        acc += n
        if not ok or (prev_last is not None and first < prev_last):
            sorted_ok = False
        prev_last = last
    if acc != out_hi - out_lo:
        raise AssertionError(
            f"rank {rank}: output covers {acc} records, "
            f"expected {out_hi - out_lo}"
        )

    for run in runs:
        store.remove(store.piece_path(run.run_id))
    ctx.stats.add_counter("striped_merge_rounds", float(rounds))
    ctx.stats.add_counter("striped_resent_records", float(resent))
    ctx.stats.add_counter("merge_arity", float(len(runs)))
    return OutputMeta(
        rank=rank,
        path=out_path,
        n_records=acc,
        first_key=spans[0][2] if spans else None,
        last_key=spans[-1][3] if spans else None,
        checksum=checksum & _MASK,
        sorted_ok=sorted_ok,
    )
