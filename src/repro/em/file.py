"""Sorted runs on disk: local pieces and distributed runs.

Run formation (paper Section IV, phase one) leaves each node with one
*local piece* of every global run: a sorted sequence of blocks on the
node's own disks, plus the first key of every block in memory: both the
*prediction sequence* entries of Section III and the sample of every K-th
element at K = B that the multiway selection starts from (Appendix B).
A :class:`DistributedRun` stitches the P pieces into one globally sorted
sequence with global-position indexing — the view the multiway-selection
phase operates on.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..records.arrays import is_sorted
from ..records.element import KEY_DTYPE
from .block import BID
from .blockmanager import BlockStore

__all__ = ["LocalRunPiece", "DistributedRun", "write_piece", "PieceReader"]


class LocalRunPiece:
    """One node's sorted, block-resident piece of a run."""

    def __init__(
        self,
        node: int,
        blocks: List[BID],
        counts: List[int],
        first_keys: np.ndarray,
    ):
        if len(blocks) != len(counts) or len(blocks) != len(first_keys):
            raise ValueError("blocks/counts/first_keys length mismatch")
        self.node = node
        self.blocks = blocks
        self.counts = counts
        self.first_keys = first_keys
        self.n_keys = sum(counts)
        # Prefix sums for position->block lookup.
        self._starts: List[int] = []
        acc = 0
        for c in counts:
            self._starts.append(acc)
            acc += c

    def block_of(self, pos: int) -> Tuple[int, int]:
        """Map a piece-local position to (block index, offset in block)."""
        if not 0 <= pos < self.n_keys:
            raise IndexError(f"position {pos} outside piece of {self.n_keys} keys")
        idx = bisect_right(self._starts, pos) - 1
        return idx, pos - self._starts[idx]

    def block_start(self, idx: int) -> int:
        """Piece-local position of the first key in block ``idx``."""
        return self._starts[idx]

    def free_all(self, store: BlockStore) -> None:
        """Release every block of the piece."""
        for bid in self.blocks:
            store.free(bid)
        self.blocks = []
        self.counts = []
        self.n_keys = 0
        self._starts = []

    def __len__(self) -> int:
        return self.n_keys

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LocalRunPiece n{self.node} keys={self.n_keys} blocks={len(self.blocks)}>"


class DistributedRun:
    """A globally sorted run: one :class:`LocalRunPiece` per node, in rank order."""

    def __init__(self, run_id: int, pieces: List[LocalRunPiece]):
        self.run_id = run_id
        self.pieces = pieces
        self.offsets: List[int] = []
        acc = 0
        for piece in pieces:
            self.offsets.append(acc)
            acc += piece.n_keys
        self.n_keys = acc

    def locate(self, gpos: int) -> Tuple[int, int]:
        """Map a run-global position to (node, piece-local position)."""
        if not 0 <= gpos < self.n_keys:
            raise IndexError(f"position {gpos} outside run of {self.n_keys} keys")
        node = bisect_right(self.offsets, gpos) - 1
        return node, gpos - self.offsets[node]

    def __len__(self) -> int:
        return self.n_keys

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DistributedRun {self.run_id} keys={self.n_keys} pieces={len(self.pieces)}>"


def write_piece(
    store: BlockStore,
    keys: np.ndarray,
    tag: str,
    max_outstanding: Optional[int] = None,
    check_sorted: bool = False,
) -> Generator:
    """Write a sorted key array to local disks as a run piece.

    A generator (``yield from``): blocks are striped round-robin over the
    node's disks and written asynchronously with a bounded number of
    outstanding requests (the write-buffer blocks of the paper's
    Section III).  Returns the :class:`LocalRunPiece`, including the block
    first-key prediction entries, which are also the sample the scalable
    multiway selection starts from (Appendix B, K = B).
    """
    if check_sorted and not is_sorted(keys):
        raise ValueError("write_piece expects sorted keys")
    be = store.block_elems
    if max_outstanding is None:
        max_outstanding = 2 * len(store.node.disks)
    blocks: List[BID] = []
    counts: List[int] = []
    firsts: List[int] = []
    outstanding: List = []
    for start in range(0, len(keys), be):
        chunk = keys[start : start + be]
        bid = store.allocate()
        blocks.append(bid)
        counts.append(len(chunk))
        firsts.append(chunk[0])
        outstanding.append(store.write(bid, chunk, tag=tag))
        if len(outstanding) >= max_outstanding:
            yield outstanding.pop(0)
    for ev in outstanding:
        yield ev
    return LocalRunPiece(
        node=store.node.node_id,
        blocks=blocks,
        counts=counts,
        first_keys=np.asarray(firsts, dtype=KEY_DTYPE),
    )


class PieceReader:
    """Sequential block reader with bounded read-ahead.

    Issues up to ``depth`` asynchronous block reads ahead of consumption —
    the simple streaming prefetch used for run formation input, where the
    access pattern is known and sequential per disk.
    """

    def __init__(
        self,
        store: BlockStore,
        blocks: List[BID],
        tag: str,
        depth: Optional[int] = None,
    ):
        self.store = store
        self.blocks = blocks
        self.tag = tag
        self.depth = depth if depth is not None else 2 * len(store.node.disks)
        if self.depth < 1:
            raise ValueError("read-ahead depth must be >= 1")
        self._next_issue = 0
        self._inflight: List = []

    def _fill(self) -> None:
        while self._next_issue < len(self.blocks) and len(self._inflight) < self.depth:
            bid = self.blocks[self._next_issue]
            self._inflight.append(self.store.read(bid, tag=self.tag))
            self._next_issue += 1

    def next_block(self) -> Generator:
        """Generator returning the next block's keys, or ``None`` at EOF."""
        self._fill()
        if not self._inflight:
            return None
        keys = yield self._inflight.pop(0)
        self._fill()
        return keys

    def read_all(self) -> Generator:
        """Generator returning the list of all block arrays, in order."""
        out = []
        while True:
            keys = yield from self.next_block()
            if keys is None:
                return out
            out.append(keys)
