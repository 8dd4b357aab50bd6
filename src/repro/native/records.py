"""Native on-disk record format and its numpy kernels.

The native backend moves *real bytes*: records are fixed-size binary
structs written with ``ndarray.tofile`` and read back with
``numpy.fromfile``.  The layout mirrors the paper's 16-byte element
(:data:`repro.records.element.ELEM_PAPER_16B`): a little-endian 64-bit
key followed by a 64-bit payload.  The payload carries the gensort-style
record index, so a sorted output file can be traced back to the exact
input permutation during validation.

Keys come from :mod:`repro.workloads.gensort` — records are a pure
function of ``(seed, index)``, any sub-range can be generated
independently (each worker process generates its own slice), and the
order-independent checksum of the whole input is known without reading
it back.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..algos.multiway_selection import sample_initial_positions
from ..core.selection_phase import _run_samples, warm_start_from_samples
from ..records.element import ELEM_PAPER_16B, KEY_DTYPE
from ..workloads.gensort import record_keys

__all__ = [
    "NATIVE_DTYPE",
    "RECORD_BYTES",
    "make_records",
    "generate_records",
    "sort_records",
    "concat_records",
    "merge_record_arrays",
    "read_records",
    "record_count",
    "records_from_bytes",
    "bytes_view",
    "keys_of",
    # Variable-length (string) record model
    "VARLEN_HEADER_BYTES",
    "VARLEN_PAYLOAD_BYTES",
    "VarlenBatch",
    "make_varlen_batch",
    "varlen_from_bytes",
    "merge_varlen_batches",
    "string_key_from_u64",
    "url_key_from_u64",
    "logline_key_from_u64",
    "STRING_FAMILIES",
    "resolve_string_family",
    "generate_string_batch",
    "string_checksum",
    "embed_key",
    "unembed_key",
    "lcp_encode_keys",
    "lcp_decode_keys",
    "lcp_encode_batch",
    "lcp_decode_batch",
    "read_varlen_file",
    "read_varlen_records",
    "write_varlen_file",
    "RecordModel",
    "Fixed16Model",
    "StringModel",
    "MODELS",
    "resolve_model",
]

#: One native record: (key, payload), 16 bytes, little-endian.
NATIVE_DTYPE = np.dtype([("key", "<u8"), ("payload", "<u8")])

#: Bytes per native record (= the paper's 16-byte element).
RECORD_BYTES = NATIVE_DTYPE.itemsize

assert RECORD_BYTES == ELEM_PAPER_16B.elem_bytes


def make_records(keys: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Assemble a structured record array from key/payload columns."""
    if len(keys) != len(payloads):
        raise ValueError(f"{len(keys)} keys vs {len(payloads)} payloads")
    out = np.empty(len(keys), dtype=NATIVE_DTYPE)
    out["key"] = keys
    out["payload"] = payloads
    return out


def generate_records(
    start: int, count: int, seed: int = 0, skew: bool = False
) -> np.ndarray:
    """Records ``start .. start+count-1`` of the gensort-style input.

    Keys are the deterministic gensort keys (uniform, or the
    duplicate-heavy Daytona-like distribution with ``skew=True``); the
    payload is the global record index.
    """
    keys = record_keys(start, count, seed=seed, skew=skew)
    payloads = np.arange(start, start + count, dtype=np.uint64)
    return make_records(keys, payloads)


#: Field-free twin of :data:`NATIVE_DTYPE`: ``np.concatenate`` on it is a
#: plain memcpy, on the structured dtype it promotes fields per part.
_PLAIN_DTYPE = np.dtype(f"V{RECORD_BYTES}")


def concat_records(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` for record arrays, without field promotion."""
    return np.concatenate([p.view(_PLAIN_DTYPE) for p in parts]).view(
        NATIVE_DTYPE
    )


def _tie_slots(tied: np.ndarray) -> np.ndarray:
    """The slots in a group that ``tied`` joins (slot i + 1 tied to slot i)."""
    in_group = np.zeros(len(tied) + 1, dtype=bool)
    in_group[1:] = tied
    in_group[:-1] |= tied
    return np.flatnonzero(in_group)


def _packed_order(keys: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of ``keys`` (n >= 2) from one
    in-place sort of ``u64`` words.

    Word i is ``((keys[i] - min) >> shift) << b | i`` with b the bits of
    a position and ``shift`` what the key range needs beyond the other
    64 - b, so the sorted words are the (key prefix, position) order and
    their low b bits, masked in place, are the permutation.  With
    ``shift == 0`` (any key range below 2^(64 - b)) that is exact.
    Otherwise the members of groups of equal prefixes are ordered by this
    same kernel on (group number, the ``shift`` bits the prefix dropped),
    a key at most about b + shift bits wide: exact at the next level for
    n up to 2^21, narrower at every level for any n below 2^32.
    """
    n = len(keys)
    b = (n - 1).bit_length()
    lo = keys.min()
    shift = max(0, int(keys.max() - lo).bit_length() - (64 - b))
    words = np.subtract(keys, lo, dtype=np.uint64)
    if shift:
        words >>= np.uint64(shift)
    words <<= np.uint64(b)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    low_bits = np.uint64((1 << b) - 1)
    tied = None
    if shift:
        # Neighbours share a prefix iff their words differ in the low bits only.
        tied = np.bitwise_xor(words[1:], words[:-1]) <= low_bits
    words &= low_bits
    order = words.view(np.int64)
    if tied is not None and tied.any():
        slots = _tie_slots(tied)
        members = order[slots]
        # Groups come in prefix order and members ascend in position
        # inside each, so the stable order of their (group, dropped bits)
        # keys is the (key, position) order.
        first = np.ones(len(slots), dtype=bool)
        first[1:] = ~tied[slots[1:] - 1]
        sub = np.subtract(keys[members], lo, dtype=np.uint64)
        sub &= np.uint64((1 << shift) - 1)
        sub |= np.cumsum(first, dtype=np.uint64) << np.uint64(shift)
        order[slots] = members[_packed_order(sub)]
    return order


def sort_records(records: np.ndarray) -> np.ndarray:
    """Sort records by key, stable in input position (ties keep order).

    Always returns a fresh array.  Sorted input is only copied; anything
    else is gathered once along the order :func:`_packed_order` reads
    off one SIMD sort of (key prefix | position) words, and a second one
    over the records whose prefixes tie, if any do.
    """
    keys = records["key"]
    if len(keys) < 2 or bool(np.all(keys[:-1] <= keys[1:])):
        return records.copy()
    # The helper's temporaries die with its frames, before the gather
    # allocates the output: they never add to the sort's peak.
    return np.take(records, _packed_order(keys))


def merge_record_arrays(parts: List[np.ndarray]) -> np.ndarray:
    """Merge key-sorted record arrays into one key-sorted array.

    Stable across parts in list order, which realizes the package's
    canonical (key, sequence, position) tie-breaking when the caller
    passes parts in sequence order.  Like
    :func:`repro.records.arrays.merge_sorted_arrays` this is implemented
    as concatenate + stable sort (the paper explicitly allows replacing
    batch merging by sorting of batches).  Two parts take the stable
    argsort, whose timsort merges two runs in one galloping pass; three
    or more take the packed-word order of :func:`sort_records`, which
    there is faster than timsort's cascade of run merges (EXPERIMENTS.md,
    "Packed-word sort kernel").
    """
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty(0, dtype=NATIVE_DTYPE)
    if len(parts) == 1:
        # A read-only view, not the caller's array: downstream code is
        # free to mutate the merge result in place, and on the
        # single-part fast path that used to silently corrupt the
        # caller's buffer.  Mutators now get an explicit ValueError and
        # must copy first.
        view = parts[0].view()
        view.flags.writeable = False
        return view
    out = concat_records(parts)
    keys = out["key"]
    if len(parts) == 2:
        return np.take(out, np.argsort(keys, kind="stable"))
    return np.take(out, _packed_order(keys))


def read_records(path: str, start: int, count: int) -> np.ndarray:
    """Read ``count`` records from ``path`` beginning at record ``start``."""
    with open(path, "rb") as handle:
        handle.seek(start * RECORD_BYTES)
        return np.fromfile(handle, dtype=NATIVE_DTYPE, count=count)


def record_count(path: str) -> int:
    """Number of whole records stored in ``path``."""
    import os

    size = os.path.getsize(path)
    if size % RECORD_BYTES:
        raise ValueError(f"{path}: {size} bytes is not a whole number of records")
    return size // RECORD_BYTES


def records_from_bytes(buf: bytes) -> np.ndarray:
    """View a raw byte chunk (as sent over a pipe) as a record array."""
    if len(buf) % RECORD_BYTES:
        raise ValueError(f"{len(buf)} bytes is not a whole number of records")
    return np.frombuffer(buf, dtype=NATIVE_DTYPE)


def bytes_view(records: np.ndarray) -> memoryview:
    """Zero-copy byte view of a contiguous record array.

    The inverse of :func:`records_from_bytes`: the hot path hands chunks
    to the interconnect as views of the record arrays they were sliced
    from (``len()`` of the view is the byte length), so a transport with
    buffer support — shm rings, TCP gather-writes — never materializes an
    intermediate ``bytes``.  A non-contiguous input is first compacted
    (the one place the copy is unavoidable).
    """
    if not records.flags["C_CONTIGUOUS"]:
        records = np.ascontiguousarray(records)
    return records.view(np.uint8).data


def keys_of(records: np.ndarray) -> np.ndarray:
    """The key column of a record array (same dtype as the simulator keys)."""
    return records["key"].astype(KEY_DTYPE, copy=False)


# ---------------------------------------------------------------------------
# Variable-length (string) records
#
# Layout of one record, little-endian::
#
#     u32 key_len | key bytes (key_len) | u64 payload
#
# Keys are arbitrary NUL-free byte strings (empty allowed); ordering is
# plain byte-lexicographic, which for NUL-free keys coincides with the
# order of their big-endian zero-padded integer embedding (``embed_key``)
# — that is what lets the existing exact-rank multiway selection kernel,
# which compares integer probe replies, rank strings without change.
# The payload stays a u64 record index so the conformance permutation
# and round-trip checks carry over unchanged.
#
# In memory a batch also holds its keys as one *column*: a NUL-padded
# fixed-width ``np.dtype(f"S{w}")`` array, w = max key length + 1.  The
# same NUL-freeness makes numpy's order on that column the byte order of
# the keys, so sorting, merging, cutting and LCP coding a batch are
# whole-column numpy operations, never loops over Python ``bytes``.
# ---------------------------------------------------------------------------

#: Bytes of the per-record length prefix (u32 key length).
VARLEN_HEADER_BYTES = 4

#: Bytes of the per-record payload (u64 record index).
VARLEN_PAYLOAD_BYTES = 8

#: Bytes a record adds to its key.
_RECORD_OVERHEAD = VARLEN_HEADER_BYTES + VARLEN_PAYLOAD_BYTES

_U64_MASK = (1 << 64) - 1

_U32 = struct.Struct("<I")

#: Bytes of rows one step of the column build and of ``take`` handles:
#: their gathers and masks stay this small however large the batch.
_BLOCK_BYTES = 1 << 16


def _prefix_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` bools: row i is True in its first ``lengths[i]`` columns.

    Row i is the ``width``-byte window at ``width - lengths[i]`` of
    ``width`` ones followed by ``width`` zeros: a row gather, several
    times cheaper than comparing every cell against ``lengths``.
    """
    ones_then_zeros = np.repeat(np.array([1, 0], dtype=np.uint8), width)
    return _windows(ones_then_zeros, width)[width - lengths].view(bool)


def _suffix_mask(lcp: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` bools: row i is True in columns ``lcp[i] .. lengths[i]-1``."""
    mask = _prefix_mask(lengths, width)
    mask &= ~_prefix_mask(lcp, width)
    return mask


def _row_blocks(n: int, width: int) -> Iterable[Tuple[int, int]]:
    """``(lo, hi)`` row ranges of about :data:`_BLOCK_BYTES` each."""
    step = max(1, _BLOCK_BYTES // max(1, width))
    return ((lo, min(n, lo + step)) for lo in range(0, n, step))


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte window of the contiguous ``data`` as one view:
    row i is ``data[i : i + width]``, and writes go through to ``data``."""
    return np.ndarray((data.nbytes - width + 1, width), dtype=np.uint8,
                      buffer=data, strides=(1, 1))


def _rows(data: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """``data[s : s + width]`` for every ``s`` in ``starts`` as one
    ``(n, width)`` gather; bytes past the end of ``data`` read as NUL."""
    n = len(starts)
    if not n:
        return np.zeros((0, width), dtype=np.uint8)
    over = starts > data.nbytes - width
    if not over.any():
        return _windows(data, width)[starts]
    # Windows that run past the end (the last few records) come from a
    # NUL-padded copy of the data's tail, less than two rows long.
    base = int(starts[over].min())
    tail = np.zeros(data.nbytes - base + width, dtype=np.uint8)
    tail[: data.nbytes - base] = data[base:]
    rows = np.empty((n, width), dtype=np.uint8)
    if not over.all():
        rows[~over] = _windows(data, width)[starts[~over]]
    rows[over] = _windows(tail, width)[starts[over] - base]
    return rows


def _key_column(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The NUL-padded ``S{w}`` key column of the records in ``data``."""
    lengths = np.diff(offsets) - _RECORD_OVERHEAD
    width = int(lengths.max()) + 1 if len(lengths) else 1
    starts = offsets[:-1] + VARLEN_HEADER_BYTES
    column = np.empty((len(lengths), width), dtype=np.uint8)
    for lo, hi in _row_blocks(len(lengths), width):
        rows = _rows(data, starts[lo:hi], width)
        np.multiply(rows, _prefix_mask(lengths[lo:hi], width), out=column[lo:hi])
    return column.view(f"S{width}").ravel()


def _joined_keys(keys: Sequence[bytes]) -> bytes:
    """All keys back to back, after checking they are NUL-free bytes."""
    try:
        joined = b"".join(keys)
    except TypeError:
        bad = next(k for k in keys if not isinstance(k, (bytes, bytearray)))
        raise TypeError(
            f"string keys must be bytes, got {type(bad).__name__}"
        ) from None
    if b"\x00" in joined:
        raise ValueError("string keys must be NUL-free (ordering embedding)")
    return joined


def _assemble(
    keys: np.ndarray, lengths: np.ndarray, payloads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Records from the concatenated key bytes, the key lengths and the
    payloads: ``(data, offsets)``.  Headers and payloads are placed with
    one fixed-width scatter each, the key bytes with one masked copy."""
    n = len(lengths)
    if len(payloads) != n:
        raise ValueError(f"{n} keys vs {len(payloads)} payloads")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths + _RECORD_OVERHEAD, out=offsets[1:])
    data = np.empty(int(offsets[-1]), dtype=np.uint8)
    if n:
        is_key = np.ones(len(data), dtype=bool)
        for width, at, values in (
            (VARLEN_HEADER_BYTES, offsets[:-1], lengths.astype("<u4")),
            (VARLEN_PAYLOAD_BYTES, offsets[1:] - VARLEN_PAYLOAD_BYTES,
             payloads.astype("<u8")),
        ):
            _windows(data, width)[at] = values.view(np.uint8).reshape(n, width)
            _windows(is_key.view(np.uint8), width)[at] = 0
        data[is_key] = keys
    return data, offsets


class VarlenBatch:
    """A contiguous batch of length-prefixed variable records.

    Backed by one ``uint8`` data array plus an ``int64`` offset array of
    ``n + 1`` record-boundary byte offsets (``offsets[0] == 0``,
    ``offsets[-1] == data.nbytes``) — the varlen analogue of a
    structured record array.  ``bytes_view`` stays zero-copy, and
    ``slice`` is a view of the data (only the small offset vector is
    rebased), so the exchange hot path keeps the no-intermediate-copy
    property of the fixed model.

    ``column`` is the NUL-padded ``S{w}`` key column: one vectorised
    gather builds it the first time a kernel asks, and ``slice``,
    ``take``, ``concat`` and the merge carry it along instead of
    building it again.  It costs n·w bytes beside the data.
    """

    __slots__ = ("data", "offsets", "_mv", "_column")

    def __init__(
        self,
        data: np.ndarray,
        offsets: np.ndarray,
        column: Optional[np.ndarray] = None,
    ):
        data = np.asarray(data, dtype=np.uint8)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D with offsets[0] == 0")
        if len(offsets) > 1 and bool(np.any(np.diff(offsets) < _RECORD_OVERHEAD)):
            raise ValueError(
                f"offsets must step by at least {_RECORD_OVERHEAD} bytes"
            )
        if int(offsets[-1]) != data.nbytes:
            raise ValueError(
                f"offsets end at {int(offsets[-1])} but data holds "
                f"{data.nbytes} bytes"
            )
        self.data = data
        self.offsets = offsets
        self._mv = memoryview(np.ascontiguousarray(data)).cast("B")
        self._column = column

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, keys: Sequence[bytes], payloads: Iterable[int]
    ) -> "VarlenBatch":
        """Encode parallel key/payload sequences into a batch."""
        lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        key_bytes = np.frombuffer(_joined_keys(keys), dtype=np.uint8)
        if not isinstance(payloads, np.ndarray):
            payloads = np.fromiter(payloads, dtype=np.uint64, count=len(lengths))
        return cls(*_assemble(key_bytes, lengths, payloads))

    @classmethod
    def empty(cls) -> "VarlenBatch":
        return cls(np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64),
                   np.empty(0, dtype="S1"))

    @classmethod
    def concat(cls, parts: Sequence["VarlenBatch"]) -> "VarlenBatch":
        """Concatenate batches in list order (no reordering)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        data = np.concatenate([p.data for p in parts])
        sizes = np.concatenate([np.diff(p.offsets) for p in parts])
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        column = None
        if all(p._column is not None for p in parts):
            # Widths may differ: numpy pads the narrower parts with NUL.
            column = np.concatenate([p._column for p in parts])
        return cls(data, offsets, column)

    @classmethod
    def from_bytes(cls, buf) -> "VarlenBatch":
        """Parse a raw byte chunk by walking the length prefixes."""
        mv = memoryview(buf).cast("B")
        end = len(mv)
        offsets = [0]
        off = 0
        unpack = _U32.unpack_from
        try:
            while off < end:
                off += _RECORD_OVERHEAD + unpack(mv, off)[0]
                offsets.append(off)
        except struct.error:
            raise ValueError(
                f"truncated varlen record header at byte {off}/{end}"
            ) from None
        if off != end:
            raise ValueError(
                f"truncated varlen record at byte {offsets[-2]}/{end}"
            )
        data = np.frombuffer(mv, dtype=np.uint8)
        return cls(data, np.asarray(offsets, dtype=np.int64))

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def nbytes(self) -> int:
        return int(self.offsets[-1])

    def bytes_view(self) -> memoryview:
        """Zero-copy byte view of the whole batch (wire/disk form)."""
        return self._mv[: self.nbytes]

    @property
    def column(self) -> np.ndarray:
        """The NUL-padded ``S{w}`` key column (built on first use)."""
        if self._column is None:
            self._column = _key_column(self.data, self.offsets)
        return self._column

    @property
    def lengths(self) -> np.ndarray:
        """The key lengths, ``int64``."""
        return np.diff(self.offsets) - _RECORD_OVERHEAD

    def key_at(self, i: int) -> bytes:
        return bytes(self.column[i])

    def keys(self) -> List[bytes]:
        """All keys as Python ``bytes`` (for tests, oracles and
        :func:`string_checksum`; no phase calls it).  Without a column in
        place this decodes a block of rows at a time and keeps none of
        them."""
        if self._column is not None:
            return self._column.tolist()
        step = max(1, _BLOCK_BYTES // (self.max_key_len() + 1))
        keys: List[bytes] = []
        for lo in range(0, len(self), step):
            keys += _key_column(self.data, self.offsets[lo : lo + step + 1]).tolist()
        return keys

    def payloads(self) -> np.ndarray:
        """The ``u64`` payload column."""
        ends = self.offsets[1:] - VARLEN_PAYLOAD_BYTES
        return _rows(self.data, ends, VARLEN_PAYLOAD_BYTES).view("<u8").ravel()

    def max_key_len(self) -> int:
        return int(self.lengths.max()) if len(self) else 0

    # -- slicing / reordering ---------------------------------------------

    def slice(self, start: int, stop: int) -> "VarlenBatch":
        """Records ``start .. stop-1`` as a zero-copy view of the data."""
        n = len(self)
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        lo = int(self.offsets[start])
        hi = int(self.offsets[stop])
        column = None if self._column is None else self._column[start:stop]
        return VarlenBatch(
            self.data[lo:hi], self.offsets[start : stop + 1] - lo, column
        )

    def take(self, order: Sequence[int]) -> "VarlenBatch":
        """A new batch with records permuted into ``order``: every record
        gathered as a row as wide as the widest, masked to its size."""
        order = np.asarray(order, dtype=np.intp)
        sizes = np.diff(self.offsets)[order]
        starts = self.offsets[:-1][order]
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        data = np.empty(int(offsets[-1]), dtype=np.uint8)
        width = int(sizes.max()) if len(order) else 0
        for lo, hi in _row_blocks(len(order), width):
            rows = _rows(self.data, starts[lo:hi], width)
            data[offsets[lo] : offsets[hi]] = rows[
                _prefix_mask(sizes[lo:hi], width)
            ]
        column = None if self._column is None else self._column[order]
        return VarlenBatch(data, offsets, column)

    def sort(self) -> "VarlenBatch":
        """Byte-lexicographic key sort, stable in input position: one
        stable argsort of the key column and one gather."""
        return self.take(np.argsort(self.column, kind="stable"))


def make_varlen_batch(
    keys: Sequence[bytes], payloads: Iterable[int]
) -> VarlenBatch:
    """Assemble a varlen batch from key/payload columns (cf. make_records)."""
    return VarlenBatch.build(keys, payloads)


def varlen_from_bytes(buf) -> VarlenBatch:
    """Parse a raw byte chunk into a batch (cf. records_from_bytes)."""
    return VarlenBatch.from_bytes(buf)


def merge_varlen_batches(parts: List[VarlenBatch]) -> VarlenBatch:
    """Merge key-sorted varlen batches, stable across parts in list order.

    Same concatenate-then-stable-sort strategy (and the same canonical
    (key, sequence, position) tie-break realization) as
    :func:`merge_record_arrays`, on the concatenated key column.
    """
    parts = [p for p in parts if len(p)]
    if len(parts) == 1:
        return parts[0]
    return VarlenBatch.concat(parts).sort()


# -- integer embedding for the selection kernel -----------------------------


def embed_key(key: bytes, width: int) -> int:
    """Embed a NUL-free key into an int preserving lexicographic order.

    Right-pads with NUL to ``width`` bytes and reads big-endian, so for
    any two NUL-free keys shorter than ``width``,
    ``embed_key(a) < embed_key(b)`` iff ``a < b``.  ``width`` must
    exceed every key length in play (agreed globally via allreduce) —
    the pad byte sorts strictly below any real key byte, which is why
    keys must be NUL-free.
    """
    if len(key) >= width:
        raise ValueError(f"key of {len(key)} bytes needs width > {len(key)}")
    return int.from_bytes(key.ljust(width, b"\x00"), "big")


def unembed_key(value: int, width: int) -> bytes:
    """Invert :func:`embed_key` (diagnostics only)."""
    return value.to_bytes(width, "big").rstrip(b"\x00")


# -- LCP front coding -------------------------------------------------------
#
# The communication-efficient string sorting trick (Bingmann, Sanders,
# Schimek): a key sequence with high adjacent common prefixes — sorted
# samples, splitters, sorted record chunks — is sent as (lcp-with-
# previous, suffix) pairs.  The saved byte counts feed the wire-volume
# stats so ``raw == wire_payload + trimmed`` stays provable.
#
# The wire is columnar, one section per field::
#
#     u32 n | n x (u32 lcp, u32 suffix_len) | suffix bytes | n x u64 payload
#
# (record batches only carry the payload section).  Encoding compares
# adjacent rows of the key column; decoding drops the suffixes into a
# zeroed column and copies every key's shared prefix down from the row
# above, one column at a time.


def _lcp_encode(
    column: np.ndarray,
    lengths: np.ndarray,
    payloads: Optional[np.ndarray] = None,
) -> Tuple[bytes, int]:
    n, width = len(column), column.dtype.itemsize
    rows = np.ascontiguousarray(column).view(np.uint8).reshape(n, width)
    lcp = np.zeros(n, dtype=np.int64)
    if n > 1:
        # The first byte where each key differs from its predecessor; a
        # pair without one is two equal keys, sharing their whole length.
        differs = rows[1:] != rows[:-1]
        first = differs.argmax(axis=1)
        lcp[1:] = np.where(
            differs[np.arange(n - 1), first], first, lengths[1:]
        )
    suffixes = rows[_suffix_mask(lcp, lengths, width)]
    pairs = np.empty((n, 2), dtype="<u4")
    pairs[:, 0] = lcp
    pairs[:, 1] = lengths - lcp
    sections = [_U32.pack(n), pairs, suffixes]
    if payloads is not None:
        sections.append(payloads.astype("<u8"))
    return b"".join(sections), int(lcp.sum())


def _lcp_decode(buf, with_payloads: bool):
    """Check and decode a front-coded sequence: ``(rows, lengths,
    payloads)``, the keys as a NUL-padded ``(n, w)`` byte matrix.

    Malformed input raises ``ValueError``: sections that do not add up
    to the buffer, trailing bytes, a NUL key byte, or an lcp longer than
    the previous key (or non-zero on the first) — it never decodes to a
    silently shortened key.
    """
    mv = memoryview(buf).cast("B")
    size = len(mv)
    if size < 4:
        raise ValueError(f"lcp block of {size} bytes has no record count")
    (n,) = _U32.unpack_from(mv, 0)
    head = 4 + 8 * n
    if head > size:
        raise ValueError(
            f"lcp block: {n} (lcp, suffix) pairs need {head} bytes, "
            f"the buffer holds {size}"
        )
    pairs = np.frombuffer(mv, dtype="<u4", count=2 * n, offset=4)
    pairs = pairs.reshape(n, 2).astype(np.int64)
    lcp = pairs[:, 0]
    lengths = lcp + pairs[:, 1]
    n_suffix = int(pairs[:, 1].sum())
    end = head + n_suffix + (VARLEN_PAYLOAD_BYTES * n if with_payloads else 0)
    if end > size:
        raise ValueError(
            f"lcp block: its sections need {end} bytes, the buffer holds {size}"
        )
    if end < size:
        raise ValueError(f"lcp block: {size - end} trailing bytes")
    if n and lcp[0]:
        raise ValueError(f"lcp block: the first key has lcp {int(lcp[0])}")
    bad = np.flatnonzero(lcp[1:] > lengths[:-1])
    if len(bad):
        i = int(bad[0]) + 1
        raise ValueError(
            f"lcp block: lcp {int(lcp[i])} of key {i} exceeds the previous "
            f"key's {int(lengths[i - 1])} bytes"
        )
    suffixes = np.frombuffer(mv, dtype=np.uint8, count=n_suffix, offset=head)
    if np.count_nonzero(suffixes) != n_suffix:
        raise ValueError("lcp block: NUL byte in a key")
    width = int(lengths.max()) + 1 if n else 1
    rows = np.zeros((n, width), dtype=np.uint8)
    rows[_suffix_mask(lcp, lengths, width)] = suffixes
    # Column j: a key with lcp > j holds the byte of the key above it.  A
    # run of such keys copies from the row just before the run, which
    # holds byte j itself; the runs shrink as j grows.
    inherit = np.flatnonzero(lcp)
    j = 0
    while len(inherit):
        run_start = np.diff(inherit, prepend=-2) != 1
        source = np.maximum.accumulate(np.where(run_start, inherit - 1, 0))
        rows[inherit, j] = rows[source, j]
        j += 1
        inherit = inherit[lcp[inherit] > j]
    payloads = None
    if with_payloads:
        payloads = np.frombuffer(
            mv, dtype="<u8", count=n, offset=head + n_suffix
        )
    return rows, lengths, payloads


def lcp_encode_keys(keys) -> Tuple[bytes, int]:
    """Front-code a key sequence (``bytes`` keys or a key column).

    Returns ``(wire, saved_bytes)``; ``len(wire) == 4 + 8 * n + raw -
    saved_bytes`` for ``n`` keys of ``raw`` bytes in all.
    """
    if not isinstance(keys, np.ndarray):
        keys = list(keys)
        _joined_keys(keys)
        keys = np.array(keys, dtype=f"S{max(map(len, keys), default=0) + 1}")
    return _lcp_encode(keys, np.char.str_len(keys).astype(np.int64))


def lcp_decode_keys(buf) -> List[bytes]:
    """Decode :func:`lcp_encode_keys` output; malformed input raises."""
    rows, _lengths, _payloads = _lcp_decode(buf, with_payloads=False)
    return rows.view(f"S{rows.shape[1]}").ravel().tolist()


def lcp_encode_batch(batch: VarlenBatch) -> Tuple[bytes, int]:
    """Front-code a (key-sorted) record batch for the wire.

    Returns ``(wire, saved_bytes)`` where ``saved_bytes`` is the total
    of trimmed prefix bytes; the wire carries every field of the batch
    except the ``u32`` key lengths, for which it has ``u32 lcp | u32
    suffix_len`` pairs, plus a ``u32`` record count, so
    ``len(wire) == 4 + batch.nbytes + 4 * len(batch) - saved_bytes``.
    """
    return _lcp_encode(batch.column, batch.lengths, batch.payloads())


def lcp_decode_batch(buf) -> VarlenBatch:
    """Decode :func:`lcp_encode_batch` output (with its key column).

    Malformed input raises ``ValueError``.
    """
    rows, lengths, payloads = _lcp_decode(buf, with_payloads=True)
    width = rows.shape[1]
    data, offsets = _assemble(
        rows[_prefix_mask(lengths, width)], lengths, payloads
    )
    return VarlenBatch(data, offsets, rows.view(f"S{width}").ravel())


# -- string workload + checksum ---------------------------------------------


def string_key_from_u64(value: int) -> bytes:
    """Deterministic order-preserving map from a u64 key to a string key.

    The 16-digit hex prefix alone preserves the u64 order, so the whole
    map does; the variable tail (0-22 ``k`` repeats keyed off the value)
    gives the corpus genuine length diversity and long shared prefixes —
    exactly the regime LCP compression targets.  Equal inputs map to
    equal keys, so duplicate-heavy corpus entries stay duplicate-heavy.
    """
    value = int(value) & _U64_MASK
    return f"{value:016x}".encode("ascii") + b"." + b"k" * (value % 23)


#: 26 ** 14 > 2 ** 64: fourteen lowercase base-26 digits cover the key space.
_B26_WIDTH = 14


def _base26(value: int) -> bytes:
    digits = bytearray(_B26_WIDTH)
    for i in range(_B26_WIDTH - 1, -1, -1):
        digits[i] = 0x61 + value % 26
        value //= 26
    return bytes(digits)


def url_key_from_u64(value: int) -> bytes:
    """URL-corpus family: the u64 key as an ``https://`` address.

    The host and path carry the key as fixed-width base-26 digits with
    the separators at fixed offsets, so byte order equals u64 order; the
    variable ``?p=`` query tail only ever follows a fully discriminating
    prefix.  The long shared scheme+domain prefix is the classic
    real-world regime for front coding (every web-crawl key set starts
    with a handful of schemes and a heavy-hitter set of hosts).
    """
    value = int(value) & _U64_MASK
    digits = _base26(value)
    return (
        b"https://"
        + digits[:7]
        + b".example.com/"
        + digits[7:]
        + b"?p="
        + b"x" * (value % 19)
    )


#: Severity token for a log line; any deterministic pick keeps the map
#: duplicate-preserving, and variety makes the tails realistic.
_LOG_LEVELS = (b"DEBUG", b"INFO", b"WARN", b"ERROR")


def logline_key_from_u64(value: int) -> bytes:
    """Log-corpus family: the u64 key as a timestamped log line.

    The key becomes a fixed-width decimal ``seconds.micros`` timestamp
    (zero padding preserves numeric order bytewise), followed by a
    deterministic severity + message tail.  Sorting by line is sorting
    by time — the canonical log-merge workload — and nearby timestamps
    share long digit prefixes for the LCP coder to trim.
    """
    value = int(value) & _U64_MASK
    stamp = b"%014d.%06dZ" % (value // 10**6, value % 10**6)
    level = _LOG_LEVELS[value % 4]
    return stamp + b" " + level + b" worker=/job/" + b"r" * (value % 11)


#: The conformance-corpus string families: one synthetic map plus two
#: real-workload shapes.  Every family is an order- and duplicate-
#: preserving u64-to-bytes embedding, so any corpus key distribution
#: can be replayed under any family against the decoded sorted() oracle.
STRING_FAMILIES: Dict[str, Callable[[int], bytes]] = {
    "hex": string_key_from_u64,
    "url": url_key_from_u64,
    "log": logline_key_from_u64,
}


def resolve_string_family(name: str) -> Callable[[int], bytes]:
    """The key map for a string family, or ValueError for unknown names."""
    try:
        return STRING_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown string family {name!r}; choose from "
            f"{sorted(STRING_FAMILIES)}"
        ) from None


def generate_string_batch(
    start: int, count: int, seed: int = 0, skew: bool = False
) -> VarlenBatch:
    """String records ``start .. start+count-1`` (cf. generate_records)."""
    u64_keys = record_keys(start, count, seed=seed, skew=skew)
    keys = [string_key_from_u64(v) for v in u64_keys]
    payloads = np.arange(start, start + count, dtype=np.uint64)
    return VarlenBatch.build(keys, payloads)


def string_checksum(batch: VarlenBatch, acc: int = 0) -> int:
    """Order-independent checksum over (key, payload) pairs, mod 2^64.

    The varlen analogue of the gensort input checksum: summable across
    batches and workers in any order, so the merge phase can prove the
    output multiset equals the input multiset without a global gather.
    Each record adds ``crc32(key) * 0x9E3779B1 + payload + 1``; the sum
    is one ``u64`` reduction.
    """
    return _checksum(batch.keys(), batch.payloads(), acc)


def _checksum(keys: List[bytes], payloads: np.ndarray, acc: int) -> int:
    """:func:`string_checksum` of the records with these keys and payloads."""
    if not keys:
        return acc
    crcs = np.fromiter(map(zlib.crc32, keys), dtype=np.uint64, count=len(keys))
    with np.errstate(over="ignore"):
        terms = crcs * np.uint64(0x9E3779B1) + payloads + np.uint64(1)
        return (acc + int(np.add.reduce(terms, dtype=np.uint64))) & _U64_MASK


# -- varlen files -----------------------------------------------------------


def varlen_index_path(path: str) -> str:
    """Sidecar path holding the int64 record-boundary offsets."""
    return path + ".idx"


def write_varlen_file(path: str, batch: VarlenBatch) -> None:
    """Write a batch as ``path`` (raw records) + ``path.idx`` (boundaries)."""
    with open(path, "wb") as handle:
        handle.write(batch.bytes_view())
    with open(varlen_index_path(path), "wb") as handle:
        np.ascontiguousarray(batch.offsets, dtype=np.int64).tofile(handle)


def read_varlen_file(path: str) -> VarlenBatch:
    """Read a batch written by :func:`write_varlen_file`."""
    with open(path, "rb") as handle:
        data = np.fromfile(handle, dtype=np.uint8)
    offsets = np.fromfile(varlen_index_path(path), dtype=np.int64)
    return VarlenBatch(data, offsets)


def read_varlen_records(
    path: str, start: int, count: int, offsets: np.ndarray
) -> VarlenBatch:
    """Read ``count`` varlen records at record ``start``, no accounting.

    ``offsets`` are the file's record boundaries (cf. :func:`read_records`).
    """
    lo, hi = int(offsets[start]), int(offsets[start + count])
    with open(path, "rb") as handle:
        handle.seek(lo)
        data = np.fromfile(handle, dtype=np.uint8, count=hi - lo)
    return VarlenBatch(data, offsets[start : start + count + 1] - lo)


def _count_lcp(stats, phase: str, raw: int, wire: int, overhead: int,
               trimmed: int) -> None:
    """Accumulate the provable LCP volume identity of one wire chunk::

        <phase>_wire_bytes == <phase>_raw_bytes + <phase>_overhead_bytes
                              - <phase>_trimmed_bytes
    """
    if stats is None:
        return
    stats.add_counter(f"{phase}_raw_bytes", float(raw))
    stats.add_counter(f"{phase}_wire_bytes", float(wire))
    stats.add_counter(f"{phase}_overhead_bytes", float(overhead))
    stats.add_counter(f"{phase}_trimmed_bytes", float(trimmed))


# -- the record models -------------------------------------------------------


class RecordModel:
    """Everything the phase pipeline needs to know about a record format.

    :mod:`repro.native.phases` is written once against this interface and
    never asks which model it runs; where the formats truly differ, the
    difference lives in a method here.  A *part* is an in-memory batch of
    the model's records — a :data:`NATIVE_DTYPE` array for fixed16, a
    :class:`VarlenBatch` for strings; both have ``len()`` and ``nbytes``.
    Keys surface as Python ``int`` (fixed16) or ``bytes`` (strings), so
    guides, cuts and output metadata compare them without knowing which.

    The interface, by concern:

    * parts — ``generate``, ``sort``, ``concat``, ``merge`` (stable in
      list order), ``slice``, ``copy``, ``keys``, ``key_at``,
      ``first_keys``, ``cut`` (a buffer at a key, ``side`` as in
      ``searchsorted``), ``is_sorted``, ``checksum``, ``max_key_bytes``,
      ``footprint`` (the bytes a part holds in memory, for the resident
      accounting: its records, plus the key column for strings);
    * files (through a :class:`~repro.native.blockstore.FileBlockStore`) —
      ``read_blocks``, ``read_range``, ``fetch`` (uncharged, for reader
      threads), ``write_file``, ``appender``, ``range_nbytes`` (the byte
      size of a record range), ``probe_cache``;
    * wire — ``encode``/``decode`` a chunk, ``encode_keys``/``decode_keys``
      a sorted key sequence, ``bytes_view`` of a part as written;
    * selection — ``sample_start`` and ``run_sample_start`` (the Appendix
      B warm starts), ``local_probe`` and ``probe_key`` (a key as the
      integer the shared selection kernel compares; ``local_probe`` takes
      the widest key of all ranks' parts, ``max_key_bytes``);
    * all-to-all slabs — ``slab_byte_bases``, and ``slab_index`` /
      ``note_arrival`` / ``seal_slab`` for a slab's record boundaries.

    ``name`` is the job-spec / CLI token; ``varlen`` says whether files
    carry an ``.idx`` record-boundary sidecar (job validation reads it,
    the phases do not); ``nominal_bytes`` is the per-record figure used
    for *sizing* (memory budgets, block sizing, records-per-worker) — for
    the string model it is the same 16 bytes, so a given ``--data-mib``
    sorts the same record count under either model and sizing-sensitive
    invariants stay comparable.
    """

    name: str = "abstract"
    varlen: bool = False
    nominal_bytes: int = RECORD_BYTES

    def read_output(self, path: str):
        raise NotImplementedError

    def output_keys(self, path: str):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RecordModel {self.name}>"


class Fixed16Model(RecordModel):
    """The paper's fixed 16-byte (u64 key, u64 payload) element.

    Constant stride: a record's byte offset is 16 x its position, so
    files need no index, a chunk crosses the wire as its raw bytes, and
    slab byte offsets follow from the splitters alone.
    """

    name = "fixed16"
    varlen = False

    def read_output(self, path: str) -> np.ndarray:
        return np.fromfile(path, dtype=NATIVE_DTYPE)

    def output_keys(self, path: str) -> np.ndarray:
        return keys_of(self.read_output(path))

    # -- parts
    def generate(self, start, count, seed, skew):
        return generate_records(start, count, seed=seed, skew=skew)

    def sort(self, part):
        return sort_records(part)

    def concat(self, parts):
        return parts[0] if len(parts) == 1 else concat_records(parts)

    def merge(self, parts):
        return merge_record_arrays(parts)

    def slice(self, part, lo, hi):
        return part[lo:hi]

    def copy(self, part):
        return part.copy()

    def keys(self, part):
        return part["key"]

    def key_at(self, part, i) -> int:
        return int(part["key"][i])

    def first_keys(self, part, every) -> List[int]:
        return part["key"][::every].tolist()

    def cut(self, part, key, side, lo=0) -> int:
        return lo + int(np.searchsorted(part["key"][lo:], key, side=side))

    def is_sorted(self, part) -> bool:
        keys = part["key"]
        return bool(np.all(keys[:-1] <= keys[1:]))

    def checksum(self, part, acc=0) -> int:
        """The gensort input checksum: the key sum mod 2^64."""
        if not len(part):
            return acc
        with np.errstate(over="ignore"):
            return (acc + int(np.add.reduce(part["key"]))) & _U64_MASK

    def max_key_bytes(self, part) -> int:
        return np.dtype(KEY_DTYPE).itemsize

    def footprint(self, part) -> int:
        return part.nbytes

    # -- files
    def read_blocks(self, store, path, block_ids, tag):
        return store.read_blocks(path, block_ids, tag)

    def read_range(self, store, path, start, count, tag):
        return store.read_range(path, start, count, tag)

    def fetch(self, store, path, start, count, tag):
        return read_records(path, start, count)

    def write_file(self, store, path, part, tag):
        store.write_file(path, part, tag)

    def appender(self, store, path, tag):
        return store.record_appender(path, tag)

    def range_nbytes(self, store, path, lo, hi, tag) -> int:
        return (hi - lo) * RECORD_BYTES

    def probe_cache(self, store, capacity_blocks):
        return store.probe_cache(capacity_blocks)

    # -- wire
    def encode(self, part, stats=None, phase=""):
        return bytes_view(part)

    def decode(self, buf):
        return records_from_bytes(buf)

    def bytes_view(self, part):
        return bytes_view(part)

    def encode_keys(self, keys, stats=None, phase=""):
        return np.ascontiguousarray(keys)

    def decode_keys(self, wire):
        return np.asarray(wire)

    # -- selection
    def sample_start(self, samples, every, target, lengths):
        return sample_initial_positions(samples, every, target, lengths)

    def run_sample_start(self, runs, target, lengths, every):
        return warm_start_from_samples(_run_samples(runs), target, lengths, every)

    def local_probe(self, part, max_key_bytes):
        keys = part["key"]
        return lambda pos: int(keys[pos])

    def probe_key(self, runs):
        return int

    # -- all-to-all slabs
    def slab_byte_bases(self, comm, sizes, rank, slab_base):
        """Per run, where each sender's bytes start in the slab: the
        record offsets times 16 — no agreement round needed."""
        return [[b * RECORD_BYTES for b in bases] for bases in slab_base]

    def slab_index(self, n_records):
        return None

    def note_arrival(self, index, pos, byte_pos, part) -> None:
        pass

    def seal_slab(self, store, path, index, nbytes) -> None:
        pass


class StringModel(RecordModel):
    """Length-prefixed variable records with byte-string keys.

    Files carry an ``.idx`` sidecar of record-boundary byte offsets (a
    slab's is rebuilt in memory as its chunks land); every sorted key
    sequence that crosses the wire — samples, run formation's slices and
    all-to-all chunks — travels LCP front-coded per *Communication-Efficient
    String Sorting* (Bingmann, Sanders, Schimek), with the trimmed bytes counted
    (:func:`_count_lcp`); the shared integer selection kernel compares
    keys through :func:`embed_key` at a globally agreed width.
    """

    name = "string"
    varlen = True

    def read_output(self, path: str) -> VarlenBatch:
        return read_varlen_file(path)

    def output_keys(self, path: str) -> List[bytes]:
        return self.read_output(path).keys()

    # -- parts
    def generate(self, start, count, seed, skew):
        return generate_string_batch(start, count, seed=seed, skew=skew)

    def sort(self, part):
        return part.sort()

    def concat(self, parts):
        return VarlenBatch.concat(parts)

    def merge(self, parts):
        return merge_varlen_batches(parts)

    def slice(self, part, lo, hi):
        return part.slice(lo, hi)

    def copy(self, part):
        column = None if part._column is None else part._column.copy()
        return VarlenBatch(np.array(part.data), part.offsets.copy(), column)

    def keys(self, part):
        return part.column

    def key_at(self, part, i) -> bytes:
        return part.key_at(i)

    def first_keys(self, part, every) -> List[bytes]:
        return part.column[::every].tolist()

    def cut(self, part, key, side, lo=0) -> int:
        return lo + int(np.searchsorted(part.column[lo:], key, side=side))

    def is_sorted(self, part) -> bool:
        column = part.column
        return bool(np.all(column[:-1] <= column[1:]))

    def checksum(self, part, acc=0) -> int:
        """:func:`string_checksum`, hashed off the key column (built here
        if the part has none: the sort that follows needs it anyway)."""
        return _checksum(part.column.tolist(), part.payloads(), acc)

    def max_key_bytes(self, part) -> int:
        return part.max_key_len()

    def footprint(self, part) -> int:
        """The records plus the key column they hold or will hold, n·w
        bytes more (w = max key length + 1)."""
        return part.nbytes + len(part) * (part.max_key_len() + 1)

    # -- files
    def read_blocks(self, store, path, block_ids, tag):
        return store.read_varlen_blocks(path, block_ids, tag)

    def read_range(self, store, path, start, count, tag):
        return store.read_varlen_range(path, start, count, tag)

    def fetch(self, store, path, start, count, tag):
        offsets = store.varlen_offsets(path, tag)
        return read_varlen_records(path, start, count, offsets)

    def write_file(self, store, path, part, tag):
        store.write_varlen_file(path, part, tag)

    def appender(self, store, path, tag):
        return store.varlen_appender(path, tag)

    def range_nbytes(self, store, path, lo, hi, tag) -> int:
        offsets = store.varlen_offsets(path, tag)
        return int(offsets[hi] - offsets[lo])

    def probe_cache(self, store, capacity_blocks):
        return store.varlen_probe_cache(capacity_blocks)

    # -- wire
    def encode(self, part, stats=None, phase=""):
        wire, saved = lcp_encode_batch(part)
        _count_lcp(stats, phase, raw=part.nbytes, wire=len(wire),
                   overhead=4 + 4 * len(part), trimmed=saved)
        return wire

    def decode(self, buf):
        return lcp_decode_batch(buf)

    def bytes_view(self, part):
        return part.bytes_view()

    def encode_keys(self, keys, stats=None, phase=""):
        wire, saved = lcp_encode_keys(keys)
        _count_lcp(stats, phase, raw=sum(map(len, keys)),
                   wire=len(wire), overhead=4 + 8 * len(keys), trimmed=saved)
        return wire

    def decode_keys(self, wire):
        return lcp_decode_keys(wire)

    # -- selection
    def sample_start(self, samples, every, target, lengths):
        """Pure-Python port of ``sample_initial_positions`` for bytes keys.

        ``samples[j][i]`` is the key at position ``i * every`` of
        sequence ``j``; ties sort by (key, sequence, sample index),
        matching the numpy ``lexsort`` of the fixed kernel.
        """
        n_seqs = len(samples)
        total = sum(len(s) for s in samples)
        if total == 0 or target == 0:
            return [0] * n_seqs, every
        triples = sorted(
            (key, j, i) for j, seq in enumerate(samples) for i, key in enumerate(seq)
        )
        counts = [0] * n_seqs
        for _key, j, _i in triples[: min(target // every, total - 1) + 1]:
            counts[j] += 1
        return [
            min(0 if c == 0 else (c - 1) * every, int(lengths[j]))
            for j, c in enumerate(counts)
        ], every

    def run_sample_start(self, runs, target, lengths, every):
        """Pure-Python port of ``warm_start_from_samples`` for bytes keys:
        the runs' (key, run, global position) samples, stitched across
        the rank-ordered pieces."""
        n_runs = len(runs)
        triples = sorted(
            (key, r, i * piece.sample_every + run.offsets[n])
            for r, run in enumerate(runs)
            for n, piece in enumerate(run.pieces)
            for i, key in enumerate(self.decode_keys(piece.sample_keys))
        )
        if target <= 0 or not triples:
            return [0] * n_runs, every
        last: Dict[int, int] = {}
        for _key, r, pos in triples[: min(target // every, len(triples) - 1) + 1]:
            last[r] = pos
        return [min(last.get(r, 0), int(lengths[r])) for r in range(n_runs)], every

    def local_probe(self, part, max_key_bytes):
        column = part.column
        width = max_key_bytes + 1
        return lambda pos: embed_key(column[pos], width)

    def probe_key(self, runs):
        width = 1 + max(
            (p.max_key_bytes for run in runs for p in run.pieces), default=0
        )
        return lambda key: embed_key(key, width)

    # -- all-to-all slabs
    def slab_byte_bases(self, comm, sizes, rank, slab_base):
        """Per run, where each sender's bytes start in the slab.  Byte
        sizes are not implied by record counts, so every sender publishes
        its per-(run, dest) slice sizes in one allgather and each
        receiver prefix-sums its column (own entry skipped)."""
        all_sizes = comm.allgather(sizes)
        bases = []
        for r in range(len(sizes)):
            row, acc = [], 0
            for j, peer_sizes in enumerate(all_sizes):
                row.append(acc)
                if j != rank:
                    acc += peer_sizes[r][rank]
            bases.append(row + [acc])
        return bases

    def slab_index(self, n_records):
        bounds = np.full(n_records + 1, -1, dtype=np.int64)
        bounds[0] = 0
        return bounds

    def note_arrival(self, index, pos, byte_pos, part) -> None:
        index[pos + 1 : pos + 1 + len(part)] = byte_pos + part.offsets[1:]

    def seal_slab(self, store, path, index, nbytes) -> None:
        """Check the rebuilt boundaries cover the slab, then hand them to
        the store: the merge reads the slab through them, no ``.idx``."""
        if (
            bool(np.any(index < 0))
            or int(index[-1]) != nbytes
            or bool(np.any(np.diff(index) < 0))
        ):
            raise AssertionError(
                f"{path}: slab boundary reconstruction incomplete "
                f"({int(index[-1])} of {nbytes} bytes claimed)"
            )
        store.set_varlen_offsets(path, index)


MODELS = {"fixed16": Fixed16Model(), "string": StringModel()}


def resolve_model(name: str) -> RecordModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown record model {name!r} (expected one of "
            f"{', '.join(sorted(MODELS))})"
        ) from None
