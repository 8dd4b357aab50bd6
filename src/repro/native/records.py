"""Native on-disk record format and its numpy kernels.

The native backend moves *real bytes*: records are fixed-size binary
structs, written and read back as raw bytes by the block store
(:mod:`repro.native.blockstore`).  The layout mirrors the paper's 16-byte element
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

import os
import struct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..records.element import ELEM_PAPER_16B, KEY_DTYPE
from ..workloads.gensort import record_keys

__all__ = [
    "NATIVE_DTYPE",
    "RECORD_BYTES",
    "RecordBuffers",
    "make_records",
    "generate_records",
    "sort_records",
    "concat_records",
    "merge_record_arrays",
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
    "lcp_encode_keys",
    "lcp_decode_keys",
    "lcp_encode_batch",
    "lcp_decode_batch",
    "read_varlen_file",
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


class RecordBuffers:
    """A fixed set of fixed16 working buffers, allocated once per job.

    The paper's memory model is one budget M reused run after run, not a
    stream of fresh allocations: every buffer here holds ``capacity``
    records (run formation's M/3 chunk) and is reused by every run and
    every merge round, so steady-state sorting takes no page faults.

    * ``chunk`` — what a read lands in and, once its records are sorted
      out of it, where a merge's parts lie back to back (the exchange's
      landing slots); :func:`merge_record_arrays` concatenates into it;
    * ``sorted`` — a sort's output (the exchange sends views of it);
    * ``piece`` — a merge's output;
    * ``words`` — the packed-word order's ``u64`` words;
    * ``ramp`` — the positions ``0 .. capacity-1`` the words are built
      from, filled once;
    * ``probe`` — a small ``u64`` block the tie scan works through.

    ``RecordBuffers(0)`` is the empty set of a record model whose kernels
    allocate instead (strings).
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.chunk = np.empty(self.capacity, dtype=NATIVE_DTYPE)
        self.sorted = np.empty(self.capacity, dtype=NATIVE_DTYPE)
        self.piece = np.empty(self.capacity, dtype=NATIVE_DTYPE)
        self.words = np.empty(self.capacity, dtype=np.uint64)
        self.ramp = np.arange(self.capacity, dtype=np.uint64)
        self.probe = np.empty(min(self.capacity, _PROBE_WORDS), dtype=np.uint64)

    def _arrays(self) -> List[np.ndarray]:
        return [self.chunk, self.sorted, self.piece, self.words, self.ramp,
                self.probe]

    @property
    def nbytes(self) -> int:
        """Bytes the set holds, counted once however often it is reused."""
        return sum(a.nbytes for a in self._arrays())

    def holds(self, buf) -> bool:
        """Whether ``buf`` (an array or a bytes-like) lies in the set."""
        if not isinstance(buf, np.ndarray):
            try:
                buf = np.frombuffer(buf, dtype=np.uint8)
            except (TypeError, ValueError):
                return False
        return any(np.may_share_memory(a, buf) for a in self._arrays())

    def release(self, part) -> None:
        """Hand the buffer ``part`` lies in to another owner (a
        write-behind thread): the set takes a fresh replacement."""
        for name in ("chunk", "sorted", "piece"):
            if np.may_share_memory(getattr(self, name), part):
                setattr(self, name, np.empty(self.capacity, dtype=NATIVE_DTYPE))


#: Words of :attr:`RecordBuffers.probe`: the tie scan's block.
_PROBE_WORDS = 1 << 15


def _destination(out: np.ndarray, n: int, *inputs) -> np.ndarray:
    """``out[:n]`` after checking ``out`` can take ``n`` records without
    aliasing any of ``inputs``: the one contract of every ``out=``."""
    if out.dtype != NATIVE_DTYPE or out.ndim != 1 or not out.flags.c_contiguous:
        raise ValueError("out must be a contiguous 1-D record array")
    if len(out) < n:
        raise ValueError(f"out holds {len(out)} records, {n} are needed")
    dest = out[:n]
    for x in inputs:
        if np.may_share_memory(dest, x):
            raise ValueError("out overlaps an input")
    return dest


def _fitting(scratch: Optional[RecordBuffers], n: int) -> Optional[RecordBuffers]:
    """``scratch`` if it holds ``n`` records, else None: a kernel handed
    a set too small for its input allocates instead."""
    return scratch if scratch is not None and scratch.capacity >= n else None


def _ascending(keys: np.ndarray, scratch: Optional[RecordBuffers]) -> bool:
    """Whether ``keys`` never descend (the comparisons land in the
    scratch's words, viewed as bools, when there is a scratch)."""
    if scratch is None:
        return bool(np.all(keys[:-1] <= keys[1:]))
    le = np.less_equal(keys[:-1], keys[1:],
                       out=scratch.words.view(bool)[: len(keys) - 1])
    return bool(le.all())


def _prefix_ties(
    words: np.ndarray, low_bits, probe: Optional[np.ndarray]
) -> bool:
    """Whether two neighbours of the sorted ``words`` share a prefix,
    checked a block at a time through ``probe`` (a fresh one if None)."""
    if probe is None:
        probe = np.empty(min(len(words), _PROBE_WORDS), dtype=np.uint64)
    step = len(probe)
    last = len(words) - 1
    for lo in range(0, last, step):
        hi = min(last, lo + step)
        gaps = np.bitwise_xor(words[lo + 1 : hi + 1], words[lo:hi],
                              out=probe[: hi - lo])
        if gaps.min() <= low_bits:
            return True
    return False


def _packed_order(
    keys: np.ndarray,
    scratch: Optional[RecordBuffers] = None,
    stable: bool = False,
) -> np.ndarray:
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

    With a ``scratch`` the words are its ``words`` (the permutation comes
    back as their ``int64`` view) and only prefix ties allocate.
    ``stable`` sorts the words with timsort, which merges presorted runs
    (two merge parts) faster than the default sort does.
    """
    n = len(keys)
    b = (n - 1).bit_length()
    lo = keys.min()
    shift = max(0, int(keys.max() - lo).bit_length() - (64 - b))
    if scratch is None:
        words = np.subtract(keys, lo, dtype=np.uint64)
        ramp = np.arange(n, dtype=np.uint64)
    else:
        words = np.subtract(keys, lo, dtype=np.uint64, out=scratch.words[:n])
        ramp = scratch.ramp[:n]
    if shift:
        words >>= np.uint64(shift)
    words <<= np.uint64(b)
    words |= ramp
    words.sort(kind="stable" if stable else None)
    low_bits = np.uint64((1 << b) - 1)
    tied = None
    if shift and _prefix_ties(
        words, low_bits, None if scratch is None else scratch.probe
    ):
        # Neighbours share a prefix iff their words differ in the low bits only.
        tied = np.bitwise_xor(words[1:], words[:-1]) <= low_bits
    words &= low_bits
    order = words.view(np.int64)
    if tied is not None:
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


def _gather(records, order, out):
    """``records[order]``, into ``out`` when given.  ``mode="clip"``:
    the default ``"raise"`` buffers the whole output internally."""
    if out is None:
        return np.take(records, order)
    return np.take(records, order, out=out, mode="clip")


def sort_records(
    records: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[RecordBuffers] = None,
    before_write: Optional[Callable[[], None]] = None,
) -> np.ndarray:
    """Sort records by key, stable in input position (ties keep order).

    Returns a fresh array, or ``out[:n]`` when ``out`` is given (it must
    hold n records and not overlap ``records``; ``ValueError``
    otherwise).  Sorted input is only copied; anything else is gathered
    once along the order :func:`_packed_order` reads off one SIMD sort of
    (key prefix | position) words — the ``scratch``'s, when given and
    large enough — and a second one over the records whose prefixes tie,
    if any do.  ``before_write`` is called once the order is known, just
    before ``out`` is first written: run formation waits there for the
    sends still reading it.
    """
    keys = records["key"]
    scratch = _fitting(scratch, len(keys))
    dest = None if out is None else _destination(out, len(keys), records)
    order = None
    if len(keys) >= 2 and not _ascending(keys, scratch):
        # Without a scratch the helper's temporaries die with its frames,
        # before the gather allocates the output: they never add to the
        # sort's peak.
        order = _packed_order(keys, scratch)
    if before_write is not None:
        before_write()
    if order is not None:
        return _gather(records, order, dest)
    if dest is None:
        return records.copy()
    _copy_records(dest, records)
    return dest


def _copy_records(dest: np.ndarray, src: np.ndarray) -> None:
    """``dest[...] = src`` as a plain copy: field by field, a structured
    assignment is an order of magnitude slower."""
    dest.view(_PLAIN_DTYPE)[...] = src.view(_PLAIN_DTYPE)


def _concat_into(parts: Sequence[np.ndarray], buf: np.ndarray) -> np.ndarray:
    """Lay ``parts`` back to back at the front of ``buf``; a part already
    at its place (an exchange slot) is not copied.  Parts that lie in
    ``buf`` itself must come in address order: each moves only down."""
    n = sum(len(p) for p in parts)
    if len(buf) < n:
        raise ValueError(f"concat buffer holds {len(buf)} records, {n} are needed")
    at = 0
    for part in parts:
        dest = buf[at : at + len(part)]
        in_place = (
            np.may_share_memory(part, dest)
            and part.ctypes.data == dest.ctypes.data
            and part.strides == dest.strides
        )
        if not in_place:
            _copy_records(dest, part)
        at += len(part)
    return buf[:n]


def merge_record_arrays(
    parts: List[np.ndarray],
    out: Optional[np.ndarray] = None,
    scratch: Optional[RecordBuffers] = None,
) -> np.ndarray:
    """Merge key-sorted record arrays into one key-sorted array.

    Stable across parts in list order, which realizes the package's
    canonical (key, sequence, position) tie-breaking when the caller
    passes parts in sequence order.  Like
    :func:`repro.records.arrays.merge_sorted_arrays` this is implemented
    as concatenate + stable sort (the paper explicitly allows replacing
    batch merging by sorting of batches): the packed-word order of
    :func:`sort_records`, whose words two parts sort with timsort — one
    galloping merge of two runs — and three or more with the default
    sort, faster there than timsort's cascade of run merges
    (EXPERIMENTS.md, "Packed-word sort kernel").

    With ``out`` the merge lands in ``out[:n]`` (``ValueError`` if it is
    too small or overlaps a part); with a ``scratch`` large enough, the
    parts are concatenated in its ``chunk`` — parts already lying there
    back to back are not copied — and ordered in its words, so the
    merge allocates nothing.
    """
    parts = [p for p in parts if len(p)]
    scratch = _fitting(scratch, sum(len(p) for p in parts))
    dest = None
    if out is not None:
        dest = _destination(out, sum(len(p) for p in parts), *parts)
        if len(parts) < 2:
            if parts:
                _copy_records(dest, parts[0])
            return dest
    elif not parts:
        return np.empty(0, dtype=NATIVE_DTYPE)
    elif len(parts) == 1:
        # A read-only view, not the caller's array: downstream code is
        # free to mutate the merge result in place, and on the
        # single-part fast path that used to silently corrupt the
        # caller's buffer.  Mutators now get an explicit ValueError and
        # must copy first.
        view = parts[0].view()
        view.flags.writeable = False
        return view
    if scratch is None:
        whole = concat_records(parts)
    else:
        whole = _concat_into(parts, scratch.chunk)
        if dest is not None and np.may_share_memory(whole, dest):
            raise ValueError("out overlaps the concat buffer")
    order = _packed_order(whole["key"], scratch, stable=len(parts) == 2)
    return _gather(whole, order, dest)


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
# plain byte-lexicographic.  The payload stays a u64 record index so the
# conformance permutation and round-trip checks carry over unchanged.
#
# In memory a batch also holds its keys as one *column*: a NUL-padded
# fixed-width ``np.dtype(f"S{w}")`` array, w the multiple of 8 past the
# longest key.  The same NUL-freeness makes the order of that column the
# byte order of the keys, so sorting, merging, cutting and LCP coding a
# batch are whole-column numpy operations, never loops over Python
# ``bytes``.  A batch that a kernel made (sort, merge, LCP decode) holds
# only columns — keys, key lengths, payloads — and assembles its record
# bytes once, when they leave memory (:meth:`VarlenBatch.bytes_view`).
# ---------------------------------------------------------------------------

#: Bytes of the per-record length prefix (u32 key length).
VARLEN_HEADER_BYTES = 4

#: Bytes of the per-record payload (u64 record index).
VARLEN_PAYLOAD_BYTES = 8

#: Bytes a record adds to its key.
_RECORD_OVERHEAD = VARLEN_HEADER_BYTES + VARLEN_PAYLOAD_BYTES

_U64_MASK = (1 << 64) - 1

_U32 = struct.Struct("<I")

#: Rows the record/column conversions handle at a time: their
#: temporaries are a few ``u64`` vectors this long, however large the
#: batch and however long its keys.
_BLOCK_ROWS = 1 << 13

#: Bytes of key column :meth:`VarlenBatch.keys` decodes at a time.
_BLOCK_BYTES = 1 << 16

#: ``_BYTE_MASKS[k]``: the ``u64`` that keeps the low (first) k bytes.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


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


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte window of the contiguous ``data`` as one view:
    row i is ``data[i : i + width]``, and writes go through to ``data``."""
    return np.ndarray((data.nbytes - width + 1, width), dtype=np.uint8,
                      buffer=data, strides=(1, 1))


# Record bytes and key columns convert into each other a ``u64`` word at
# a time, one word position of every key per numpy operation: a key at
# an arbitrary byte offset is read as two aligned stream words shifted
# together, and written as one word shifted across two.  Words are
# little-endian: a byte's place in the stream is its place in the word.


def _stream_words(data: np.ndarray, slack: int) -> np.ndarray:
    """The bytes of ``data`` as ``u64`` words, NUL-padded, plus ``slack``
    zero words: any word read at a byte inside ``data`` is in range."""
    words = np.zeros(-(-data.nbytes // 8) + slack, dtype=np.uint64)
    words.view(np.uint8)[: data.nbytes] = data
    return words


def _shifts(at: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(word, bits, 64 - bits)`` of the byte offsets ``at``: the stream
    word each lies in and its bit offset there."""
    bits = ((at & 7) * 8).astype(np.uint64)
    return at >> 3, bits, 64 - bits


def _row_blocks(n: int, step: int) -> Iterable[Tuple[int, int]]:
    """``(lo, hi)`` ranges of ``step`` of the n rows each."""
    return ((lo, min(n, lo + step)) for lo in range(0, n, step))


def _narrowed(rows, reach: np.ndarray, *per_row: np.ndarray) -> list:
    """``rows`` (a slice or row indices) and the ``per_row`` arrays, cut
    to the rows ``reach`` marks."""
    if isinstance(rows, slice):
        rows = np.arange(rows.start, rows.stop)
    return [x[reach] for x in (rows, *per_row)]


def _read_columns(
    data: np.ndarray, key_at: np.ndarray, lengths: np.ndarray,
    payload_at: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The key column of the keys at bytes ``key_at[i]`` of ``data``,
    ``lengths[i]`` bytes each — ``S{w}``, w the multiple of 8 past the
    longest, every key NUL-padded — and the ``u64`` at each byte of
    ``payload_at`` (None without it).  Once fewer than half the keys
    reach a word, only those are read on: a few long keys cost their own
    bytes, not every key's padding."""
    n = len(lengths)
    count = (int(lengths.max()) if n else 0) // 8 + 1
    words = np.zeros((n, count), dtype=np.uint64)
    payloads = None if payload_at is None else np.empty(n, dtype=np.uint64)
    for lo, hi in _row_blocks(n, _BLOCK_ROWS):
        base = int(key_at[lo])
        end = int(key_at[hi - 1] + lengths[hi - 1])
        if payload_at is not None:
            end = max(end, int(payload_at[hi - 1]) + VARLEN_PAYLOAD_BYTES)
        stream = _stream_words(data[base:end], count + 1)
        first, bits, anti = _shifts(key_at[lo:hi] - base)
        sizes = lengths[lo:hi]
        rows = slice(lo, hi)
        low = stream[first]
        for j in range(count):
            reach = sizes > 8 * j
            if 2 * np.count_nonzero(reach) < len(sizes):
                rows, first, bits, anti, sizes, low = _narrowed(
                    rows, reach, first, bits, anti, sizes, low)
                if not len(sizes):
                    break
            high = stream[j + 1 :][first]
            word = low >> bits
            word |= high << anti
            if 8 * (j + 1) > int(sizes.min()):
                # Keep the bytes of the key, not what follows it.
                word &= _BYTE_MASKS[np.clip(sizes - 8 * j, 0, 8)]
            words[:, j][rows] = word
            low = high
        if payloads is not None:
            first, bits, anti = _shifts(payload_at[lo:hi] - base)
            payloads[lo:hi] = stream[first] >> bits
            payloads[lo:hi] |= stream[first + 1] << anti
    return words.view(f"S{8 * count}").ravel(), payloads


def _byte_rows(column: np.ndarray) -> np.ndarray:
    """The ``S{w}`` column as ``(n, 8·ceil(w/8))`` bytes, NUL-padded (a
    view when w is a multiple of 8)."""
    column = np.ascontiguousarray(column)
    n, width = len(column), column.dtype.itemsize
    rows = column.view(np.uint8).reshape(n, width)
    if width % 8:
        padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
        padded[:, :width] = rows
        rows = padded
    return rows


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
        raise ValueError("string keys must be NUL-free (NUL-padded key column)")
    return joined


def _place(stream: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """OR the ``u64`` ``values`` into the word ``stream`` at the byte
    offsets ``at`` (no two of them in one word)."""
    word, bits, anti = _shifts(at)
    stream[word] |= values << bits
    stream[word + 1] |= values >> anti


def _assemble(
    column: np.ndarray, lengths: np.ndarray, payloads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Records from the key column, the key lengths and the payloads:
    ``(data, offsets)``.

    Each key's words are shifted to its offset and stored into a zeroed
    word stream, only the words that hold key bytes: no two keys share a
    word (a payload and a header, 12 bytes, lie between them), so every
    store lands once, in any order.  The headers and payloads are then
    ORed into the bytes left NUL for them, after all the keys: a key's
    first word may hold the previous record's payload.
    """
    n = len(lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths + _RECORD_OVERHEAD, out=offsets[1:])
    if not n:
        return np.empty(0, dtype=np.uint8), offsets
    keys = _byte_rows(column).view("<u8")
    count = keys.shape[1]
    stream = np.zeros(-(-int(offsets[-1]) // 8) + 1, dtype=np.uint64)
    blocks = list(_row_blocks(n, _BLOCK_ROWS))
    for lo, hi in blocks:
        at = offsets[lo:hi] + VARLEN_HEADER_BYTES
        first, bits, anti = _shifts(at)
        # How many words of its offset's grid a key has bytes in.
        spans = ((at & 7) + lengths[lo:hi] + 7) >> 3
        for j in range(count + 1):
            reach = spans > j
            if reach.all():
                rows, word_at, up, down = slice(lo, hi), first, bits, anti
            else:
                some = np.flatnonzero(reach)
                if not len(some):
                    break
                rows, word_at, up, down = (
                    lo + some, first[some], bits[some], anti[some])
            word = keys[:, j][rows] << up if j < count else (
                keys[:, j - 1][rows] >> down)
            if 0 < j < count:
                word |= keys[:, j - 1][rows] >> down
            stream[j:][word_at] = word
    payloads = np.asarray(payloads, dtype=np.uint64)
    for lo, hi in blocks:
        _place(stream, offsets[lo:hi], lengths[lo:hi].astype(np.uint64))
        _place(stream, offsets[lo + 1 : hi + 1] - VARLEN_PAYLOAD_BYTES,
               payloads[lo:hi])
    return stream.view(np.uint8)[: offsets[-1]], offsets


def _column_words(column: np.ndarray) -> Callable[..., np.ndarray]:
    """``word(j, rows=None)``: the big-endian 8-byte word ``j`` of every
    key of the ``S{w}`` column (of ``rows`` only, when given) as native
    ``u64`` — the numeric order of the words is the byte order."""
    words = _byte_rows(column).view(">u8")

    def word(j: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
        column = words[:, j]
        return (column if rows is None else column[rows]).astype(np.uint64)

    return word


def _words_ascend(word, n_words: int, first: np.ndarray) -> bool:
    """Whether keys whose first words are ``first`` (never descending)
    never descend in their later words either: the column is sorted."""
    open_pairs = first[1:] == first[:-1]
    for j in range(1, n_words):
        if not open_pairs.any():
            break
        w = word(j)
        if np.any((w[1:] < w[:-1]) & open_pairs):
            return False
        open_pairs &= w[1:] == w[:-1]
    return True


def _column_order(column: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of an ``S{w}`` key column, from
    :func:`_packed_order` over its big-endian 8-byte words (MSD).

    Pass 1 orders every key by its first word.  Each later pass takes the
    groups still tied on all words so far and orders their members by
    (group, next word): one stable packed sort by the word, one by the
    group number.  It stops when the words run out or no group has two
    members.  NUL padding orders keys as bytes because keys are NUL-free,
    and equal words keep position order, so ties come out in (key,
    position) order.  A pass whose members already ascend in their words
    inside every group sorts nothing, and a column already sorted (all
    keys equal, say) is found by comparing neighbours' words alone.
    """
    n = len(column)
    n_words = -(-column.dtype.itemsize // 8)
    word = _column_words(column)
    first_word = word(0)
    order = np.arange(n)
    ascending = n < 2 or _ascending(first_word, None)
    if ascending and _words_ascend(word, n_words, first_word):
        return order
    if not ascending:
        order = _packed_order(first_word)
        first_word = first_word[order]
    tied = first_word[1:] == first_word[:-1]
    slots = _tie_slots(tied)
    first = np.ones(len(slots), dtype=bool)
    first[1:] = ~tied[slots[1:] - 1]
    for j in range(1, n_words):
        if not len(slots):
            break
        members = order[slots]
        w = word(j, members)
        # Members ascend in position inside each group, so where the word
        # never descends inside a group the order stands as it is.
        descends = w[1:] < w[:-1]
        descends &= ~first[1:]
        if descends.any():
            by_word = _packed_order(w)
            group = np.cumsum(first, dtype=np.uint64)
            perm = by_word[_packed_order(group[by_word])]
            order[slots] = members[perm]
            w = w[perm]
        tied = w[1:] == w[:-1]
        tied &= ~first[1:]
        keep = _tie_slots(tied)
        slots = slots[keep]
        first = np.ones(len(keep), dtype=bool)
        first[1:] = ~tied[keep[1:] - 1]
    return order


class VarlenBatch:
    """A batch of length-prefixed variable records.

    Two forms, either or both present:

    * bytes — one ``uint8`` data array plus an ``int64`` offset array of
      ``n + 1`` record-boundary byte offsets (``offsets[0] == 0``,
      ``offsets[-1] == data.nbytes``), the varlen analogue of a structured
      record array: what reads, parsing and the constructor give;
    * columns — the NUL-padded ``S{w}`` key ``column``, the ``int64`` key
      ``lengths`` and the ``u64`` ``payloads()``: what a kernel makes
      (:meth:`take`, so sorts and merges, and LCP decoding).

    Each form is derived from the other on first use and kept: the
    column with one vectorised gather of the data, the bytes with one
    assembly of the columns (:meth:`bytes_view`, at a file or journal
    write).  ``slice`` keeps views of whichever parts are present, and
    ``take``, ``concat`` and the merge carry columns, never record bytes,
    so sort → exchange → merge assembles each record once.  The column
    costs n·w bytes beside the data.
    """

    __slots__ = ("_data", "_offsets", "_column", "_lengths", "_payloads")

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.uint8)
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
        self._data = data
        self._offsets = offsets
        self._column = None
        self._lengths = None
        self._payloads = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(
        cls, column: np.ndarray, lengths: np.ndarray, payloads: np.ndarray
    ) -> "VarlenBatch":
        """A batch of the keys in ``column`` (``lengths`` bytes each) and
        the ``payloads``, in column form: no record bytes until asked."""
        if not len(column) == len(lengths) == len(payloads):
            raise ValueError(
                f"{len(column)} keys, {len(lengths)} lengths and "
                f"{len(payloads)} payloads"
            )
        batch = cls.__new__(cls)
        batch._data = batch._offsets = None
        batch._column = column
        batch._lengths = np.asarray(lengths, dtype=np.int64)
        batch._payloads = np.asarray(payloads, dtype=np.uint64)
        return batch

    @classmethod
    def build(
        cls, keys: Sequence[bytes], payloads: Iterable[int]
    ) -> "VarlenBatch":
        """Encode parallel key/payload sequences into a batch."""
        n = len(keys)
        lengths = np.fromiter(map(len, keys), dtype=np.int64, count=n)
        key_bytes = np.frombuffer(_joined_keys(keys), dtype=np.uint8)
        if not isinstance(payloads, np.ndarray):
            payloads = np.fromiter(payloads, dtype=np.uint64, count=n)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        column, _none = _read_columns(key_bytes, starts, lengths)
        return cls.from_columns(column, lengths, payloads)

    @classmethod
    def empty(cls) -> "VarlenBatch":
        return cls.from_columns(np.empty(0, dtype="S8"), [], [])

    @classmethod
    def concat(cls, parts: Sequence["VarlenBatch"]) -> "VarlenBatch":
        """Concatenate batches in list order (no reordering): their
        columns when every part has its column, else their bytes."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        if all(p._column is not None for p in parts):
            # Widths may differ: numpy pads the narrower parts with NUL.
            return cls.from_columns(
                np.concatenate([p._column for p in parts]),
                np.concatenate([p.lengths for p in parts]),
                np.concatenate([p.payloads() for p in parts]),
            )
        data = np.concatenate([p.data for p in parts])
        sizes = np.concatenate([np.diff(p.offsets) for p in parts])
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(data, offsets)

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
        if self._offsets is not None:
            return len(self._offsets) - 1
        return len(self._lengths)

    @property
    def nbytes(self) -> int:
        return int(self.offsets[-1])

    @property
    def offsets(self) -> np.ndarray:
        """The ``n + 1`` record-boundary byte offsets (from the key
        lengths in column form; no record bytes needed)."""
        if self._offsets is None:
            offsets = np.zeros(len(self._lengths) + 1, dtype=np.int64)
            np.cumsum(self._lengths + _RECORD_OVERHEAD, out=offsets[1:])
            self._offsets = offsets
        return self._offsets

    @property
    def data(self) -> np.ndarray:
        """The record bytes, assembled from the columns on first use."""
        if self._data is None:
            data, offsets = _assemble(
                self._column, self._lengths, self._payloads
            )
            # Offsets first: a thread that sees the data sees its bounds.
            self._offsets = offsets
            self._data = data
        return self._data

    def bytes_view(self) -> memoryview:
        """Byte view of the whole batch (wire/disk form): zero-copy in
        byte form, one assembly of the columns otherwise."""
        return memoryview(self.data)

    @property
    def column(self) -> np.ndarray:
        """The NUL-padded ``S{w}`` key column (built on first use)."""
        if self._column is None:
            self._unpack()
        return self._column

    @property
    def lengths(self) -> np.ndarray:
        """The key lengths, ``int64``."""
        if self._lengths is None:
            self._lengths = np.diff(self._offsets) - _RECORD_OVERHEAD
        return self._lengths

    def key_at(self, i: int) -> bytes:
        return bytes(self.column[i])

    def keys(self) -> List[bytes]:
        """All keys as Python ``bytes`` (for tests and oracles; no phase
        calls it).  Without a column in place this decodes a block of
        rows at a time and keeps none of them."""
        if self._column is not None:
            return self._column.tolist()
        keys: List[bytes] = []
        step = max(1, _BLOCK_BYTES // (self.max_key_len() + 1))
        for lo, hi in _row_blocks(len(self), step):
            keys += self.slice(lo, hi).column.tolist()
        return keys

    def payloads(self) -> np.ndarray:
        """The ``u64`` payload column."""
        if self._payloads is None:
            self._unpack()
        return self._payloads

    def _unpack(self) -> None:
        """Derive the key column and the payloads from the record bytes."""
        offsets = self._offsets
        self._column, self._payloads = _read_columns(
            self._data, offsets[:-1] + VARLEN_HEADER_BYTES,
            np.diff(offsets) - _RECORD_OVERHEAD,
            offsets[1:] - VARLEN_PAYLOAD_BYTES,
        )

    def max_key_len(self) -> int:
        return int(self.lengths.max()) if len(self) else 0

    # -- slicing / reordering ---------------------------------------------

    def slice(self, start: int, stop: int) -> "VarlenBatch":
        """Records ``start .. stop-1``: views of the data and of every
        column present (only the small offset vector is rebased)."""
        n = len(self)
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        part = VarlenBatch.__new__(VarlenBatch)
        part._data = part._offsets = None
        if self._offsets is not None:
            lo = int(self._offsets[start])
            part._offsets = self._offsets[start : stop + 1] - lo
            if self._data is not None:
                part._data = self._data[lo : int(self._offsets[stop])]
        for name in ("_column", "_lengths", "_payloads"):
            whole = getattr(self, name)
            setattr(part, name, None if whole is None else whole[start:stop])
        return part

    def take(self, order: Sequence[int]) -> "VarlenBatch":
        """A new batch, in column form, with the records permuted into
        ``order``: a gather of the key column, lengths and payloads."""
        order = np.asarray(order, dtype=np.intp)
        return VarlenBatch.from_columns(
            self.column[order], self.lengths[order], self.payloads()[order]
        )

    def sort(self) -> "VarlenBatch":
        """Byte-lexicographic key sort, stable in input position: the
        packed-word order of the key column (:func:`_column_order`) and
        one gather of the columns."""
        if len(self) < 2:
            return self
        return self.take(_column_order(self.column))


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
    :func:`merge_record_arrays`: the packed-word order of the
    concatenated key column, gathered in column form.
    """
    parts = [p for p in parts if len(p)]
    if len(parts) == 1:
        return parts[0]
    return VarlenBatch.concat(parts).sort()


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
    # A multiple of 8 wide, as every key column: the packed order and the
    # record assembly read it a word at a time without padding it first.
    width = (int(lengths.max()) if n else 0) // 8 * 8 + 8
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
    column = np.ascontiguousarray(keys)
    rows = column.view(np.uint8).reshape(len(column), column.dtype.itemsize)
    # Keys are NUL-free: a key's length is its row's non-NUL byte count.
    return _lcp_encode(column, np.count_nonzero(rows, axis=1).astype(np.int64))


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
    """Decode :func:`lcp_encode_batch` output into a column-form batch.

    The record bytes are assembled only if the batch is written.

    Malformed input raises ``ValueError``.
    """
    rows, lengths, payloads = _lcp_decode(buf, with_payloads=True)
    return VarlenBatch.from_columns(
        rows.view(f"S{rows.shape[1]}").ravel(), lengths, payloads
    )


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


#: The checksum's per-record state starts at ``_mix(length ^ salt)``:
#: the mix keeps 0 fixed, and an empty key must not add 0.
_CHECKSUM_SALT = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of every ``u64`` of ``x``, in place: a
    multiply-xorshift bijection in which every input bit moves about
    half the output bits."""
    x ^= x >> np.uint64(30)
    x *= _MIX_MULTIPLIERS[0]
    x ^= x >> np.uint64(27)
    x *= _MIX_MULTIPLIERS[1]
    x ^= x >> np.uint64(31)
    return x


def string_checksum(batch: VarlenBatch, acc: int = 0) -> int:
    """Order-independent checksum over (key, payload) records, mod 2^64.

    The varlen analogue of the gensort input checksum: summable across
    batches and workers in any order, so the merge phase can prove the
    output multiset equals the input multiset without a global gather.
    Each record adds ``mix(h ^ payload)``, where ``h`` starts at
    ``mix(length ^ salt)`` and takes in the key's little-endian ``u64``
    words in order, ``h = mix(h ^ word)`` — only the words that hold key
    bytes, so neither the column's width nor the batch's form or cut
    changes the value.  It is computed one word position at a time over
    the key column (built and kept if the batch has none), each step
    narrowed to the keys that reach the word: no Python per record.
    """
    lengths = batch.lengths
    if not len(lengths):
        return acc
    words = _byte_rows(batch.column).view("<u8")
    h = lengths.astype(np.uint64)
    h ^= _CHECKSUM_SALT
    _mix(h)
    rows = slice(None)  # the rows whose keys reach word j
    for j in range(words.shape[1]):
        if not np.all(lengths[rows] > 8 * j):
            rows = np.flatnonzero(lengths > 8 * j)
            if not len(rows):
                break
        state = h[rows]
        state ^= words[rows, j]
        h[rows] = _mix(state)
    h ^= batch.payloads()
    _mix(h)
    return (acc + int(np.add.reduce(h, dtype=np.uint64))) & _U64_MASK


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
      ``searchsorted``), ``is_sorted``, ``checksum``, ``footprint`` (the
      bytes a part holds in memory, for the resident accounting: its
      records, plus the key column for strings);
    * memory — ``buffers(capacity)``, the model's fixed
      :class:`RecordBuffers` set; ``sort``, ``merge``, ``copy`` and the
      block store's reads take an ``out`` (and the kernels a
      ``scratch``) from it.  Fixed16 lands every result there; strings
      get an empty set and ignore both;
    * files — the :class:`~repro.native.blockstore.FileBlockStore` moves
      byte extents; the model maps records to bytes:
      ``boundaries(store, path, tag)`` (record ``i`` of ``path`` starts
      at byte ``boundaries[i]``: ``16·i`` for fixed16, the ``.idx``
      array for strings), ``index_of`` (a part's boundaries as an
      ``.idx`` stores them, ``None`` for a model without one),
      ``landing`` (the buffer a read of ``n`` records, ``nbytes``
      bytes, lands in: the front of ``out`` for fixed16) and
      ``part_of`` (the records of a read's ranges, as a part);
    * wire — ``encode``/``decode`` a chunk, ``encode_keys``/``decode_keys``
      a sorted key sequence (``encode_keys`` never returns a view of its
      input), ``bytes_view`` of a part as written,
      ``landing_slots`` (where an exchange's slices land, or ``None``);
    * journal — ``key_to_json``/``key_from_json`` a key (or ``None``) as
      the recovery manifest stores it;
    * all-to-all slabs — ``slab_byte_bases``, and ``slab_index`` /
      ``note_arrival`` / ``seal_slab`` for a slab's record boundaries.

    Both window selections need no method of their own: they read a
    window with the store's ``read_range``, take its ``keys`` and compare
    them as numpy keys (u64 or ``S{w}``), the samples via ``decode_keys``.

    ``name`` is the job-spec / CLI token; ``varlen`` says whether files
    carry an ``.idx`` record-boundary sidecar (job validation and the
    store's appender read it, the phases do not); ``nominal_bytes`` is
    the per-record figure used for *sizing* (memory budgets, block
    sizing, records-per-worker) — for the string model it is the same
    16 bytes, so a given ``--data-mib`` sorts the same record count under
    either model and sizing-sensitive invariants stay comparable.
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

    def buffers(self, capacity):
        return RecordBuffers(capacity)

    def sort(self, part, out=None, scratch=None, before_write=None):
        return sort_records(part, out=out, scratch=scratch,
                            before_write=before_write)

    def concat(self, parts):
        return parts[0] if len(parts) == 1 else concat_records(parts)

    def merge(self, parts, out=None, scratch=None):
        return merge_record_arrays(parts, out=out, scratch=scratch)

    def slice(self, part, lo, hi):
        return part[lo:hi]

    def copy(self, part, out=None):
        if out is None:
            return part.copy()
        dest = _destination(out, len(part))
        _copy_records(dest, part)
        return dest

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

    def footprint(self, part) -> int:
        return part.nbytes

    # -- files
    def boundaries(self, store, path, tag):
        """``16·i``, up to the file's last whole record: no index."""
        return range(0, os.stat(path).st_size + 1, RECORD_BYTES)

    def index_of(self, part):
        return None

    def landing(self, out, n_records, nbytes):
        if out is None:
            return np.empty(n_records, dtype=NATIVE_DTYPE)
        return _destination(out, n_records)

    def part_of(self, buf, bounds, ranges):
        return buf

    # -- wire
    def encode(self, part, stats=None, phase=""):
        return bytes_view(part)

    def decode(self, buf):
        return records_from_bytes(buf)

    def landing_slots(self, buffers, counts):
        """Where each rank's slice of ``counts[d]`` records lands: back to
        back in the chunk buffer, in rank order — the merge's concat.
        ``None`` if they outgrow it (striped's merge rounds can)."""
        if sum(counts) > buffers.capacity:
            return None
        mv = bytes_view(buffers.chunk)
        bounds = np.cumsum([0] + list(counts)) * RECORD_BYTES
        return [mv[int(a) : int(b)] for a, b in zip(bounds[:-1], bounds[1:])]

    def bytes_view(self, part):
        return bytes_view(part)

    def encode_keys(self, keys, stats=None, phase=""):
        # Always a copy: a one-key slice of a reused buffer is contiguous,
        # and ascontiguousarray would hand back a view of it.
        return np.array(keys, dtype=np.uint64)

    def decode_keys(self, wire):
        return np.asarray(wire)

    # -- journal
    def key_to_json(self, key):
        return None if key is None else int(key)

    def key_from_json(self, value):
        return None if value is None else int(value)

    # -- all-to-all slabs
    def slab_byte_bases(self, comm, sizes, rank, slab_base):
        """Per run, where each sender's bytes start in the slab: the
        record offsets times 16 — no agreement round needed."""
        return [[b * RECORD_BYTES for b in bases] for bases in slab_base]

    def slab_index(self, n_records):
        return None

    def note_arrival(self, index, pos, byte_pos, part) -> None:
        pass

    def seal_slab(self, store, path, index, nbytes, tag, durable) -> None:
        pass


class StringModel(RecordModel):
    """Length-prefixed variable records with byte-string keys.

    Files carry an ``.idx`` sidecar of record-boundary byte offsets (a
    slab's is rebuilt in memory as its chunks land, and written only when
    the job journals); every sorted key
    sequence that crosses the wire — samples, run formation's slices and
    all-to-all chunks — travels LCP front-coded per *Communication-Efficient
    String Sorting* (Bingmann, Sanders, Schimek), with the trimmed bytes counted
    (:func:`_count_lcp`).
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

    # Strings keep allocating kernels: their set is empty and every
    # ``out`` / ``scratch`` argument below is ignored.
    def buffers(self, capacity):
        return RecordBuffers(0)

    def sort(self, part, out=None, scratch=None, before_write=None):
        return part.sort()

    def concat(self, parts):
        return VarlenBatch.concat(parts)

    def merge(self, parts, out=None, scratch=None):
        return merge_varlen_batches(parts)

    def slice(self, part, lo, hi):
        return part.slice(lo, hi)

    def copy(self, part, out=None):
        dup = VarlenBatch.__new__(VarlenBatch)
        for name in VarlenBatch.__slots__:
            value = getattr(part, name)
            setattr(dup, name, None if value is None else value.copy())
        return dup

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
        """:func:`string_checksum`, off the part's key column (built here
        and kept if the part has none: the sort that follows needs it)."""
        return string_checksum(part, acc)

    def footprint(self, part) -> int:
        """The records plus the key column they hold or will hold, n·w
        bytes more (w = max key length + 1)."""
        return part.nbytes + len(part) * (part.max_key_len() + 1)

    # -- files
    def boundaries(self, store, path, tag):
        return store.index(path, tag)

    def index_of(self, part):
        return part.offsets

    def landing(self, out, n_records, nbytes):
        return np.empty(nbytes, dtype=np.uint8)

    def part_of(self, buf, bounds, ranges):
        """The ranges' records, read back to back into ``buf``: their
        boundaries, rebased onto it."""
        ends, at = [np.zeros(1, dtype=np.int64)], 0
        for a, b in ranges:
            lo = int(bounds[a])
            ends.append(bounds[a + 1 : b + 1] + (at - lo))
            at += int(bounds[b]) - lo
        return VarlenBatch(buf, np.concatenate(ends))

    # -- wire
    def encode(self, part, stats=None, phase=""):
        wire, saved = lcp_encode_batch(part)
        _count_lcp(stats, phase, raw=part.nbytes, wire=len(wire),
                   overhead=4 + 4 * len(part), trimmed=saved)
        return wire

    def decode(self, buf):
        return lcp_decode_batch(buf)

    def landing_slots(self, buffers, counts):
        """None: a front-coded slice's size is not its record count's."""
        return None

    def bytes_view(self, part):
        return part.bytes_view()

    def encode_keys(self, keys, stats=None, phase=""):
        wire, saved = lcp_encode_keys(keys)
        _count_lcp(stats, phase, raw=sum(map(len, keys)),
                   wire=len(wire), overhead=4 + 8 * len(keys), trimmed=saved)
        return wire

    def decode_keys(self, wire):
        return lcp_decode_keys(wire)

    # -- journal
    def key_to_json(self, key):
        """Hex: keys are NUL-free bytes, which JSON has no type for."""
        return None if key is None else bytes(key).hex()

    def key_from_json(self, value):
        return None if value is None else bytes.fromhex(value)

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

    def seal_slab(self, store, path, index, nbytes, tag, durable) -> None:
        """Check the rebuilt boundaries cover the slab, then hand them to
        the store: the merge reads the slab through them.  Only a
        ``durable`` (journaled) slab also gets its ``.idx``, fsynced, for
        a resumed merge that no longer holds them in memory."""
        if (
            bool(np.any(index < 0))
            or int(index[-1]) != nbytes
            or bool(np.any(np.diff(index) < 0))
        ):
            raise AssertionError(
                f"{path}: slab boundary reconstruction incomplete "
                f"({int(index[-1])} of {nbytes} bytes claimed)"
            )
        if durable:
            store.write_index(path, index, tag, fsync=True)
        store.set_index(path, index)


MODELS = {"fixed16": Fixed16Model(), "string": StringModel()}


def resolve_model(name: str) -> RecordModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown record model {name!r} (expected one of "
            f"{', '.join(sorted(MODELS))})"
        ) from None
