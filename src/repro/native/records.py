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


#: Above this share of tied neighbours the tie repair of
#: :func:`sort_records` costs more than sorting stably in the first place.
_TIE_REPAIR_MAX_SHARE = 0.125

#: Field-free twin of :data:`NATIVE_DTYPE`: ``np.concatenate`` on it is a
#: plain memcpy, on the structured dtype it promotes fields per part.
_PLAIN_DTYPE = np.dtype(f"V{RECORD_BYTES}")


def concat_records(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` for record arrays, without field promotion."""
    return np.concatenate([p.view(_PLAIN_DTYPE) for p in parts]).view(
        NATIVE_DTYPE
    )


def _stable_order(keys: np.ndarray) -> Optional[np.ndarray]:
    """The stable sorting permutation of ``keys``; None if already sorted."""
    n = len(keys)
    keys = np.ascontiguousarray(keys)
    if n < 2 or bool(np.all(keys[:-1] <= keys[1:])):
        return None
    order = np.argsort(keys)
    sorted_keys = keys[order]
    tied = sorted_keys[1:] == sorted_keys[:-1]
    n_tied = int(np.count_nonzero(tied))
    if n_tied > n * _TIE_REPAIR_MAX_SHARE:
        return np.argsort(keys, kind="stable")
    if n_tied:
        in_group = np.zeros(n, dtype=bool)
        in_group[1:] = tied
        in_group[:-1] |= tied
        slots = np.flatnonzero(in_group)
        members = order[slots]
        # Slots ascend and their keys with them, so ordering the members
        # by (key, input position) only permutes inside each tie group.
        order[slots] = members[np.lexsort((members, sorted_keys[slots]))]
    return order


def sort_records(records: np.ndarray) -> np.ndarray:
    """Sort records by key, stable in input position (ties keep order).

    Always returns a fresh array.  Sorted input is only copied; anything
    else is sorted with the default (SIMD where the CPU has it) argsort
    of a contiguous key column and gathered once.  That sort is not
    stable, so positions inside groups of equal keys are re-sorted
    afterwards — or, when ties are common, the stable argsort is used
    after all (its cost is what the fast path exists to avoid).
    """
    # The key copies die with the helper's frame, before the gather
    # allocates the output: they never add to the sort's peak.
    order = _stable_order(records["key"])
    return records.copy() if order is None else np.take(records, order)


def merge_record_arrays(parts: List[np.ndarray]) -> np.ndarray:
    """Merge key-sorted record arrays into one key-sorted array.

    Stable across parts in list order, which realizes the package's
    canonical (key, sequence, position) tie-breaking when the caller
    passes parts in sequence order.  Like
    :func:`repro.records.arrays.merge_sorted_arrays` this is implemented
    as concatenate + stable sort (the paper explicitly allows replacing
    batch merging by sorting of batches): timsort gallops over the
    presorted parts, which on this record layout beats a
    ``searchsorted``-scatter tournament 1.7-2x (see ROADMAP item 3).
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
    return np.take(out, np.argsort(out["key"], kind="stable"))


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
# ---------------------------------------------------------------------------

#: Bytes of the per-record length prefix (u32 key length).
VARLEN_HEADER_BYTES = 4

#: Bytes of the per-record payload (u64 record index).
VARLEN_PAYLOAD_BYTES = 8

_U64_MASK = (1 << 64) - 1


def _check_key(key: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError(f"string keys must be bytes, got {type(key).__name__}")
    if b"\x00" in key:
        raise ValueError("string keys must be NUL-free (ordering embedding)")
    return bytes(key)


class VarlenBatch:
    """A contiguous batch of length-prefixed variable records.

    Backed by one ``uint8`` data array plus an ``int64`` offset array of
    ``n + 1`` record-boundary byte offsets (``offsets[0] == 0``,
    ``offsets[-1] == data.nbytes``) — the varlen analogue of a
    structured record array.  ``bytes_view`` stays zero-copy, and
    ``slice`` is a view of the data (only the small offset vector is
    rebased), so the exchange hot path keeps the no-intermediate-copy
    property of the fixed model.
    """

    __slots__ = ("data", "offsets", "_mv", "_keys")

    def __init__(
        self,
        data: np.ndarray,
        offsets: np.ndarray,
        keys: Optional[List[bytes]] = None,
    ):
        data = np.asarray(data, dtype=np.uint8)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D with offsets[0] == 0")
        if len(offsets) > 1 and bool(np.any(np.diff(offsets) < 0)):
            raise ValueError("offsets must be non-decreasing")
        if int(offsets[-1]) != data.nbytes:
            raise ValueError(
                f"offsets end at {int(offsets[-1])} but data holds "
                f"{data.nbytes} bytes"
            )
        self.data = data
        self.offsets = offsets
        self._mv = memoryview(np.ascontiguousarray(data)).cast("B")
        self._keys = keys

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, keys: Sequence[bytes], payloads: Iterable[int]
    ) -> "VarlenBatch":
        """Encode parallel key/payload sequences into a batch."""
        chunks: List[bytes] = []
        offsets = np.empty(len(keys) + 1, dtype=np.int64)
        offsets[0] = 0
        total = 0
        checked: List[bytes] = []
        for i, (key, payload) in enumerate(zip(keys, payloads)):
            key = _check_key(key)
            checked.append(key)
            rec = (
                struct.pack("<I", len(key))
                + key
                + struct.pack("<Q", int(payload) & _U64_MASK)
            )
            chunks.append(rec)
            total += len(rec)
            offsets[i + 1] = total
        data = np.frombuffer(b"".join(chunks), dtype=np.uint8)
        return cls(data, offsets, keys=checked)

    @classmethod
    def empty(cls) -> "VarlenBatch":
        return cls(np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64),
                   keys=[])

    @classmethod
    def concat(cls, parts: Sequence["VarlenBatch"]) -> "VarlenBatch":
        """Concatenate batches in list order (no reordering)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        data = np.concatenate([np.ascontiguousarray(p.data) for p in parts])
        sizes = np.concatenate([np.diff(p.offsets) for p in parts])
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        keys = None
        if all(p._keys is not None for p in parts):
            keys = [k for p in parts for k in p._keys]
        return cls(data, offsets, keys=keys)

    @classmethod
    def from_bytes(cls, buf) -> "VarlenBatch":
        """Parse a raw byte chunk by walking the length prefixes."""
        mv = memoryview(buf).cast("B")
        end = len(mv)
        offsets = [0]
        off = 0
        while off < end:
            if off + VARLEN_HEADER_BYTES > end:
                raise ValueError(
                    f"truncated varlen record header at byte {off}/{end}"
                )
            (key_len,) = struct.unpack_from("<I", mv, off)
            nxt = off + VARLEN_HEADER_BYTES + key_len + VARLEN_PAYLOAD_BYTES
            if nxt > end:
                raise ValueError(
                    f"truncated varlen record at byte {off}/{end} "
                    f"(key_len={key_len})"
                )
            off = nxt
            offsets.append(off)
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

    def key_at(self, i: int) -> bytes:
        if self._keys is not None:
            return self._keys[i]
        off = int(self.offsets[i])
        (key_len,) = struct.unpack_from("<I", self._mv, off)
        start = off + VARLEN_HEADER_BYTES
        return bytes(self._mv[start : start + key_len])

    def payload_at(self, i: int) -> int:
        off = int(self.offsets[i])
        (key_len,) = struct.unpack_from("<I", self._mv, off)
        return struct.unpack_from(
            "<Q", self._mv, off + VARLEN_HEADER_BYTES + key_len
        )[0]

    def keys(self) -> List[bytes]:
        """All keys, decoded once and cached."""
        if self._keys is None:
            self._keys = [self.key_at(i) for i in range(len(self))]
        return self._keys

    def payloads(self) -> np.ndarray:
        return np.array(
            [self.payload_at(i) for i in range(len(self))], dtype=np.uint64
        )

    def max_key_len(self) -> int:
        return max((len(k) for k in self.keys()), default=0)

    # -- slicing / reordering ---------------------------------------------

    def slice(self, start: int, stop: int) -> "VarlenBatch":
        """Records ``start .. stop-1`` as a zero-copy view of the data."""
        n = len(self)
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        lo = int(self.offsets[start])
        hi = int(self.offsets[stop])
        keys = self._keys[start:stop] if self._keys is not None else None
        return VarlenBatch(
            self.data[lo:hi], self.offsets[start : stop + 1] - lo, keys=keys
        )

    def take(self, order: Sequence[int]) -> "VarlenBatch":
        """A new batch with records permuted into ``order``."""
        keys = self.keys()
        out = bytearray()
        offsets = np.empty(len(order) + 1, dtype=np.int64)
        offsets[0] = 0
        for j, i in enumerate(order):
            out += self._mv[int(self.offsets[i]) : int(self.offsets[i + 1])]
            offsets[j + 1] = len(out)
        data = np.frombuffer(bytes(out), dtype=np.uint8)
        return VarlenBatch(data, offsets, keys=[keys[i] for i in order])

    def sort(self) -> "VarlenBatch":
        """Byte-lexicographic key sort, stable in input position."""
        keys = self.keys()
        order = sorted(range(len(self)), key=keys.__getitem__)
        return self.take(order)


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
    :func:`merge_record_arrays`.
    """
    parts = [p for p in parts if len(p)]
    if not parts:
        return VarlenBatch.empty()
    if len(parts) == 1:
        return parts[0]
    data = np.concatenate([p.data for p in parts])
    sizes = np.concatenate([np.diff(p.offsets) for p in parts])
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    keys: List[bytes] = []
    for p in parts:
        keys.extend(p.keys())
    return VarlenBatch(data, offsets, keys=keys).sort()


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


def _lcp(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def lcp_encode_keys(keys: Sequence[bytes]) -> Tuple[bytes, int]:
    """Front-code a key sequence.  Returns ``(wire, saved_bytes)``."""
    out = [struct.pack("<I", len(keys))]
    prev = b""
    saved = 0
    for key in keys:
        lcp = _lcp(prev, key)
        suffix = key[lcp:]
        out.append(struct.pack("<II", lcp, len(suffix)))
        out.append(suffix)
        saved += lcp
        prev = key
    return b"".join(out), saved


def lcp_decode_keys(buf) -> List[bytes]:
    mv = memoryview(buf).cast("B")
    (n,) = struct.unpack_from("<I", mv, 0)
    off = 4
    keys: List[bytes] = []
    prev = b""
    for _ in range(n):
        lcp, suffix_len = struct.unpack_from("<II", mv, off)
        off += 8
        key = prev[:lcp] + bytes(mv[off : off + suffix_len])
        off += suffix_len
        keys.append(key)
        prev = key
    if off != len(mv):
        raise ValueError(f"lcp key block: {len(mv) - off} trailing bytes")
    return keys


def lcp_encode_batch(batch: VarlenBatch) -> Tuple[bytes, int]:
    """Front-code a (key-sorted) record batch for the wire.

    Returns ``(wire, saved_bytes)`` where ``saved_bytes`` is the total
    of trimmed prefix bytes; the wire form prepends a ``u32`` record
    count and replaces each record's ``u32 key_len`` with
    ``u32 lcp | u32 suffix_len``, so
    ``len(wire) == 4 + batch.nbytes + 4 * len(batch) - saved_bytes``.
    """
    keys = batch.keys()
    out = [struct.pack("<I", len(keys))]
    prev = b""
    saved = 0
    for i, key in enumerate(keys):
        lcp = _lcp(prev, key)
        suffix = key[lcp:]
        out.append(struct.pack("<II", lcp, len(suffix)))
        out.append(suffix)
        out.append(struct.pack("<Q", batch.payload_at(i)))
        saved += lcp
        prev = key
    return b"".join(out), saved


def lcp_decode_batch(buf) -> VarlenBatch:
    mv = memoryview(buf).cast("B")
    (n,) = struct.unpack_from("<I", mv, 0)
    off = 4
    keys: List[bytes] = []
    payloads: List[int] = []
    prev = b""
    for _ in range(n):
        lcp, suffix_len = struct.unpack_from("<II", mv, off)
        off += 8
        key = prev[:lcp] + bytes(mv[off : off + suffix_len])
        off += suffix_len
        payloads.append(struct.unpack_from("<Q", mv, off)[0])
        off += 8
        keys.append(key)
        prev = key
    if off != len(mv):
        raise ValueError(f"lcp record block: {len(mv) - off} trailing bytes")
    return VarlenBatch.build(keys, payloads)


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
    """
    total = acc
    for i in range(len(batch)):
        key = batch.key_at(i)
        contrib = (zlib.crc32(key) * 0x9E3779B1 + batch.payload_at(i) + 1)
        total = (total + contrib) & _U64_MASK
    return total


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


# -- the record-model registry ----------------------------------------------


class RecordModel:
    """What the rest of the backend needs to know about a record format.

    ``name`` is the job-spec / CLI token; ``varlen`` selects the phase
    implementations (fixed-slot vs byte-rank); ``nominal_bytes`` is the
    per-record figure used for *sizing* (memory budgets, block sizing,
    records-per-worker) — for the string model it is the same 16 bytes,
    so a given ``--data-mib`` sorts the same record count under either
    model and sizing-sensitive invariants stay comparable.
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
    """The paper's fixed 16-byte (u64 key, u64 payload) element."""

    name = "fixed16"
    varlen = False

    def read_output(self, path: str) -> np.ndarray:
        return np.fromfile(path, dtype=NATIVE_DTYPE)

    def output_keys(self, path: str) -> np.ndarray:
        return keys_of(self.read_output(path))


class StringModel(RecordModel):
    """Length-prefixed variable records with byte-string keys."""

    name = "string"
    varlen = True

    def read_output(self, path: str) -> VarlenBatch:
        return read_varlen_file(path)

    def output_keys(self, path: str) -> List[bytes]:
        return self.read_output(path).keys()


MODELS = {"fixed16": Fixed16Model(), "string": StringModel()}


def resolve_model(name: str) -> RecordModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown record model {name!r} (expected one of "
            f"{', '.join(sorted(MODELS))})"
        ) from None
