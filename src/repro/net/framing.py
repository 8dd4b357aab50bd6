"""The one wire format of every mesh channel: length-prefixed frames.

Pipes, TCP sockets and shared-memory rings are byte streams without
message boundaries, so every message travels as one *frame*:

.. code-block:: text

    offset  size  field
    0       2     magic  "RS"
    2       1     version (2)
    3       1     kind    (MSG / HELLO / WELCOME / MESH / RESULT / ... / CTRL)
    4       1     flags   (bit 0 RAW payload; bit 1 JSON meta;
                           bit 2 NESTED payload; bit 3 CRC)
    5       1     fence   (u8, epoch half of the (job, epoch) fence)
    6       4     job     (u32, job half of the (job, epoch) fence)
    10      4     epoch   (u32, collective epoch tag; 0 = untagged)
    14      4     meta_len    (u32, pickled — or JSON — message bytes)
    18      8     payload_len (u64, raw record bytes; 0 unless FLAG_RAW)
    26      4     crc     (u32; 0 unless FLAG_CRC)
    30      ...   meta || payload

Three paths share this layout:

* **Control messages** pickle the whole tuple into ``meta`` and carry no
  payload.
* **Bulk record chunks** — a message whose tuple ends in a large
  bytes-like item — split off that item: the tuple *minus* the trailing
  buffer is pickled into ``meta`` and the buffer itself rides as the raw
  payload (``FLAG_RAW``).  :func:`frame_parts` returns header, meta and
  the caller's buffer as separate parts for one gather write, so record
  bytes are never copied into a concatenation; :func:`read_frame` reads
  the payload straight into a preallocated ``bytearray`` — or into the
  buffer its ``into`` callback names, an ``alltoall`` landing slot — and
  reattaches it as the tuple's last element (``np.frombuffer`` accepts
  it without a copy).  Exchange traffic arrives one level down —
  ``("__xch__", epoch, ("a2a", ..., buf))`` — so the splitter also peels
  a buffer that ends the message's *last nested tuple* and marks the
  frame ``FLAG_NESTED`` so the receive side reattaches it at the right
  depth.
* **Service control-plane messages** (``FLAG_JSON``, normally with
  ``KIND_CTRL``) carry UTF-8 JSON in ``meta`` instead of a pickle —
  the sort service's client protocol, language-neutral and free of the
  arbitrary-code surface unpickling would give a remote client.  Sent
  with :func:`send_json_frame`; :func:`recv_frame` decodes them
  transparently.

**CRC.**  A frame with ``FLAG_CRC`` carries a CRC-32 over its first 26
header bytes, its meta and its payload, and every such frame is checked
on receipt.  Socket frames always carry it (:func:`send_frame`,
:func:`recv_frame` demands it); pipe and shm frames do not — the kernel
or the shared mapping cannot flip bits, and a payload CRC costs about a
third of a pipe's throughput.

The **fence** is composite: the u8 ``fence`` byte carries the sender's
*job epoch* (restart attempt number, modulo 256) and the u32 ``job``
field carries its *job tag* (the sort service's numeric job identity; 0
for single-shot runs).  :func:`~repro.native.comm_api.pack_fence`
combines the two into one integer — ``(job << 8) | epoch`` — which is
what the ``fence`` argument and return value below hold.  The frame
layer returns it raw; :class:`~repro.native.comm_api.MeshComm` drops
any MSG frame whose fence disagrees with its own (counted, never
raised), so an epoch can never consume a dead epoch's traffic and a job
can never consume another job's.

Integrity: a wrong magic/version, an unknown kind or flag, an
implausible length, a CRC mismatch, an undecodable meta, or an epoch
tag that disagrees with the decoded message all raise
:class:`~repro.native.comm_api.CommError`; mid-frame EOF (a peer died
while sending) does too.  A read that stalls mid-frame surfaces as
:class:`~repro.native.comm_api.CommTimeout` — a wedged peer, not a dead
one.  EOF *between* frames returns ``None`` (clean close).
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import zlib
from typing import Callable, Optional, Tuple

from ..native.comm_api import CommError, CommTimeout, message_epoch

__all__ = [
    "FRAME_HEADER",
    "MAGIC",
    "VERSION",
    "FLAG_RAW",
    "FLAG_JSON",
    "FLAG_NESTED",
    "FLAG_CRC",
    "KIND_MSG",
    "KIND_HELLO",
    "KIND_WELCOME",
    "KIND_MESH",
    "KIND_RESULT",
    "KIND_HEARTBEAT",
    "KIND_GOODBYE",
    "KIND_RESUME",
    "KIND_CTRL",
    "MAX_META_BYTES",
    "MAX_PAYLOAD_BYTES",
    "frame_parts",
    "encode_frame",
    "write_parts",
    "send_frame",
    "send_raw_frame",
    "send_json_frame",
    "read_frame",
    "recv_frame",
]

MAGIC = b"RS"
VERSION = 2

FRAME_HEADER = struct.Struct("!2sBBBBIIIQI")
#: The header minus its trailing crc field: what the CRC covers first.
_CHECKED_HEADER = struct.Struct("!2sBBBBIIIQ")

#: Frame kinds.  MSG carries comm traffic; HELLO/WELCOME/MESH belong to
#: the rendezvous handshake; RESULT is the worker's report to the
#: driver; HEARTBEAT keeps idle connections observably alive; GOODBYE
#: announces a deliberate close (EOF without one = dead PE); RESUME is
#: the epoch>0 rendezvous reply — the job plus its manifest digest;
#: CTRL is the sort service's JSON client protocol (submit/status/...).
KIND_MSG = 0
KIND_HELLO = 1
KIND_WELCOME = 2
KIND_MESH = 3
KIND_RESULT = 4
KIND_HEARTBEAT = 5
KIND_GOODBYE = 6
KIND_RESUME = 7
KIND_CTRL = 8

_KINDS = frozenset(
    (KIND_MSG, KIND_HELLO, KIND_WELCOME, KIND_MESH, KIND_RESULT,
     KIND_HEARTBEAT, KIND_GOODBYE, KIND_RESUME, KIND_CTRL)
)

FLAG_RAW = 0x01
FLAG_JSON = 0x02
#: The RAW payload was peeled from the message's trailing *nested*
#: tuple (the exchange shape) rather than the outer tuple; the receive
#: side must reattach it one level down.
FLAG_NESTED = 0x04
#: The crc field covers the header, meta and payload (every socket frame).
FLAG_CRC = 0x08
_FLAGS = FLAG_RAW | FLAG_JSON | FLAG_NESTED | FLAG_CRC

#: Sanity bounds: a header claiming more than this is garbage (a torn
#: stream or a non-frame peer), not a plausible message.
MAX_META_BYTES = 64 * 2**20
MAX_PAYLOAD_BYTES = 4 * 2**30

#: A trailing buffer at least this large takes the zero-copy RAW path;
#: smaller ones ride in the pickle.
RAW_THRESHOLD = 256


def _split_raw(msg: tuple):
    """``(meta_tuple, payload)`` — peel a trailing buffer, if any.

    ``bytes``/``bytearray`` below :data:`RAW_THRESHOLD` stay in the
    pickled meta (the RAW machinery is not worth it for tiny control
    payloads); a ``memoryview`` is peeled at *any* size — views exist
    only on the zero-copy hot path and can never be pickled, so a short
    final chunk must still ride the RAW path.
    """
    if isinstance(msg, tuple) and msg:
        tail = msg[-1]
        if isinstance(tail, memoryview) or (
            isinstance(tail, (bytes, bytearray))
            and len(tail) >= RAW_THRESHOLD
        ):
            return msg[:-1], tail
    return msg, None


def _split_raw_nested(msg: tuple):
    """``(meta_msg, payload, nested)`` — peel a large trailing buffer.

    Checks the outer tuple first, then one level down (the exchange
    wrapper ``("__xch__", epoch, ("a2a", ..., buf))``); ``nested`` says
    which case fired so :func:`_reattach_payload` can undo the split.
    """
    meta, payload = _split_raw(msg)
    if payload is not None:
        return meta, payload, False
    if isinstance(msg, tuple) and msg and isinstance(msg[-1], tuple):
        inner_meta, payload = _split_raw(msg[-1])
        if payload is not None:
            return msg[:-1] + (inner_meta,), payload, True
    return msg, None, False


def _reattach_payload(msg: tuple, payload, nested: bool):
    """Reattach a RAW ``payload`` where :func:`_split_raw_nested` took it."""
    if not isinstance(msg, tuple) or not msg:
        raise CommError("RAW frame whose meta is not a tuple")
    if nested:
        if not isinstance(msg[-1], tuple):
            raise CommError("nested RAW frame whose trailing meta is not a tuple")
        return msg[:-1] + (msg[-1] + (payload,),)
    return msg + (payload,)


def _header(kind: int, flags: int, fence: int, epoch: int, meta,
            payload=None) -> bytes:
    """Pack a header; with ``FLAG_CRC`` in ``flags``, compute its crc."""
    head = _CHECKED_HEADER.pack(
        MAGIC, VERSION, kind, flags, fence & 0xFF, (fence >> 8) & 0xFFFFFFFF,
        epoch, len(meta), 0 if payload is None else len(payload),
    )
    crc = 0
    if flags & FLAG_CRC:
        crc = zlib.crc32(meta, zlib.crc32(head))
        if payload is not None:
            crc = zlib.crc32(payload, crc)
    return head + crc.to_bytes(4, "big")


def frame_parts(kind: int, msg, epoch: Optional[int] = None, fence: int = 0,
                crc: bool = True) -> list:
    """One message as gather-write parts: header, meta and any payload.

    ``epoch`` defaults to the message's own collective tag (see
    :func:`~repro.native.comm_api.message_epoch`); ``fence`` is the
    sender's composite (job, epoch) fence (see
    :func:`~repro.native.comm_api.pack_fence`; a bare job epoch < 256
    still works — its job half is simply 0).  The payload part is the
    caller's own buffer, not a copy.
    """
    if epoch is None:
        epoch = message_epoch(msg)
    meta_msg, payload, nested = _split_raw_nested(msg)
    meta = pickle.dumps(meta_msg, protocol=pickle.HIGHEST_PROTOCOL)
    flags = FLAG_CRC if crc else 0
    if payload is None:
        return [_header(kind, flags, fence, epoch, meta), meta]
    flags |= FLAG_RAW | (FLAG_NESTED if nested else 0)
    payload = memoryview(payload).cast("B")
    return [_header(kind, flags, fence, epoch, meta, payload), meta, payload]


def encode_frame(kind: int, msg, epoch: Optional[int] = None,
                 fence: int = 0, crc: bool = True) -> bytes:
    """Encode a frame to bytes without sending it (tests and chaos)."""
    return b"".join(frame_parts(kind, msg, epoch, fence, crc))


def write_parts(send: Callable[[list], int], parts) -> int:
    """Gather-write ``parts`` fully through ``send``; returns the bytes.

    ``send`` is ``sock.sendmsg`` or ``os.writev`` bound to an fd; a
    short write resumes where it stopped.
    """
    views = [memoryview(p) for p in parts if len(p)]
    total = sum(len(v) for v in views)
    while views:
        n = send(views)
        while n:
            if n >= len(views[0]):
                n -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][n:]
                n = 0
    return total


def send_frame(
    sock: socket.socket, kind: int, msg, epoch: Optional[int] = None,
    fence: int = 0
) -> int:
    """Frame one message, CRC included, and send it; returns the bytes.

    Bulk chunks go from the caller's memory to the kernel in one gather
    write, without an intermediate copy.
    """
    return write_parts(sock.sendmsg, frame_parts(kind, msg, epoch, fence))


def send_raw_frame(
    sock: socket.socket, kind: int, meta: bytes, fence: int = 0
) -> int:
    """Send pre-encoded bytes as a frame's meta, without pickling.

    The chaos harness uses this to deliver *deliberately* corrupt pickle
    bytes through an intact frame — the framing layer must pass them and
    the unpickling layer must reject them.
    """
    header = _header(kind, FLAG_CRC, fence, 0, meta)
    return write_parts(sock.sendmsg, [header, meta])


def send_json_frame(
    sock: socket.socket, kind: int, obj, fence: int = 0
) -> int:
    """Send ``obj`` as a UTF-8 JSON frame (``FLAG_JSON``, no payload).

    The sort service's control plane: a client need not (and must not)
    rely on pickle, so a malicious or buggy peer can at worst deliver
    bad JSON — rejected as a :class:`CommError` — never executable
    bytes.  ``obj`` must be JSON-serializable.
    """
    meta = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(meta) > MAX_META_BYTES:
        raise CommError(
            f"JSON control message of {len(meta)} bytes exceeds the "
            f"{MAX_META_BYTES}-byte frame bound"
        )
    header = _header(kind, FLAG_JSON | FLAG_CRC, fence, 0, meta)
    return write_parts(sock.sendmsg, [header, meta])


def _read_exact(read_into, view: memoryview, what: str,
                allow_eof: bool = False) -> bool:
    """Fill ``view`` through ``read_into``; False on clean EOF at offset 0."""
    got = 0
    n = len(view)
    while got < n:
        try:
            k = read_into(view[got:])
        except TimeoutError as exc:
            raise CommTimeout(
                f"read timed out mid-{what} ({got}/{n} bytes in): "
                "peer wedged"
            ) from exc
        if k == 0:
            if got == 0 and allow_eof:
                return False
            raise CommError(
                f"connection closed mid-{what} ({got}/{n} bytes in): "
                "torn frame"
            )
        got += k
    return True


def _read_fresh(read_into, n: int) -> bytearray:
    """A fresh ``n``-byte payload buffer, filled from the channel.

    Past :data:`MAX_META_BYTES` the buffer doubles as bytes arrive, so
    a corrupt length claims at most twice the memory the peer sent.
    """
    buf = bytearray(min(n, MAX_META_BYTES))
    done = 0
    while True:
        _read_exact(read_into, memoryview(buf)[done:], "payload")
        done = len(buf)
        if done == n:
            return buf
        buf += bytes(min(n - done, done))


def read_frame(
    read_into: Callable[[memoryview], int],
    into: Optional[Callable[[int, int, int], Optional[memoryview]]] = None,
    crc: bool = False,
) -> Optional[Tuple[int, object, int, int, int]]:
    """Read one frame: ``(kind, msg, epoch, fence, total_bytes)``.

    ``read_into(view)`` is the channel: it fills a prefix of ``view``
    and returns its length (0 at EOF), raising ``TimeoutError`` when
    the peer sends nothing for the channel's timeout.  ``None`` means
    the peer closed cleanly at a frame boundary.  ``into(epoch, fence,
    payload_len)`` may name the buffer a MSG frame's outer RAW payload
    is read into (``None``: a fresh ``bytearray``); that buffer is what
    the message then carries.  With ``crc`` the frame must carry
    ``FLAG_CRC``; a frame that carries it is checked either way.  Any
    mid-frame EOF, bad header, implausible length, CRC mismatch,
    undecodable meta or epoch/tag disagreement raises
    :class:`CommError`; a stall mid-frame raises :class:`CommTimeout`.
    The composite fence is returned raw: fencing policy lives in the
    comm layer, which knows its own (job, epoch) identity.
    """
    header = bytearray(FRAME_HEADER.size)
    if not _read_exact(read_into, memoryview(header), "header", allow_eof=True):
        return None
    (magic, version, kind, flags, fence_lo, job, epoch, meta_len,
     payload_len, want) = FRAME_HEADER.unpack(header)
    fence = (job << 8) | fence_lo
    if magic != MAGIC or version != VERSION:
        raise CommError(
            f"bad frame header (magic {magic!r}, version {version}): "
            "stream corrupt or peer speaks another protocol"
        )
    if kind not in _KINDS:
        raise CommError(f"unknown frame kind {kind}")
    if flags & ~_FLAGS:
        raise CommError(f"unknown frame flags {flags:#04x}")
    if meta_len > MAX_META_BYTES or payload_len > MAX_PAYLOAD_BYTES:
        raise CommError(
            f"implausible frame lengths (meta {meta_len}, payload "
            f"{payload_len}): stream corrupt"
        )
    if payload_len and not flags & FLAG_RAW:
        raise CommError("frame carries a payload but FLAG_RAW is unset")
    if flags & FLAG_JSON and flags & FLAG_RAW:
        raise CommError("frame claims both JSON meta and a RAW payload")
    if flags & FLAG_NESTED and not flags & FLAG_RAW:
        raise CommError("frame claims a nested payload but FLAG_RAW is unset")
    if want and not flags & FLAG_CRC:
        raise CommError("frame carries a crc but FLAG_CRC is unset")
    meta = bytearray(meta_len)
    _read_exact(read_into, memoryview(meta), "meta")
    payload = None
    if flags & FLAG_RAW:
        if into is not None and kind == KIND_MSG and not flags & FLAG_NESTED:
            payload = into(epoch, fence, payload_len)
        if payload is None:
            payload = _read_fresh(read_into, payload_len)
        else:
            _read_exact(read_into, memoryview(payload), "payload")
    if flags & FLAG_CRC:
        got = zlib.crc32(meta, zlib.crc32(memoryview(header)[:-4]))
        if payload is not None:
            got = zlib.crc32(payload, got)
        if got != want:
            raise CommError(
                f"frame CRC mismatch ({want:#010x} claimed, {got:#010x} "
                "computed): bytes corrupted in flight"
            )
    elif crc:
        raise CommError("frame lacks the CRC this channel demands")
    try:
        if flags & FLAG_JSON:
            msg = json.loads(bytes(meta).decode("utf-8"))
        else:
            msg = pickle.loads(meta)
    except Exception as exc:
        raise CommError(f"undecodable frame meta: {exc!r}") from exc
    if payload is not None:
        # Reattach the record buffer without copying it: downstream
        # consumers (np.frombuffer, struct.unpack_from, file writes)
        # all accept a bytearray.
        msg = _reattach_payload(msg, payload, bool(flags & FLAG_NESTED))
    if kind == KIND_MSG and epoch != message_epoch(msg):
        raise CommError(
            f"frame epoch tag {epoch} disagrees with message epoch "
            f"{message_epoch(msg)}: stream out of step"
        )
    return kind, msg, epoch, fence, FRAME_HEADER.size + meta_len + payload_len


def recv_frame(
    sock: socket.socket,
    into: Optional[Callable[[int, int, int], Optional[memoryview]]] = None,
) -> Optional[Tuple[int, object, int, int, int]]:
    """:func:`read_frame` from a socket, whose frames must carry their CRC.

    The socket's own timeout bounds each read: a peer that stops
    mid-frame raises :class:`CommTimeout`.
    """
    return read_frame(sock.recv_into, into, crc=True)
