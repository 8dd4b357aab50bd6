"""Length-prefixed binary framing for the TCP transport.

A TCP stream has no message boundaries, so every message travels as one
*frame*:

.. code-block:: text

    offset  size  field
    0       2     magic  "RS"
    2       1     version (2)
    3       1     kind    (MSG / HELLO / WELCOME / MESH / RESULT / ... / CTRL)
    4       1     flags   (bit 0: RAW payload; bit 1: JSON meta)
    5       1     fence   (u8, epoch half of the (job, epoch) fence)
    6       4     job     (u32, job half of the (job, epoch) fence)
    10      4     epoch   (u32, collective epoch tag; 0 = untagged)
    14      4     meta_len    (u32, pickled — or JSON — message bytes)
    18      8     payload_len (u64, raw record bytes; 0 unless FLAG_RAW)
    26      4     crc     (u32, CRC-32 over meta then payload)
    30      ...   meta || payload

Three paths share this layout:

* **Control messages** pickle the whole tuple into ``meta`` and carry no
  payload.
* **Bulk record chunks** — an exchange message whose tuple ends in a
  large bytes-like item — split off that item: the tuple *minus* the
  trailing buffer is pickled into ``meta`` and the buffer itself rides
  as the raw payload (``FLAG_RAW``).  The send side pushes header, meta
  and the caller's buffer with one gather write (``sendmsg``), so record
  bytes are never copied into a concatenation; the receive side reads
  the payload straight into a preallocated ``bytearray`` — or into the
  buffer its ``into`` callback names, an ``alltoall`` landing slot — and
  reattaches it as the tuple's last element (``np.frombuffer`` accepts
  it without a copy).  Exchange traffic arrives one level down —
  ``("__xch__", epoch, ("a2a", ..., buf))`` — so the splitter also peels
  a buffer that ends the message's *last nested tuple* and marks the
  frame ``FLAG_NESTED`` so the receive side reattaches it at the right
  depth.  Without the nested case every all-to-all chunk would silently
  fall back to a full pickle (a copy of every record byte).
* **Service control-plane messages** (``FLAG_JSON``, normally with
  ``KIND_CTRL``) carry UTF-8 JSON in ``meta`` instead of a pickle —
  the sort service's client protocol, language-neutral and free of the
  arbitrary-code surface unpickling would give a remote client.  Sent
  with :func:`send_json_frame`; :func:`recv_frame` decodes them
  transparently.

The **fence** is composite: the u8 ``fence`` byte carries the sender's
*job epoch* (restart attempt number, modulo 256) and the u32 ``job``
field carries its *job tag* (the sort service's numeric job identity; 0
for single-shot runs).  :func:`~repro.native.comm_api.pack_fence`
combines the two into one integer — ``(job << 8) | epoch`` — which is
what the ``fence`` argument and return value below hold.  After a
recovery restart the mesh is rebuilt, but a wedged pre-restart process
can in principle still hold a socket and push stale MSG frames — and on
a warm service pool a late frame could even belong to another *job*;
the comm layer drops any MSG frame whose composite fence disagrees with
its own (counted, never raised), so an epoch can never consume a dead
epoch's traffic and a job can never consume another job's.  Handshake
and result kinds carry the fence too, for observability, but only MSG
is fenced.

Integrity: a wrong magic/version, an implausible length, a CRC mismatch,
an undecodable pickle, or an epoch tag that disagrees with the decoded
message all raise :class:`~repro.native.comm_api.CommError`; mid-frame
EOF (a peer died while sending) does too.  A socket timeout mid-frame
surfaces as :class:`~repro.native.comm_api.CommTimeout` — a wedged peer,
not a dead one.  EOF *between* frames returns ``None`` (clean close).
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
    "split_raw_nested",
    "reattach_payload",
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
    "encode_frame",
    "send_frame",
    "send_raw_frame",
    "send_json_frame",
    "recv_frame",
]

MAGIC = b"RS"
VERSION = 2

FRAME_HEADER = struct.Struct("!2sBBBBIIIQI")

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

#: Sanity bounds: a header claiming more than this is garbage (a torn
#: stream or a non-frame peer), not a plausible message.
MAX_META_BYTES = 64 * 2**20
MAX_PAYLOAD_BYTES = 4 * 2**30

#: A trailing buffer at least this large takes the zero-copy RAW path;
#: smaller ones aren't worth the second crc32 pass.
RAW_THRESHOLD = 256


def _split_raw(msg: tuple):
    """``(meta_tuple, payload)`` — peel a trailing buffer, if any.

    ``bytes``/``bytearray`` below :data:`RAW_THRESHOLD` stay in the
    pickled meta (the RAW machinery is not worth 17 extra header bytes
    for tiny control payloads); a ``memoryview`` is peeled at *any*
    size — views exist only on the zero-copy hot path and can never be
    pickled, so a short final chunk must still ride the RAW path.
    """
    if isinstance(msg, tuple) and msg:
        tail = msg[-1]
        if isinstance(tail, memoryview) or (
            isinstance(tail, (bytes, bytearray))
            and len(tail) >= RAW_THRESHOLD
        ):
            return msg[:-1], tail
    return msg, None


def split_raw_nested(msg: tuple):
    """``(meta_msg, payload, nested)`` — peel a large trailing buffer.

    Checks the outer tuple first, then one level down (the exchange
    wrapper ``("__xch__", epoch, ("a2a", ..., buf))``); ``nested`` says
    which case fired so :func:`reattach_payload` can undo the split.
    """
    meta, payload = _split_raw(msg)
    if payload is not None:
        return meta, payload, False
    if isinstance(msg, tuple) and msg and isinstance(msg[-1], tuple):
        inner_meta, payload = _split_raw(msg[-1])
        if payload is not None:
            return msg[:-1] + (inner_meta,), payload, True
    return msg, None, False


def reattach_payload(msg: tuple, payload, nested: bool):
    """Reattach a RAW ``payload`` where :func:`split_raw_nested` took it."""
    if not isinstance(msg, tuple) or not msg:
        raise CommError("RAW frame whose meta is not a tuple")
    if nested:
        if not isinstance(msg[-1], tuple):
            raise CommError("nested RAW frame whose trailing meta is not a tuple")
        return msg[:-1] + (msg[-1] + (payload,),)
    return msg + (payload,)


def _send_all(sock: socket.socket, parts) -> int:
    """Gather-write ``parts`` (bytes-likes) fully; returns total bytes."""
    views = [memoryview(p) for p in parts if len(p)]
    total = sum(len(v) for v in views)
    if not views:
        return 0
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX fallback
        sock.sendall(b"".join(views))
        return total
    while views:
        n = sock.sendmsg(views)
        while n:
            if n >= len(views[0]):
                n -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][n:]
                n = 0
    return total


def _frame_parts(kind: int, msg, epoch: Optional[int], fence: int):
    if epoch is None:
        epoch = message_epoch(msg)
    meta_msg, payload, nested = split_raw_nested(msg)
    meta = pickle.dumps(meta_msg, protocol=pickle.HIGHEST_PROTOCOL)
    flags = 0
    payload_len = 0
    crc = zlib.crc32(meta)
    parts = [b"", meta]
    if payload is not None:
        flags |= FLAG_RAW | (FLAG_NESTED if nested else 0)
        payload_len = len(payload)
        crc = zlib.crc32(payload, crc)
        parts.append(payload)
    parts[0] = FRAME_HEADER.pack(
        MAGIC, VERSION, kind, flags, fence & 0xFF, (fence >> 8) & 0xFFFFFFFF,
        epoch, len(meta), payload_len, crc
    )
    return parts


def send_frame(
    sock: socket.socket, kind: int, msg, epoch: Optional[int] = None,
    fence: int = 0
) -> int:
    """Frame and send one message; returns bytes pushed to the socket.

    ``epoch`` defaults to the message's own collective tag (see
    :func:`~repro.native.comm_api.message_epoch`); ``fence`` is the
    sender's composite (job, epoch) fence (see
    :func:`~repro.native.comm_api.pack_fence`; a bare job epoch < 256
    still works — its job half is simply 0).  Bulk chunks take the
    gather-write RAW path — the record buffer goes from the caller's
    memory to the kernel without an intermediate copy.
    """
    return _send_all(sock, _frame_parts(kind, msg, epoch, fence))


def encode_frame(kind: int, msg, epoch: Optional[int] = None,
                 fence: int = 0) -> bytes:
    """Encode a frame to bytes without sending it (tests and chaos)."""
    return b"".join(bytes(p) for p in _frame_parts(kind, msg, epoch, fence))


def send_raw_frame(
    sock: socket.socket, kind: int, meta: bytes, fence: int = 0
) -> int:
    """Send pre-encoded bytes as a frame's meta, without pickling.

    The chaos harness uses this to deliver *deliberately* corrupt pickle
    bytes through an intact frame — the framing layer must pass them and
    the unpickling layer must reject them.
    """
    header = FRAME_HEADER.pack(
        MAGIC, VERSION, kind, 0, fence & 0xFF, (fence >> 8) & 0xFFFFFFFF,
        0, len(meta), 0, zlib.crc32(meta)
    )
    return _send_all(sock, [header, meta])


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
    header = FRAME_HEADER.pack(
        MAGIC, VERSION, kind, FLAG_JSON, fence & 0xFF,
        (fence >> 8) & 0xFFFFFFFF, 0, len(meta), 0, zlib.crc32(meta)
    )
    return _send_all(sock, [header, meta])


def _recv_exact(
    sock: socket.socket, view: memoryview, what: str, allow_eof: bool = False
) -> bool:
    """Fill ``view`` from the socket; False on clean EOF at offset 0."""
    got = 0
    n = len(view)
    while got < n:
        try:
            k = sock.recv_into(view[got:])
        except socket.timeout as exc:
            raise CommTimeout(
                f"socket timed out mid-{what} ({got}/{n} bytes in): "
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


def recv_frame(
    sock: socket.socket,
    into: Optional[Callable[[int, int, int], Optional[memoryview]]] = None,
) -> Optional[Tuple[int, object, int, int, int]]:
    """Receive one frame: ``(kind, msg, epoch, fence, total_bytes)``.

    ``None`` means the peer closed the connection cleanly at a frame
    boundary.  ``into(epoch, fence, payload_len)`` may name the buffer a
    MSG frame's outer RAW payload is read into (``None``: a fresh
    ``bytearray``); that buffer is what the message then carries, and
    the CRC covers it as it would the fresh one.  Any mid-frame EOF,
    bad magic, implausible length, CRC mismatch, undecodable meta or
    epoch/tag disagreement raises
    :class:`CommError`; a receive timeout raises :class:`CommTimeout`.
    The composite fence — ``(job << 8) | epoch_byte``, see
    :func:`~repro.native.comm_api.pack_fence` — is returned raw:
    fencing policy (drop stale MSG frames) lives in the comm layer,
    which knows its own (job, epoch) identity.
    """
    header = bytearray(FRAME_HEADER.size)
    if not _recv_exact(sock, memoryview(header), "header", allow_eof=True):
        return None
    (magic, version, kind, flags, fence_lo, job, epoch, meta_len,
     payload_len, crc) = FRAME_HEADER.unpack(header)
    fence = (job << 8) | fence_lo
    if magic != MAGIC or version != VERSION:
        raise CommError(
            f"bad frame header (magic {magic!r}, version {version}): "
            "stream corrupt or peer speaks another protocol"
        )
    if kind not in _KINDS:
        raise CommError(f"unknown frame kind {kind}")
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
    meta = bytearray(meta_len)
    _recv_exact(sock, memoryview(meta), "meta")
    want_crc = zlib.crc32(meta)
    payload = None
    if flags & FLAG_RAW:
        if into is not None and kind == KIND_MSG and not flags & FLAG_NESTED:
            payload = into(epoch, fence, payload_len)
        if payload is None:
            payload = bytearray(payload_len)
        _recv_exact(sock, memoryview(payload), "payload")
        want_crc = zlib.crc32(payload, want_crc)
    if want_crc != crc:
        raise CommError(
            f"frame CRC mismatch ({crc:#010x} claimed, {want_crc:#010x} "
            "computed): bytes corrupted in flight"
        )
    try:
        if flags & FLAG_JSON:
            msg = json.loads(bytes(meta).decode("utf-8"))
        else:
            msg = pickle.loads(bytes(meta))
    except Exception as exc:
        raise CommError(f"undecodable frame meta: {exc!r}") from exc
    if payload is not None:
        # Reattach the record buffer without copying it: downstream
        # consumers (np.frombuffer, struct.unpack_from, file writes)
        # all accept a bytearray.
        msg = reattach_payload(msg, payload, bool(flags & FLAG_NESTED))
    if kind == KIND_MSG and epoch != message_epoch(msg):
        raise CommError(
            f"frame epoch tag {epoch} disagrees with message epoch "
            f"{message_epoch(msg)}: stream out of step"
        )
    total = FRAME_HEADER.size + meta_len + payload_len
    return kind, msg, epoch, fence, total
