"""Client side of the sort service: JSON-over-TCP on the framing layer.

A :class:`SortClient` talks to a running ``python -m repro serve``
daemon (or an in-process :class:`~repro.service.daemon.SortService`
with a listen address).  Every call is one request/reply exchange of
:data:`~repro.net.framing.KIND_CTRL` frames whose metadata is a JSON
object — no pickle crosses the trust boundary in either direction.

    >>> client = SortClient(("127.0.0.1", 7099))
    >>> jid = client.submit({"data_mib": 64, "n_workers": 4})
    >>> client.result(jid)["job"]["state"]
    'DONE'
"""

from __future__ import annotations

import socket
from typing import List, Optional, Tuple

from ..native.comm_api import CommError
from ..net.framing import KIND_CTRL, recv_frame, send_json_frame
from .jobs import ServiceError

__all__ = ["SortClient"]

#: Slack added on top of an application-level wait so the *socket*
#: timeout fires only when the service truly went silent, not while it
#: is still legitimately holding a long-poll open.
_SOCKET_SLACK = 15.0


class SortClient:
    """One connection to a sort service's control endpoint."""

    def __init__(self, addr: Tuple[str, int], timeout: float = 30.0):
        self.addr = (str(addr[0]), int(addr[1]))
        self.timeout = float(timeout)
        self._sock: Optional[socket.socket] = None

    # -- plumbing -------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.addr, timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _call(self, msg: dict, timeout: Optional[float] = None) -> dict:
        sock = self._connect()
        sock.settimeout((timeout or self.timeout) + _SOCKET_SLACK)
        try:
            send_json_frame(sock, KIND_CTRL, msg)
            frame = recv_frame(sock)
        except (OSError, CommError) as exc:
            self.close()
            raise ServiceError(f"service at {self.addr} unreachable: {exc}")
        if frame is None:
            self.close()
            raise ServiceError(f"service at {self.addr} closed the connection")
        _kind, reply, _epoch, _fence, _nbytes = frame
        if not isinstance(reply, dict):
            self.close()
            raise ServiceError(f"malformed reply: {reply!r}")
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "unknown service error"))
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "SortClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- commands -------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._call({"cmd": "ping"}).get("pong"))

    def submit(self, spec: dict) -> str:
        """Submit a sort spec (see ``repro.service.jobs.SPEC_FIELDS``)."""
        return str(self._call({"cmd": "submit", "spec": spec})["id"])

    def status(self, job_id: str) -> dict:
        return self._call({"cmd": "status", "id": job_id})["job"]

    def jobs(self) -> List[dict]:
        return self._call({"cmd": "jobs"})["jobs"]

    def stats(self) -> dict:
        return self._call({"cmd": "stats"})["stats"]

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's state afterwards."""
        return self._call({"cmd": "cancel", "id": job_id})["state"]

    def result(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Long-poll until the job is terminal; returns the full reply.

        The reply carries ``job`` (final snapshot) and, for a DONE job,
        ``result`` with validation, output-file metadata and the sort's
        :class:`~repro.core.stats.SortStats` dict.
        """
        return self._call(
            {"cmd": "result", "id": job_id, "timeout": timeout},
            timeout=timeout,
        )

    def shutdown(self) -> None:
        """Ask the service to shut down (reply comes before it stops)."""
        self._call({"cmd": "shutdown"})
        self.close()
