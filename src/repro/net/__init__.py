"""Socket transport subsystem: run the native sort across real networks.

The pieces, bottom up:

* :mod:`repro.net.framing` — length-prefixed binary frames with epoch
  tags and zero-copy bulk paths, the message format of every channel
  (CRC-checked on sockets);
* :mod:`repro.net.rendezvous` — the coordinator handshake that turns
  independently launched worker processes into a full TCP mesh, plus
  the retry/backoff dialing and the worker's result channel;
* :mod:`repro.net.tcp` — :class:`TcpComm`, the socket implementation of
  the :class:`repro.native.comm_api.Comm` contract, with heartbeats,
  idle timeouts and kernel-level wire accounting.

``python -m repro --backend native --transport tcp`` runs the whole
sort over loopback sockets; ``python -m repro worker --connect`` joins
a worker from another terminal or another host.  See
``docs/TRANSPORT.md``.
"""

from .rendezvous import Coordinator, ResultChannel, connect_with_backoff, join_mesh, parse_hostport
from .tcp import TcpComm

__all__ = [
    "Coordinator",
    "ResultChannel",
    "TcpComm",
    "connect_with_backoff",
    "join_mesh",
    "parse_hostport",
]
