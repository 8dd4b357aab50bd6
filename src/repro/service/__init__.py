"""Sort-as-a-service: a persistent multi-job scheduler over a warm PE pool.

The native backend (:mod:`repro.native`) runs one sort per pool of PEs
(:mod:`repro.native.pool`: persistent worker processes with
per-dispatch fresh meshes and an interrupt channel); this package keeps
one pool alive and multiplexes many sorts over it:

* :mod:`repro.service.jobs` — the client-facing job spec, cost model
  and per-job state machine;
* :mod:`repro.service.daemon` — :class:`SortService`: FIFO admission
  over memory/spill budgets, per-job restart supervision, worker
  respawn, and the JSON-over-TCP control plane;
* :mod:`repro.service.client` — :class:`SortClient`, the wire client;
* :mod:`repro.service.cli` — ``python -m repro serve | submit | jobs``.

See ``docs/SERVICE.md`` for the design rationale.
"""

from .client import SortClient
from .daemon import SortService
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SPEC_FIELDS,
    JobRejected,
    ServiceError,
)

__all__ = [
    "SortService",
    "SortClient",
    "ServiceError",
    "JobRejected",
    "SPEC_FIELDS",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
]
