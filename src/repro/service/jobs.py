"""Service job model: specs over the wire, states in the scheduler.

A client describes a sort with a flat JSON-safe *spec* dict
(:data:`SPEC_FIELDS` documents every key); the service compiles it into
a :class:`~repro.native.job.NativeJob` bound to the shared spill
directory, stamps the job's wire identity (``job_tag``) and spill
namespace (``<id>-<fingerprint>``), and tracks it through the state
machine::

    QUEUED ──▶ ADMITTED ──▶ RUNNING ──▶ DONE
       │            │           ├─────▶ FAILED
       └────────────┴───────────┴─────▶ CANCELLED

``ADMITTED`` is the instant the admission controller reserved the job's
memory/spill budget and picked its workers; dispatch follows in the
same scheduler step, so the observable dwell time there is ~0 — the
state exists so budget reservation and execution are separately
auditable.  A restarting job (rank died, restarts remaining) goes back
to ``QUEUED`` at the *front* of the queue with its budget released, so
recovery never deadlocks against admission.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional

from ..core.config import ConfigError, SortConfig
from ..native.job import NativeJob
from ..recovery.manifest import job_fingerprint
from ..recovery.supervisor import RestartPolicy

__all__ = [
    "ServiceError",
    "JobRejected",
    "QUEUED",
    "ADMITTED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "SPEC_FIELDS",
    "SPEC_CHOICES",
    "build_native_job",
    "ServiceJob",
]

KiB = 1024
MiB = 1024 * 1024


class ServiceError(RuntimeError):
    """A service-level protocol or lifecycle error."""


class JobRejected(ServiceError):
    """The spec can never run on this service (bad knobs or too big)."""


QUEUED = "QUEUED"
ADMITTED = "ADMITTED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: Every accepted spec key, its type, and its default.  ``chaos`` is
#: library-only (not JSON-serializable); everything else round-trips
#: through the JSON control channel.
SPEC_FIELDS = {
    "label": (str, ""),
    "n_workers": (int, 2),
    "data_mib": (float, 1.0),
    "memory_mib": (float, 8.0),
    "block_kib": (float, 64.0),
    "seed": (int, 42),
    "skew": (bool, False),
    "randomize": (bool, True),
    "selection": (str, "sampled"),
    "sample_every": (int, None),
    "timeout": (float, 120.0),
    "transport": (str, "pipe"),
    "pending_sends": (int, 4),
    "prefetch_blocks": (int, 0),
    "write_behind_blocks": (int, 0),
    "max_restarts": (int, 0),
    "checkpoint": (bool, False),
    "a2a_checkpoint_chunks": (int, 8),
    "cleanup_on_abort": (bool, False),
    "records": (str, "fixed16"),
    "algo": (str, "canonical"),
    "shm_ring_kib": (int, None),
    "chaos": (object, None),
}

#: Choice-valued spec fields and their accepted values.  ``transport``
#: is narrower than the native layer's because the pool's PEs live in
#: one host: per-job meshes are pipe pairs or shm rings, never sockets.
SPEC_CHOICES = {
    "transport": ("pipe", "shm"),
    "selection": ("sampled", "basic", "bisect"),
    "records": ("fixed16", "string"),
    "algo": ("canonical", "striped"),
}

#: Numeric spec fields and their floors: (minimum, or None if the field
#: just has to be positive when present).  ``None`` values are allowed
#: everywhere (they mean "use the resolved default").
_SPEC_MINIMUMS = {
    "n_workers": 1,
    "data_mib": None,
    "memory_mib": None,
    "block_kib": None,
    "timeout": None,
    "pending_sends": 1,
    "prefetch_blocks": 0,
    "write_behind_blocks": 0,
    "max_restarts": 0,
    "a2a_checkpoint_chunks": 1,
    "sample_every": 1,
    "shm_ring_kib": 1,
}


def _reject(key: str, value, detail: str) -> JobRejected:
    """The uniform rejection message: key, offending value, what's legal."""
    return JobRejected(f"spec field {key!r}={value!r}: {detail}")


def _coerce(spec: dict) -> dict:
    out = {}
    for key, value in spec.items():
        if key not in SPEC_FIELDS:
            raise JobRejected(
                f"unknown spec field {key!r}; accepted: "
                f"{sorted(SPEC_FIELDS)}"
            )
        typ, _default = SPEC_FIELDS[key]
        if value is None or typ is object:
            out[key] = value
            continue
        try:
            out[key] = typ(value)
        except (TypeError, ValueError) as exc:
            raise JobRejected(f"spec field {key!r}={value!r}: {exc}") from exc
    for key, (_typ, default) in SPEC_FIELDS.items():
        out.setdefault(key, default)
    return out


def build_native_job(spec: dict, spill_dir: str) -> NativeJob:
    """Compile a client spec into a runnable :class:`NativeJob`.

    Raises :class:`JobRejected` on unknown fields or values the native
    layer rejects — the submit-time half of admission control (the
    budget half lives in the scheduler).  Identity fields (``job_tag``,
    ``spill_namespace``, ``epoch``) are left at their defaults; the
    service stamps them after assigning the job id.
    """
    spec = _coerce(spec)
    for key, accepted in SPEC_CHOICES.items():
        if spec[key] not in accepted:
            raise _reject(
                key, spec[key],
                "accepted values are " + ", ".join(repr(v) for v in accepted),
            )
    for key, floor in _SPEC_MINIMUMS.items():
        value = spec[key]
        if value is None:
            continue
        if floor is None:
            if value <= 0:
                raise _reject(key, value, "must be > 0")
        elif value < floor:
            raise _reject(key, value, f"must be >= {floor}")
    if spec["shm_ring_kib"] is not None and spec["transport"] != "shm":
        raise _reject(
            "shm_ring_kib", spec["shm_ring_kib"],
            f"only applies to transport='shm', got "
            f"transport={spec['transport']!r}",
        )
    try:
        config = SortConfig(
            data_per_node_bytes=spec["data_mib"] * MiB,
            memory_bytes=spec["memory_mib"] * MiB,
            block_bytes=spec["block_kib"] * KiB,
            seed=spec["seed"],
            randomize=spec["randomize"],
            selection=spec["selection"],
            sample_every=spec["sample_every"],
        )
        return NativeJob(
            config=config,
            n_workers=spec["n_workers"],
            spill_dir=spill_dir,
            skew=spec["skew"],
            timeout=spec["timeout"],
            transport=spec["transport"],
            pending_sends=spec["pending_sends"],
            prefetch_blocks=spec["prefetch_blocks"],
            write_behind_blocks=spec["write_behind_blocks"],
            chaos=spec["chaos"],
            max_restarts=spec["max_restarts"],
            checkpoint=spec["checkpoint"],
            a2a_checkpoint_chunks=spec["a2a_checkpoint_chunks"],
            cleanup_on_abort=spec["cleanup_on_abort"],
            records=spec["records"],
            algo=spec["algo"],
            shm_ring_kib=spec["shm_ring_kib"],
        )
    except ConfigError as exc:
        # Feasibility and cross-field constraints the native layer owns
        # (e.g. the paper's two-pass N = O(M^2/(P B)) limit) pass
        # through with their own wording; the uniform per-key checks
        # above already caught single-field mistakes.
        raise JobRejected(str(exc)) from exc


@dataclass
class ServiceJob:
    """One job's lifetime inside the service (scheduler-owned state)."""

    id: str
    num: int
    label: str
    job: NativeJob  # identity-stamped template; epoch applied per attempt
    mem_cost: int
    spill_cost: int
    state: str = QUEUED
    epoch: int = 0
    suspects: tuple = ()
    cancel_requested: bool = False
    error: Optional[str] = None
    #: The assembled NativeSortResult on DONE (library callers read the
    #: output files through it; the JSON surface carries a summary).
    result: Optional[object] = None
    policy: RestartPolicy = field(default_factory=lambda: RestartPolicy(0))
    done: threading.Event = field(default_factory=threading.Event)
    created_wall: float = field(default_factory=time.time)
    created: float = field(default_factory=time.monotonic)
    admitted: Optional[float] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Seconds spent waiting for admission (set when first admitted).
    admission_wait: Optional[float] = None

    @property
    def namespace(self) -> str:
        return self.job.spill_namespace

    def attempt_job(self) -> NativeJob:
        """The NativeJob for the *current* attempt (epoch + suspects)."""
        if self.epoch == 0 and not self.suspects:
            return self.job
        return dc_replace(
            self.job, epoch=self.epoch, suspect_ranks=tuple(self.suspects)
        )

    def snapshot(self, queue_position: Optional[int] = None) -> dict:
        """JSON-safe status view (what ``status``/``jobs`` return)."""
        out = {
            "id": self.id,
            "label": self.label,
            "state": self.state,
            "n_workers": self.job.n_workers,
            "total_records": self.job.total_records,
            "mem_cost_bytes": self.mem_cost,
            "spill_cost_bytes": self.spill_cost,
            "namespace": self.namespace,
            "epoch": self.epoch,
            "restarts": self.policy.restarts_used,
            "cancel_requested": self.cancel_requested,
            "created_at": self.created_wall,
            "error": self.error,
        }
        if queue_position is not None:
            out["queue_position"] = queue_position
        if self.admission_wait is not None:
            out["admission_wait_s"] = round(self.admission_wait, 6)
        if self.started is not None:
            end = self.finished if self.finished is not None else time.monotonic()
            out["run_time_s"] = round(end - self.started, 6)
        return out


def stamp_identity(job: NativeJob, num: int, job_id: str) -> NativeJob:
    """Bind a compiled job to its service identity.

    ``job_tag`` (the wire fence's job half) is the unique submission
    number; the spill namespace is ``<id>-<fingerprint[:8]>`` — unique
    per submission even when two clients submit byte-identical specs,
    yet still carrying the fingerprint so a human can match files to
    manifests.
    """
    fingerprint = job_fingerprint(job)
    return dc_replace(
        job,
        job_tag=num,
        spill_namespace=f"{job_id}-{fingerprint[:8]}",
    )


def job_costs(job: NativeJob) -> "tuple[int, int]":
    """(memory, spill) bytes this job charges against the budgets.

    Memory: M per worker (the native layer's working-set budget is
    honored per process, so the aggregate is exactly ``P·M``).  Spill:
    the footprint peaks at the end of the merge, when the input, the run
    pieces (the merge reads their kept ranges in place, so they live
    until the output is complete) and the output exist side by side — 3
    copies of the data volume — next to the slabs the all-to-all
    received.  Slabs are o(N) with high probability when the job
    randomizes its run formation (paper Section IV-D) and are not
    charged; without randomization up to N·(P−1)/P changes rank (the
    Figure 6 input moves N/2 on two PEs) and the ranges it was sent from
    are not freed, so such a job is charged for that much more.
    """
    mem = job.n_workers * job.memory_bytes
    data = job.total_records * job.record_bytes
    slabs = 0 if job.config.randomize else (
        data * (job.n_workers - 1) // job.n_workers
    )
    return int(mem), int(3 * data + slabs)
