"""Service-level statistics: the scheduler's own counters.

Per-job sort statistics stay where they always were
(:class:`~repro.native.stats.NativeStats` on each finished job's
result); this module aggregates what only the *service* can see —
queue behaviour, admission waits, pool utilization, restarts and
respawns — into one JSON-safe snapshot surfaced by the ``stats``
control command and ``python -m repro jobs --stats``.
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = ["ServiceStats"]


class ServiceStats:
    """Mutable counters owned by the scheduler (callers hold its lock)."""

    def __init__(self):
        self.started = time.monotonic()
        self.submitted = 0
        self.rejected = 0
        self.done = 0
        self.failed = 0
        self.cancelled = 0
        #: Job restarts performed by the per-job supervisor policy.
        self.restarts = 0
        #: Dispatches (attempts), including restarts.
        self.dispatches = 0
        self.queue_depth_peak = 0
        self._admission_waits: List[float] = []

    def note_queue_depth(self, depth: int) -> None:
        self.queue_depth_peak = max(self.queue_depth_peak, depth)

    def note_admission_wait(self, seconds: float) -> None:
        self._admission_waits.append(float(seconds))

    def snapshot(self, pool, queue_depth: int, running: int,
                 reserved_mem: int, reserved_spill: int,
                 memory_budget: int, spill_budget) -> Dict:
        """One JSON-safe view of the whole service."""
        uptime = max(time.monotonic() - self.started, 1e-9)
        waits = self._admission_waits
        busy_now = 0.0
        workers = []
        for handle in pool.handles:
            busy = handle.busy_seconds
            if handle.busy_since is not None:
                busy += time.monotonic() - handle.busy_since
                busy_now += 1
            workers.append({
                "worker_id": handle.worker_id,
                "pid": handle.pid,
                "alive": handle.proc.is_alive(),
                "busy": handle.busy_seq is not None,
                "job": handle.job_id,
                "jobs_run": handle.jobs_run,
                "busy_seconds": round(busy, 6),
            })
        total_busy = sum(w["busy_seconds"] for w in workers)
        return {
            "uptime_s": round(uptime, 3),
            "jobs": {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "done": self.done,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "running": running,
                "queued": queue_depth,
            },
            "restarts": self.restarts,
            "dispatches": self.dispatches,
            "respawns": pool.respawns,
            "queue": {
                "depth": queue_depth,
                "depth_peak": self.queue_depth_peak,
            },
            "admission": {
                "waits": len(waits),
                "wait_total_s": round(sum(waits), 6),
                "wait_max_s": round(max(waits), 6) if waits else 0.0,
            },
            "budget": {
                "memory_bytes": memory_budget,
                "memory_reserved_bytes": reserved_mem,
                "spill_bytes": spill_budget,
                "spill_reserved_bytes": reserved_spill,
            },
            "pool": {
                "size": pool.size,
                "busy": int(busy_now),
                "utilization": round(total_busy / (pool.size * uptime), 6),
                "workers": workers,
            },
        }
