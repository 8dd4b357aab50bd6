"""Per-phase, per-worker statistics of a native sort.

The native twin of :class:`repro.core.stats.SortStats`: the same phase
names (:data:`repro.core.config.PHASES` plus ``generate``), but every
number is measured, not simulated — wall times from the monotonic clock,
I/O volumes from the byte counters of the
:class:`~repro.native.blockstore.FileBlockStore`, interconnect volumes
from the pipe mesh, and peak memory from ``getrusage`` where available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import PHASES

__all__ = ["WorkerStats", "NativeStats", "NATIVE_PHASES"]

#: Native phase order: input generation happens before the clock that
#: matters, but its cost is reported alongside the sort phases.
NATIVE_PHASES = ("generate",) + PHASES


@dataclass
class WorkerStats:
    """One worker process's measurements (sent to the driver at exit)."""

    rank: int
    #: Phase -> wall seconds.
    walls: Dict[str, float] = field(default_factory=dict)
    #: Phase -> bytes read / written through the block store.
    bytes_read: Dict[str, int] = field(default_factory=dict)
    bytes_written: Dict[str, int] = field(default_factory=dict)
    #: Phase -> read / write *operations* issued to the block store.
    read_ops: Dict[str, int] = field(default_factory=dict)
    write_ops: Dict[str, int] = field(default_factory=dict)
    #: Phase -> seconds the phase's *main thread* spent blocked on I/O
    #: (synchronous reads/writes, prefetch waits, write-behind backpressure).
    #: Background pipeline threads never count here — their I/O time is
    #: the overlap the pipelined path exists to create.
    io_stall_s: Dict[str, float] = field(default_factory=dict)
    #: Free-form counters (probe reads, cache hits, runs formed, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Bytes pushed through / pulled from the interconnect mesh.
    comm_bytes_sent: int = 0
    comm_bytes_received: int = 0
    #: Phase -> payload bytes actually sent to / received from *other*
    #: PEs (the wire; self-delivered exchange chunks excluded).
    comm_wire_sent: Dict[str, int] = field(default_factory=dict)
    comm_wire_recv: Dict[str, int] = field(default_factory=dict)
    #: Phase -> payload bytes an exchange delivered to *itself* (run
    #: formation's in-run exchange; the all-to-all keeps its local share
    #: on disk and self-delivers nothing — see ``a2a_kept_bytes``).
    comm_local_bytes: Dict[str, int] = field(default_factory=dict)
    #: Peer rank -> payload bytes sent to / received from that peer.
    comm_peer_sent: Dict[int, int] = field(default_factory=dict)
    comm_peer_recv: Dict[int, int] = field(default_factory=dict)
    #: Kernel-level socket bytes, framing included (TCP transport only;
    #: 0 on pipes).  The gap to the payload counts is framing overhead.
    comm_socket_bytes_sent: int = 0
    comm_socket_bytes_recv: int = 0
    #: Peak analytically tracked resident record bytes (working-set proof).
    peak_resident_bytes: int = 0
    #: OS-reported peak RSS in bytes (0 when unavailable).
    max_rss_bytes: int = 0

    def add_counter(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def note_max(self, name: str, value: float) -> None:
        """High-water-mark counter: keep the maximum observed value."""
        if value > self.counters.get(name, 0.0):
            self.counters[name] = float(value)

    def add_stall(self, phase: str, seconds: float) -> None:
        """Charge main-thread I/O wait time to ``phase``."""
        if seconds > 0:
            self.io_stall_s[phase] = self.io_stall_s.get(phase, 0.0) + seconds

    def note_resident(self, nbytes: int) -> None:
        """Record a transient record-data working set of ``nbytes``."""
        if nbytes > self.peak_resident_bytes:
            self.peak_resident_bytes = int(nbytes)


class NativeStats:
    """Aggregated statistics of one native sort (driver side)."""

    def __init__(self, workers: List[WorkerStats], total_time: float,
                 n_runs: int, total_records: int, record_bytes: int):
        self.workers = sorted(workers, key=lambda w: w.rank)
        self.total_time = total_time
        self.n_runs = n_runs
        self.total_records = total_records
        self.record_bytes = record_bytes
        self.phases: List[str] = [
            p for p in NATIVE_PHASES
            if any(p in w.walls for w in self.workers)
        ]
        #: Restart attempts the supervisor burned before this success
        #: (0 = first try) and the per-failure event log; both are
        #: stamped by the driver, not the workers.
        self.restarts: int = 0
        self.recovery_events: List[Dict] = []

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def total_bytes(self) -> int:
        return self.total_records * self.record_bytes

    # -- aggregation ----------------------------------------------------------

    def wall_max(self, phase: str) -> float:
        return max((w.walls.get(phase, 0.0) for w in self.workers), default=0.0)

    def wall_avg(self, phase: str) -> float:
        if not self.workers:
            return 0.0
        return sum(w.walls.get(phase, 0.0) for w in self.workers) / len(self.workers)

    def phase_bytes(self, phase: str) -> int:
        """Disk traffic (read + write) of a phase across all workers."""
        return sum(
            w.bytes_read.get(phase, 0) + w.bytes_written.get(phase, 0)
            for w in self.workers
        )

    def phase_throughput(self, phase: str) -> float:
        """Data-volume throughput of a phase in bytes/s (0 if untimed).

        Volume is the *represented* input size N — the quantity the
        paper's MB/s-per-phase numbers are normalized by — not the
        phase's raw disk traffic.
        """
        wall = self.wall_max(phase)
        return self.total_bytes / wall if wall > 0 else 0.0

    def counter_total(self, name: str) -> float:
        return sum(w.counters.get(name, 0.0) for w in self.workers)

    def stall_max(self, phase: str) -> float:
        """Worst per-worker main-thread I/O stall of a phase, seconds."""
        return max(
            (w.io_stall_s.get(phase, 0.0) for w in self.workers), default=0.0
        )

    def overlap_ratio(self, phase: str) -> float:
        """Fraction of the phase's wall time *not* spent stalled on I/O.

        1.0 means I/O was fully hidden behind computation (or there was
        none); 0.0 means the phase did nothing but wait for the disk.
        Computed from the slowest worker's wall and stall.
        """
        wall = self.wall_max(phase)
        if wall <= 0:
            return 1.0
        return max(0.0, min(1.0, 1.0 - self.stall_max(phase) / wall))

    def wire_sent(self, phase: str) -> int:
        """Payload bytes all workers sent to other PEs during ``phase``."""
        return sum(w.comm_wire_sent.get(phase, 0) for w in self.workers)

    def wire_recv(self, phase: str) -> int:
        """Payload bytes all workers received from other PEs in ``phase``."""
        return sum(w.comm_wire_recv.get(phase, 0) for w in self.workers)

    def local_bytes(self, phase: str) -> int:
        """Self-delivered payload bytes (the exchange's kept-local share)."""
        return sum(w.comm_local_bytes.get(phase, 0) for w in self.workers)

    def wire_volume(self, phase: str) -> int:
        """Data volume a phase's exchanges moved: wire sends + local
        deliveries.

        For the all-to-all this is only what changed rank (it delivers
        nothing to itself): ``wire_volume("all_to_all") +
        counter_total("a2a_kept_bytes") == total_bytes`` for fixed
        records, and ``phase_bytes("all_to_all")`` is twice it.
        """
        return self.wire_sent(phase) + self.local_bytes(phase)

    @property
    def total_io_bytes(self) -> int:
        return sum(self.phase_bytes(p) for p in self.phases)

    @property
    def network_bytes(self) -> int:
        return sum(w.comm_bytes_sent for w in self.workers)

    @property
    def socket_bytes_sent(self) -> int:
        """Kernel-level bytes pushed to sockets (0 on the pipe transport)."""
        return sum(w.comm_socket_bytes_sent for w in self.workers)

    @property
    def socket_bytes_recv(self) -> int:
        return sum(w.comm_socket_bytes_recv for w in self.workers)

    @property
    def peak_resident_bytes(self) -> int:
        return max((w.peak_resident_bytes for w in self.workers), default=0)

    @property
    def sort_phases_wall(self) -> float:
        """Sum of per-phase maxima over the four sort phases (no generate)."""
        return sum(self.wall_max(p) for p in self.phases if p != "generate")

    # -- reporting ------------------------------------------------------------

    def recovery_dict(self) -> Dict:
        """Checkpoint/recovery section of the JSON report.

        The counters prove the o(N) recovery bound: ``rf_blocks_reread``
        is exactly the input blocks re-read for runs some rank had
        already formed (0 when the failure hit a phase boundary), and
        ``fenced_frames`` counts stale pre-restart frames the epoch
        fence dropped.
        """
        return {
            "restarts": self.restarts,
            "events": list(self.recovery_events),
            "phases_restored": self.counter_total("recovery_phases_restored"),
            "runs_restored": self.counter_total("recovery_runs_restored"),
            "rf_blocks_reread": self.counter_total("recovery_rf_blocks_reread"),
            "chunks_skipped": self.counter_total("recovery_chunks_skipped"),
            "crc_blocks_verified": self.counter_total(
                "recovery_crc_blocks_verified"
            ),
            "fenced_frames": self.counter_total("recovery_fenced_frames"),
        }

    def to_dict(self) -> Dict:
        return {
            "backend": "native",
            "n_workers": self.n_workers,
            "n_runs": self.n_runs,
            "total_records": self.total_records,
            "total_bytes": self.total_bytes,
            "total_time": self.total_time,
            "network_bytes": self.network_bytes,
            "socket_bytes_sent": self.socket_bytes_sent,
            "socket_bytes_recv": self.socket_bytes_recv,
            "peak_resident_bytes": self.peak_resident_bytes,
            "recovery": self.recovery_dict(),
            "phases": {
                phase: {
                    "wall_max": self.wall_max(phase),
                    "wall_avg": self.wall_avg(phase),
                    "bytes": self.phase_bytes(phase),
                    "throughput_mb_s": self.phase_throughput(phase) / 1e6,
                    "stall_s": self.stall_max(phase),
                    "overlap_ratio": self.overlap_ratio(phase),
                    "wire_sent": self.wire_sent(phase),
                    "wire_recv": self.wire_recv(phase),
                    "wire_volume": self.wire_volume(phase),
                }
                for phase in self.phases
            },
            "per_worker": [
                {
                    "rank": w.rank,
                    "walls": dict(w.walls),
                    "bytes_read": dict(w.bytes_read),
                    "bytes_written": dict(w.bytes_written),
                    "read_ops": dict(w.read_ops),
                    "write_ops": dict(w.write_ops),
                    "io_stall_s": dict(w.io_stall_s),
                    "counters": dict(w.counters),
                    "comm_bytes_sent": w.comm_bytes_sent,
                    "comm_bytes_received": w.comm_bytes_received,
                    "comm_wire_sent": dict(w.comm_wire_sent),
                    "comm_wire_recv": dict(w.comm_wire_recv),
                    "comm_local_bytes": dict(w.comm_local_bytes),
                    "comm_peer_sent": {
                        str(p): n for p, n in sorted(w.comm_peer_sent.items())
                    },
                    "comm_peer_recv": {
                        str(p): n for p, n in sorted(w.comm_peer_recv.items())
                    },
                    "comm_socket_bytes_sent": w.comm_socket_bytes_sent,
                    "comm_socket_bytes_recv": w.comm_socket_bytes_recv,
                    "peak_resident_bytes": w.peak_resident_bytes,
                    "max_rss_bytes": w.max_rss_bytes,
                }
                for w in self.workers
            ],
        }

    def summary(self) -> str:
        """Human-readable per-phase table (measured seconds and MB/s)."""
        lines = [
            f"P={self.n_workers}  native total {self.total_time:8.2f} s   "
            f"{self.total_bytes / 2**20:.1f} MiB in {self.n_runs} runs"
        ]
        for phase in self.phases:
            wall = self.wall_max(phase)
            vol = self.phase_bytes(phase)
            rate = self.phase_throughput(phase) / 1e6
            lines.append(
                f"  {phase:<14} wall {wall:8.2f} s   disk {vol / 2**20:9.1f} MiB"
                f"   {rate:8.1f} MB/s   stall {self.stall_max(phase):6.2f} s"
                f"  overlap {self.overlap_ratio(phase):4.0%}"
            )
        a2a = self.wire_volume("all_to_all")
        lines.append(
            f"  interconnect   {self.network_bytes / 2**20:9.1f} MiB; "
            f"all-to-all moved {a2a / 2**20:.1f} MiB "
            f"({a2a / self.total_bytes:.2f}x N, the rest stayed in place); "
            f"peak resident {self.peak_resident_bytes / 2**20:.1f} MiB/worker"
        )
        if self.socket_bytes_sent:
            overhead = self.socket_bytes_sent - self.network_bytes
            lines.append(
                f"  socket wire    {self.socket_bytes_sent / 2**20:9.1f} MiB "
                f"sent ({max(0, overhead) / 2**20:.2f} MiB framing+control "
                "overhead)"
            )
        if self.restarts:
            rec = self.recovery_dict()
            lines.append(
                f"  recovered after {self.restarts} restart"
                f"{'s' if self.restarts != 1 else ''}: "
                f"{rec['phases_restored']:.0f} phase restores, "
                f"{rec['rf_blocks_reread']:.0f} run-formation blocks re-read, "
                f"{rec['chunks_skipped']:.0f} exchange chunks skipped, "
                f"{rec['fenced_frames']:.0f} stale frames fenced"
            )
        return "\n".join(lines)


def max_rss_bytes() -> int:
    """Peak RSS of the calling process in bytes (0 when unsupported)."""
    try:
        import resource
        import sys

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(rss) if sys.platform == "darwin" else int(rss) * 1024
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


@dataclass
class PhaseClock:
    """Context manager recording one phase's wall time into WorkerStats."""

    stats: WorkerStats
    phase: str
    _start: Optional[float] = None

    def __enter__(self) -> "PhaseClock":
        import time

        self._start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        import time

        assert self._start is not None
        self.stats.walls[self.phase] = (
            self.stats.walls.get(self.phase, 0.0) + time.monotonic() - self._start
        )
