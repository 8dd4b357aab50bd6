"""Per-phase, per-PE statistics: one model for the simulator and the
native sort.

The paper's evaluation plots exactly these quantities:

* Figures 2, 4, 6 — per-phase *wall-clock* times, stacked over P;
* Figure 3 — per-PE wall-clock **and** I/O time for every phase (the grey
  gap showing run formation is not fully I/O-bound);
* Figure 5 — all-to-all I/O volume divided by N.

Both backends fill the same three pieces:

* :class:`WorkerStats` — one PE's record: per-phase walls, block-store
  bytes and operations, counters.  A few per-phase dicts hold what only
  one backend measures and stay empty on the other: the simulator's
  busiest-disk and compute seconds, the native sort's main-thread I/O
  stalls, collective epochs, wire bytes, minor faults and RSS;
* :class:`SortStats` — the aggregate over the PEs: every aggregation,
  :meth:`~SortStats.summary` and :meth:`~SortStats.to_dict`, once.  The
  simulator's paper-scale conversion (``downscale``, selection exempt)
  and the native recovery section are data on it;
* :class:`PhaseClock` — times one phase of one PE: simulated seconds
  (``sim.now``) between barriers of the SPMD generators, or monotonic
  seconds around the native worker's ``with`` blocks.

Simulated disk busy time and byte volumes are attributed to phases
through request tags (:meth:`SortStats.collect_io`), so asynchronous I/O
that completes after a phase boundary still counts toward the phase
that issued it.  Native byte volumes come from the block store's
counters, interconnect volumes from the mesh, and peak memory from
``getrusage`` where available.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .config import PHASES, SortConfig

__all__ = ["WorkerStats", "SortStats", "PhaseClock", "PHASE_ORDER"]

#: Report order of every phase name a sort records: input generation
#: (native), the baselines' sampling and distribution passes, then the
#: paper's four phases.  Unknown names follow in first-recorded order.
PHASE_ORDER = ("generate", "sample", "distribute") + PHASES


@dataclass
class WorkerStats:
    """One PE's measurements (a native worker pickles it to the driver)."""

    rank: int
    #: Phase -> wall seconds.
    walls: Dict[str, float] = field(default_factory=dict)
    #: Phase -> bytes read / written through the block store.
    bytes_read: Dict[str, float] = field(default_factory=dict)
    bytes_written: Dict[str, float] = field(default_factory=dict)
    #: Phase -> read / write *operations* issued to the block store
    #: (native).
    read_ops: Dict[str, int] = field(default_factory=dict)
    write_ops: Dict[str, int] = field(default_factory=dict)
    #: Free-form counters (window keys shipped, runs formed, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: ``(phase, start, end)`` of every timed phase, in this PE's clock.
    intervals: List[Tuple[str, float, float]] = field(default_factory=list)

    # -- simulator only -------------------------------------------------------
    #: Phase -> busy seconds of the PE's most loaded disk — the phase's
    #: effective I/O time under RAID-0 (Figure 3's I/O bars).
    io_s: Dict[str, float] = field(default_factory=dict)
    #: Phase -> modelled CPU seconds.
    compute_s: Dict[str, float] = field(default_factory=dict)
    #: High-water mark of blocks held in simulated memory.
    peak_blocks: int = 0

    # -- native only ----------------------------------------------------------
    #: Phase -> seconds the phase's *main thread* spent blocked on I/O
    #: (synchronous reads/writes, prefetch waits, write-behind backpressure).
    #: Background pipeline threads never count here — their I/O time is
    #: the overlap the pipelined path exists to create.
    io_stall_s: Dict[str, float] = field(default_factory=dict)
    #: Phase -> collective epochs entered (allgathers, all-to-alls,
    #: barriers, exchanges; the same on every rank).
    collectives: Dict[str, int] = field(default_factory=dict)
    #: Phase -> minor page faults the process took during the phase
    #: (``ru_minflt`` delta; 0 when unavailable).
    minor_faults: Dict[str, int] = field(default_factory=dict)
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

    def add_wall(self, phase: str, seconds: float) -> None:
        self.walls[phase] = self.walls.get(phase, 0.0) + seconds

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

    def to_dict(self) -> Dict:
        out = {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(self).items()
        }
        for name in ("comm_peer_sent", "comm_peer_recv"):
            out[name] = {str(p): n for p, n in sorted(out[name].items())}
        out["intervals"] = [list(iv) for iv in self.intervals]
        return out


class SortStats:
    """Statistics of one distributed sort execution, simulated or native.

    ``SortStats(config, P)`` starts P empty records for the simulator,
    whose times and volumes convert to paper scale by
    ``config.downscale``.  ``SortStats(workers=records)`` aggregates the
    records a native sort's workers measured (unscaled).  Every
    aggregation reads a phase a PE never recorded as 0.
    """

    #: Phases whose duration does *not* scale with data volume.  Multiway
    #: selection touches O(R · P · log B) blocks regardless of N (the very
    #: property that makes it "negligible" in the paper), so its simulated
    #: time is already the paper-scale time.  Every bulk phase (run
    #: formation, all-to-all, merging, baseline distribution passes…)
    #: scales with the represented volume.
    VOLUME_INDEPENDENT_PHASES = frozenset({"selection"})

    def __init__(self, config: Optional[SortConfig] = None, n_nodes: int = 0,
                 *, workers: Sequence[WorkerStats] = ()):
        self.backend = "native" if workers else "sim"
        self.workers: List[WorkerStats] = (
            sorted(workers, key=lambda w: w.rank)
            or [WorkerStats(rank=r) for r in range(n_nodes)]
        )
        self.downscale = config.downscale if config is not None else 1.0
        #: End-to-end seconds: simulated, or the native driver's wall.
        self.total_time = 0.0
        self.n_runs = 0
        self.total_records = 0
        self.record_bytes = 0
        self.network_bytes = sum(w.comm_bytes_sent for w in self.workers)
        #: Restart attempts the supervisor burned before this success
        #: (0 = first try) and the per-failure event log; both are
        #: stamped by the native driver or the service, not the workers.
        self.restarts: int = 0
        self.recovery_events: List[Dict] = []

    # -- recording ------------------------------------------------------------

    def record_wall(self, rank: int, phase: str, seconds: float) -> None:
        self.workers[rank].add_wall(phase, seconds)

    def collect_io(self, cluster) -> None:
        """Pull the simulator's disk-tag attributions out of the cluster
        (run at the end)."""
        for w, node in zip(self.workers, cluster.nodes):
            for phase in self.phases:
                w.io_s[phase] = node.max_disk_busy_time_for(phase)
                w.bytes_read[phase] = sum(
                    d.read_bytes_by_tag.get(phase, 0.0) for d in node.disks
                )
                w.bytes_written[phase] = sum(
                    d.write_bytes_by_tag.get(phase, 0.0) for d in node.disks
                )
                w.compute_s[phase] = node.compute_by_tag.get(phase, 0.0)
        self.network_bytes = cluster.total_network_bytes

    # -- aggregation ----------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def total_bytes(self) -> int:
        return self.total_records * self.record_bytes

    @property
    def phases(self) -> List[str]:
        """Every phase some PE timed, in :data:`PHASE_ORDER`."""
        seen = dict.fromkeys(p for w in self.workers for p in w.walls)
        order = {p: i for i, p in enumerate(PHASE_ORDER)}
        return sorted(seen, key=lambda p: order.get(p, len(PHASE_ORDER)))

    def _per_rank(self, name: str, phase: str) -> List[float]:
        return [getattr(w, name).get(phase, 0) for w in self.workers]

    def _measured(self, name: str) -> bool:
        return any(getattr(w, name) for w in self.workers)

    def wall_max(self, phase: str) -> float:
        """Slowest PE's wall time for ``phase`` (what a stacked plot shows)."""
        return max(self._per_rank("walls", phase), default=0.0)

    def wall_avg(self, phase: str) -> float:
        if not self.workers:
            return 0.0
        return sum(self._per_rank("walls", phase)) / len(self.workers)

    def io_max(self, phase: str) -> float:
        """Busiest disk's busy seconds on the most loaded PE (simulator)."""
        return max(self._per_rank("io_s", phase), default=0.0)

    def phase_bytes(self, phase: str) -> float:
        """Disk traffic (read + write) of a phase across all PEs."""
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
        """Worst per-PE main-thread I/O stall of a phase, seconds."""
        return max(self._per_rank("io_stall_s", phase), default=0.0)

    def overlap_ratio(self, phase: str) -> float:
        """Fraction of the phase's wall time *not* spent stalled on I/O.

        1.0 means I/O was fully hidden behind computation (or there was
        none); 0.0 means the phase did nothing but wait for the disk.
        Computed from the slowest PE's wall and stall.
        """
        wall = self.wall_max(phase)
        if wall <= 0:
            return 1.0
        return max(0.0, min(1.0, 1.0 - self.stall_max(phase) / wall))

    def wire_sent(self, phase: str) -> int:
        """Payload bytes all PEs sent to other PEs during ``phase``."""
        return sum(self._per_rank("comm_wire_sent", phase))

    def wire_recv(self, phase: str) -> int:
        """Payload bytes all PEs received from other PEs in ``phase``."""
        return sum(self._per_rank("comm_wire_recv", phase))

    def local_bytes(self, phase: str) -> int:
        """Self-delivered payload bytes (the exchange's kept-local share)."""
        return sum(self._per_rank("comm_local_bytes", phase))

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
    def total_io_bytes(self) -> float:
        return sum(self.phase_bytes(phase) for phase in self.phases)

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
    def intervals(self) -> List[tuple]:
        """``(rank, phase, start, end)`` of every timed phase."""
        return [(w.rank, *iv) for w in self.workers for iv in w.intervals]

    # -- paper scale ----------------------------------------------------------

    def scaled_seconds(self, seconds: float, phase: Optional[str] = None) -> float:
        """Convert simulated seconds to estimated paper-scale seconds."""
        if phase is not None and phase in self.VOLUME_INDEPENDENT_PHASES:
            return seconds
        return seconds * self.downscale

    def scaled_wall_max(self, phase: str) -> float:
        return self.scaled_seconds(self.wall_max(phase), phase)

    @property
    def scaled_total_time(self) -> float:
        """Estimated paper-scale end-to-end time.

        The sum of the per-phase scaled maxima — the same quantity the
        paper's stacked phase plots (Figures 2, 4, 6) display.
        """
        return sum(self.scaled_wall_max(phase) for phase in self.phases)

    # -- reporting ------------------------------------------------------------

    def recovery_dict(self) -> Dict:
        """Checkpoint/recovery section of the report (native).

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
            "crc_blocks_verified": self.counter_total(
                "recovery_crc_blocks_verified"
            ),
            "fenced_frames": self.counter_total("recovery_fenced_frames"),
        }

    def to_dict(self) -> Dict:
        """Serializable snapshot of every statistic (for JSON export)."""
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "n_runs": self.n_runs,
            "total_records": self.total_records,
            "total_bytes": self.total_bytes,
            "total_time": self.total_time,
            "total_time_scaled": self.scaled_total_time,
            "downscale": self.downscale,
            "network_bytes": self.network_bytes,
            "socket_bytes_sent": self.socket_bytes_sent,
            "socket_bytes_recv": self.socket_bytes_recv,
            "peak_resident_bytes": self.peak_resident_bytes,
            "recovery": self.recovery_dict(),
            "phases": {
                phase: {
                    "wall_max": self.wall_max(phase),
                    "wall_avg": self.wall_avg(phase),
                    "wall_scaled": self.scaled_wall_max(phase),
                    "io_max": self.io_max(phase),
                    "bytes": self.phase_bytes(phase),
                    "throughput_mb_s": self.phase_throughput(phase) / 1e6,
                    "stall_s": self.stall_max(phase),
                    "overlap_ratio": self.overlap_ratio(phase),
                    "wire_sent": self.wire_sent(phase),
                    "wire_recv": self.wire_recv(phase),
                    "wire_volume": self.wire_volume(phase),
                    "collectives": max(
                        self._per_rank("collectives", phase), default=0
                    ),
                    "minor_faults": max(
                        self._per_rank("minor_faults", phase), default=0
                    ),
                }
                for phase in self.phases
            },
            "per_worker": [w.to_dict() for w in self.workers],
        }

    def save_json(self, path: str) -> str:
        """Write :meth:`to_dict` as JSON; returns the path."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    def timeline(self, width: int = 72) -> str:
        """ASCII Gantt chart of the phases per PE.

        One row per PE, one column per time slice; each cell shows the
        initial of the phase active there (``r``/``s``/``a``/``m`` for the
        canonical phases, ``.`` for idle/barrier wait).  The textual
        cousin of the paper's Figure 3.
        """
        intervals = self.intervals
        if not intervals:
            return "(no phase intervals recorded)"
        t_end = max(end for _r, _p, _s, end in intervals)
        if t_end <= 0:
            return "(empty timeline)"
        grid = [["."] * width for _ in range(self.n_workers)]
        for rank, phase, start, end in intervals:
            a = int(start / t_end * width)
            b = max(a + 1, int(end / t_end * width))
            for x in range(a, min(b, width)):
                grid[rank][x] = phase[0]
        legend = ", ".join(
            f"{phase[0]}={phase}" for phase in self.phases
        )
        lines = [f"timeline over {self.scaled_seconds(t_end):,.1f} s "
                 f"(paper scale; {legend}, .=wait)"]
        for rank in range(self.n_workers):
            lines.append(f"PE{rank:>3} |{''.join(grid[rank])}|")
        return "\n".join(lines)

    def summary(self) -> str:
        """Human-readable per-phase table.

        Seconds and volumes are paper scale (``downscale``); a column a
        backend does not measure is left out.
        """
        scale = self.downscale
        head = (
            f"P={self.n_workers}  {self.backend} total "
            f"{self.scaled_total_time:9.2f} s (sum of phase maxima; "
        )
        if scale != 1:
            head += f"simulated {self.total_time:.3f} s, downscale {scale:g})"
        else:
            head += f"{self.total_time:.3f} s end to end)"
        if self.total_bytes:
            head += f"   {_size(self.total_bytes).strip()} in {self.n_runs} runs"
        lines = [head]
        for phase in self.phases:
            row = f"  {phase:<14} wall {self.scaled_wall_max(phase):9.2f} s"
            if self._measured("io_s"):
                io = self.scaled_seconds(self.io_max(phase), phase)
                row += f"   io {io:9.2f} s"
            row += f"   disk {_size(self.phase_bytes(phase) * scale)}"
            if self.total_bytes:
                row += f"   {self.phase_throughput(phase) / 1e6:8.1f} MB/s"
            if self._measured("collectives"):
                row += (
                    f"   stall {self.stall_max(phase):6.2f} s"
                    f"  overlap {self.overlap_ratio(phase):4.0%}"
                )
            lines.append(row)
        net = f"  interconnect   {_size(self.network_bytes * scale)}"
        if self.total_bytes and self._measured("comm_wire_sent"):
            a2a = self.wire_volume("all_to_all")
            net += (
                f"; all-to-all moved {_size(a2a).strip()} "
                f"({a2a / self.total_bytes:.2f}x N, the rest stayed in place)"
            )
        if self.peak_resident_bytes:
            net += (
                f"; peak resident {self.peak_resident_bytes / 2**20:.1f} "
                "MiB/worker"
            )
        lines.append(net)
        if self.socket_bytes_sent:
            overhead = self.socket_bytes_sent - self.network_bytes
            lines.append(
                f"  socket wire    {_size(self.socket_bytes_sent)} "
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
                f"{rec['fenced_frames']:.0f} stale frames fenced"
            )
        return "\n".join(lines)


def _size(nbytes: float) -> str:
    if nbytes >= 2**30:
        return f"{nbytes / 2**30:9.2f} GiB"
    return f"{nbytes / 2**20:9.1f} MiB"


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


def minor_faults() -> int:
    """Minor page faults of the calling process so far (0 when unsupported)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0


class PhaseClock:
    """Times one phase of one PE into its :class:`WorkerStats`.

    Simulator — simulated seconds, started at construction::

        clock = PhaseClock(stats.workers[rank], "merge", sim=cluster.sim)
        ...  # phase body
        clock.stop()

    Native — monotonic seconds, plus the collective epochs ``comm``
    entered and the minor page faults the process took meanwhile::

        with PhaseClock(stats, "merge", comm=comm):
            ...  # phase body
    """

    def __init__(self, stats: WorkerStats, phase: str, *, sim=None,
                 comm=None) -> None:
        self.stats = stats
        self.phase = phase
        self.sim = sim
        self.comm = comm
        self._epochs = comm.collectives if comm is not None else 0
        self._faults = minor_faults() if sim is None else 0
        self.started_at = self._now()
        self._stopped = False

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else time.monotonic()

    def stop(self) -> float:
        """End the phase; returns (and records) its wall duration."""
        if self._stopped:
            raise RuntimeError(f"phase {self.phase!r} clock stopped twice")
        self._stopped = True
        end = self._now()
        stats, phase = self.stats, self.phase
        stats.add_wall(phase, end - self.started_at)
        stats.intervals.append((phase, self.started_at, end))
        if self.comm is not None:
            stats.collectives[phase] = (
                stats.collectives.get(phase, 0)
                + self.comm.collectives - self._epochs
            )
        if self.sim is None:
            stats.minor_faults[phase] = (
                stats.minor_faults.get(phase, 0) + minor_faults() - self._faults
            )
        return end - self.started_at

    def __enter__(self) -> "PhaseClock":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
