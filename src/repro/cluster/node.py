"""Compute node: cores, RAM and locally attached disks.

A node corresponds to one PE of the paper ("one cluster node corresponds to
one PE"): communication happens between nodes, while the cores and the four
RAID-0 disks inside a node are exploited as *hierarchical parallelism*
(Section IV-E).  The node offers

* its array of :class:`~repro.cluster.disk.Disk` objects,
* timed compute operations (``sort``, ``merge``, ``scan``) whose durations
  come from the calibrated :class:`~repro.cluster.machine.MachineSpec`
  cost model and are attributed to the caller's phase tag.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..sim.engine import Simulator, Timeout
from .disk import Disk
from .machine import MachineSpec

__all__ = ["Node"]


class Node:
    """One PE: 8 cores, 16 GiB RAM and 4 local disks in the paper config."""

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        node_id: int,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        self.disks: List[Disk] = [
            Disk(sim, spec, name=f"n{node_id}.d{d}", rng=rng)
            for d in range(spec.disks_per_node)
        ]
        #: Seconds of internal computation, per phase tag.
        self.compute_by_tag: Dict[str, float] = {}
        self.compute_time = 0.0
        #: Multiplier applied to all computation times (fault injection:
        #: > 1 models throttling or a co-scheduled job).
        self.compute_factor = 1.0

    # -- disk statistics ------------------------------------------------------

    @property
    def disk_busy_time(self) -> float:
        """Total disk-service seconds over the node's disks."""
        return sum(d.busy_time for d in self.disks)

    def disk_busy_time_for(self, tag: str) -> float:
        """Disk-service seconds attributed to phase ``tag``."""
        return sum(d.busy_time_for(tag) for d in self.disks)

    def max_disk_busy_time_for(self, tag: str) -> float:
        """Busy time of the most loaded disk for ``tag``.

        With RAID-0 striping the phase cannot finish before its most loaded
        disk does, so this is the per-PE "I/O time" the paper's Figure 3
        plots.
        """
        if not self.disks:
            return 0.0
        return max(d.busy_time_for(tag) for d in self.disks)

    @property
    def bytes_read(self) -> float:
        return sum(d.bytes_read for d in self.disks)

    @property
    def bytes_written(self) -> float:
        return sum(d.bytes_written for d in self.disks)

    # -- computation ----------------------------------------------------------

    def _charge(self, seconds: float, tag: Optional[str]) -> Timeout:
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        seconds *= self.compute_factor
        self.compute_time += seconds
        if tag is not None:
            self.compute_by_tag[tag] = self.compute_by_tag.get(tag, 0.0) + seconds
        return self.sim.timeout(seconds)

    def compute(self, seconds: float, tag: Optional[str] = None) -> Timeout:
        """Spend ``seconds`` of modeled computation time."""
        return self._charge(seconds, tag)

    def sort_compute(
        self, n_elements: float, elem_bytes: float, tag: Optional[str] = None
    ) -> Timeout:
        """Timed event for a local parallel sort of ``n_elements``."""
        return self._charge(self.spec.sort_seconds(n_elements, elem_bytes), tag)

    def merge_compute(
        self, n_elements: float, arity: int, elem_bytes: float, tag: Optional[str] = None
    ) -> Timeout:
        """Timed event for a local parallel ``arity``-way merge."""
        return self._charge(self.spec.merge_seconds(n_elements, arity, elem_bytes), tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} disks={len(self.disks)}>"
