"""Sort configuration and the paper-scale / simulation-scale mapping.

Table I of the paper fixes the symbols this module speaks:

=========  =====================================================
Symbol     Meaning
=========  =====================================================
``P``      number of PEs (cluster nodes here, as in the paper)
``M``      internal memory in elements (global run size)
``D``      number of disks (4 per node in the paper's machine)
``B``      block size (8 MiB default, 2 MiB in one Figure 5 run)
``N``      total number of elements
``R``      number of runs, ``R = ceil(N / M)``
=========  =====================================================

Scaling discipline (DESIGN.md §5): parameters are given at *paper scale*
(bytes of real data); ``downscale`` shrinks the number of blocks actually
simulated while preserving every ratio that matters (R, blocks per run,
data/memory ratio).  Each simulated block carries ``block_elems`` real
keys but *represents* a full ``block_bytes`` block; reported times and
byte volumes are therefore paper-scale after multiplying by ``downscale``
(the harness does this; I/O-volume *ratios* like Figure 5 need no
rescaling at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..cluster.machine import MachineSpec, MiB
from ..records.element import ELEM_PAPER_16B, ElementType

__all__ = ["SortConfig", "ConfigError", "PHASES"]

#: Canonical phase names, in algorithm order (CanonicalMergeSort).
PHASES = ("run_formation", "selection", "all_to_all", "merge")


class ConfigError(ValueError):
    """The configuration cannot run on the given machine (paper §IV-D)."""


@dataclass(frozen=True)
class SortConfig:
    """Parameters of one external-sort execution."""

    #: Record shape (16-byte paper elements or 100-byte SortBenchmark).
    element: ElementType = ELEM_PAPER_16B
    #: Block size ``B`` in represented bytes.
    block_bytes: float = 8 * MiB
    #: Input data per node (``N/P``) in represented bytes.
    data_per_node_bytes: float = 1024 * MiB
    #: Memory per node usable for run data (``M/P``); None = machine spec.
    memory_bytes: Optional[float] = None
    #: Simulation reduction factor: simulate 1/downscale of the blocks.
    downscale: float = 1.0
    #: Real keys carried per simulated block.
    block_elems: int = 64
    #: Shuffle local input block IDs before forming runs (paper §IV).
    randomize: bool = True
    #: LRU capacity (blocks) of the multiway-selection cache.
    selection_cache_blocks: int = 64
    #: Selection strategy: "sampled" (paper's optimized §IV-A), "basic"
    #: (cold-start step halving) or "bisect" (provable scalable variant).
    selection: str = "sampled"
    #: Overlap I/O with computation/communication (paper §IV-E).
    overlap: bool = True
    #: Prefetch-buffer blocks per node for the merge phase; None = 4 per disk.
    prefetch_buffers: Optional[int] = None
    #: Outstanding write-buffer blocks per node; None = 2 per disk.
    write_buffers: Optional[int] = None
    #: Use the optimal duality-based prefetch schedule (Appendix A); the
    #: ablation turns this off to fetch in plain prediction order.
    optimal_prefetch: bool = True
    #: Fraction of node memory budgeted per external all-to-all subop.
    alltoall_mem_fraction: float = 0.5
    #: Seed for block randomization (per-node streams derive from it).
    seed: int = 12345

    # -- derived quantities ---------------------------------------------------

    def resolve_memory_bytes(self, spec: MachineSpec) -> float:
        """Per-node run memory (paper-scale bytes)."""
        return self.memory_bytes if self.memory_bytes is not None else spec.usable_ram

    @property
    def bytes_per_key(self) -> float:
        """Represented bytes carried by one simulated key."""
        return self.block_bytes / self.block_elems

    @property
    def repr_elems_per_key(self) -> float:
        """Paper-scale records represented by one simulated key."""
        return self.bytes_per_key / self.element.elem_bytes

    @property
    def blocks_per_node(self) -> int:
        """Simulated input blocks per node."""
        return max(1, math.ceil(self.data_per_node_bytes / self.downscale / self.block_bytes))

    @property
    def keys_per_node(self) -> int:
        """Simulated keys per node."""
        return self.blocks_per_node * self.block_elems

    def piece_blocks(self, spec: MachineSpec) -> int:
        """Blocks of one run piece per node (= per-node memory in blocks)."""
        mem = self.resolve_memory_bytes(spec) / self.downscale
        return max(1, int(mem / self.block_bytes))

    def piece_keys(self, spec: MachineSpec) -> int:
        """Keys of one run piece per node."""
        return self.piece_blocks(spec) * self.block_elems

    def n_runs(self, spec: MachineSpec) -> int:
        """The paper's R = ceil(N / M)."""
        return max(1, math.ceil(self.blocks_per_node / self.piece_blocks(spec)))

    def resolved_prefetch_buffers(self, spec: MachineSpec) -> int:
        return (
            self.prefetch_buffers
            if self.prefetch_buffers is not None
            else 4 * spec.disks_per_node
        )

    def resolved_write_buffers(self, spec: MachineSpec) -> int:
        return (
            self.write_buffers
            if self.write_buffers is not None
            else 2 * spec.disks_per_node
        )

    # -- unit conversions -------------------------------------------------------

    def keys_to_bytes(self, n_keys: float) -> float:
        """Represented bytes of ``n_keys`` simulated keys."""
        return n_keys * self.bytes_per_key

    def keys_to_elements(self, n_keys: float) -> float:
        """Paper-scale record count of ``n_keys`` simulated keys."""
        return n_keys * self.repr_elems_per_key

    def total_keys(self, n_nodes: int) -> int:
        """Simulated N (keys over the whole machine)."""
        return self.keys_per_node * n_nodes

    def total_bytes(self, n_nodes: int) -> float:
        """Represented N in bytes over the whole machine (simulated part)."""
        return self.keys_to_bytes(self.total_keys(n_nodes))

    # -- feasibility (paper §IV-D) -----------------------------------------------

    def validate(self, spec: MachineSpec, n_nodes: int) -> None:
        """Check the constraints of the paper's analysis, §IV-D.

        Raises :class:`ConfigError` when the merge phase could not hold one
        buffer block per run (the N = O(M²/(PB)) limit) or when the
        simulation granularity degenerated.
        """
        if self.selection not in ("sampled", "basic", "bisect"):
            raise ConfigError(f"unknown selection strategy {self.selection!r}")
        if not 0 < self.alltoall_mem_fraction <= 1:
            raise ConfigError(
                f"alltoall_mem_fraction must be in (0, 1], got {self.alltoall_mem_fraction}"
            )
        piece = self.piece_blocks(spec)
        runs = self.n_runs(spec)
        buffers = self.resolved_prefetch_buffers(spec) + self.resolved_write_buffers(spec)
        if runs + buffers > piece + buffers and runs > piece:
            raise ConfigError(
                f"R = {runs} runs exceed the {piece} memory blocks per node: "
                "input too large for two-pass sorting (paper limit N = O(M^2/(P B)))"
            )
        if self.block_elems < 2:
            raise ConfigError("block_elems < 2 leaves no key resolution per block")
        if n_nodes < 1:
            raise ConfigError(f"need at least one node, got {n_nodes}")

    def with_overrides(self, **kwargs) -> "SortConfig":
        """A copy of the config with selected fields replaced."""
        return replace(self, **kwargs)
