"""The paper's core contribution: CanonicalMergeSort and its phases."""

from .all_to_all import all_to_all_phase
from .canonical import CanonicalMergeSort, SortResult
from .config import PHASES, ConfigError, SortConfig
from .internal_sort import distributed_sort_run
from .merge_phase import merge_phase
from .pipeline import (
    ArraySource,
    BlockSource,
    CollectingSink,
    PipelinedMergeSort,
    PipelineResult,
    Sink,
)
from .run_formation import run_formation
from .selection_phase import selection_phase, warm_start_from_samples
from .stats import PhaseClock, SortStats, WorkerStats

__all__ = [
    "CanonicalMergeSort",
    "SortResult",
    "SortConfig",
    "ConfigError",
    "PHASES",
    "SortStats",
    "WorkerStats",
    "PhaseClock",
    "run_formation",
    "selection_phase",
    "warm_start_from_samples",
    "all_to_all_phase",
    "merge_phase",
    "PipelinedMergeSort",
    "PipelineResult",
    "BlockSource",
    "ArraySource",
    "Sink",
    "CollectingSink",
    "distributed_sort_run",
]
