"""Core algorithms: loser-tree merging and exact multiway selection."""

from .losertree import LoserTree
from .multiway_merge import merge_arrays, merge_iterables
from .replacement_selection import replacement_selection_runs, run_length_stats
from .multiway_selection import (
    SelectionResult,
    multiway_select,
    multiway_select_bisect,
    sample_initial_positions,
    sample_windows,
    select_bisect_coroutine,
    select_in_windows,
    select_coroutine,
)

__all__ = [
    "LoserTree",
    "merge_arrays",
    "merge_iterables",
    "SelectionResult",
    "multiway_select",
    "multiway_select_bisect",
    "sample_initial_positions",
    "sample_windows",
    "select_bisect_coroutine",
    "select_in_windows",
    "select_coroutine",
    "replacement_selection_runs",
    "run_length_stats",
]
