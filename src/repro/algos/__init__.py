"""Core algorithms: exact multiway selection and replacement selection."""

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
