"""The native sort's per-PE record, under its native import path.

Both backends fill one stats model, :mod:`repro.core.stats`; the
benchmark suite imports :class:`WorkerStats` from here.
"""

from ..core.stats import WorkerStats

__all__ = ["WorkerStats"]
