"""Native sort algorithms: the phase module each backend name runs.

Two backends sort the same jobs to the same canonical balanced output,
so the driver and the conformance harness can compare them head to head
(paper Section III):

``canonical``
    CANONICALMERGESORT — the paper's algorithm and the default.  Its
    phases live in :mod:`repro.native.phases`, one implementation for
    both record models (:class:`~repro.native.records.RecordModel`).
``striped``
    Mergesort with global striping (:mod:`.striped`): locally sorted
    runs striped block-wise over all PEs, merge by collective batch
    re-sort — communication in both passes, which is the amplification
    the paper's algorithm avoids.  It generates its input with
    canonical's ``generate_input``, so both sort the identical input.

Each module exposes the five phase functions the worker drives
(:func:`repro.native.worker._run_phases`), all sharing one
:class:`~repro.native.phases.NativeContext`: ``generate_input(ctx)``,
``run_formation(ctx) -> runs``, ``selection(ctx, runs) -> splits``,
``all_to_all(ctx, runs, splits) -> (segments, aux)`` and
``merge(ctx, segments, aux) -> OutputMeta``.  The values threaded
between phases belong to the backend; the worker reads only
``len(runs)`` and the final :class:`~repro.native.phases.OutputMeta`.
Job validation (:class:`~repro.native.job.NativeJob`) guarantees only
known names, and striped only on the features it supports, reach the
worker.
"""

from __future__ import annotations

from .. import phases
from . import striped

__all__ = ["ALGORITHMS", "PHASE_MODULES"]

#: Backend name -> the module whose phase functions the worker runs.
PHASE_MODULES = {"canonical": phases, "striped": striped}

#: Backend names, in documentation order.
ALGORITHMS = tuple(PHASE_MODULES)
