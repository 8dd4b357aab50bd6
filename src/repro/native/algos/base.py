"""The ``Algorithm`` strategy: one pluggable native sort backend.

A backend is a bundle of the five phase callables the worker drives
(:func:`repro.native.worker._run_phases`), all sharing one
:class:`~repro.native.phases.NativeContext`:

===============  ========================================================
``generate``     ``(ctx) -> None`` — write this rank's input slice
``run_formation``  ``(ctx) -> runs`` — form the sorted runs on disk
``selection``    ``(ctx, runs) -> splits`` — plan the redistribution
``all_to_all``   ``(ctx, runs, splits) -> (seg_state, aux)`` — move data
``merge``        ``(ctx, seg_state, aux) -> OutputMeta`` — final output
===============  ========================================================

The *types* flowing between phases belong to the backend: canonical
threads ``List[NativeRun]`` / splitter matrices / segment lengths, the
striped backend threads its striped-run inventory and merge plan through
the same slots.  The worker treats them as opaque — its only contractual
reads are ``len(runs)`` (reported to the driver) and the final
:class:`~repro.native.phases.OutputMeta`, which every backend must
produce for the **canonical balanced output**: rank i's output file
holds exactly records ``[i*N/P, (i+1)*N/P)`` of the global sorted order,
so :meth:`~repro.native.driver.NativeSortResult.validate` applies to
all backends unchanged.

Per-phase accounting contracts differ by backend and are asserted by
the conformance harness (:mod:`repro.testing.differential`):
``wire_profile`` names which invariant set applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Algorithm"]


@dataclass(frozen=True)
class Algorithm:
    """A named native sort backend: five phase callables plus metadata."""

    #: Registry name (``"canonical"``, ``"striped"``).
    name: str
    #: Record model this implementation handles (``"fixed16"``/``"string"``).
    records: str
    generate_input: Callable
    run_formation: Callable
    selection: Callable
    all_to_all: Callable
    merge: Callable
    #: Which per-phase volume invariants the backend guarantees:
    #: ``"canonical"`` — run_formation / all_to_all / merge each read and
    #: write exactly the data volume, and the all_to_all phase carries
    #: exactly N·16 wire bytes; ``"striped"`` — run_formation and merge
    #: each read and write exactly the data volume, the all_to_all phase
    #: moves nothing, and the merge phase carries at least 2·N·16 wire
    #: bytes (batch re-sort + placement — the striping amplification).
    wire_profile: str = "canonical"

    @property
    def phase_fns(self):
        """The worker's dispatch 5-tuple, in phase order."""
        return (
            self.generate_input,
            self.run_formation,
            self.selection,
            self.all_to_all,
            self.merge,
        )
