"""CANONICALMERGESORT as a registered backend.

A thin binding of the phase pipeline (:mod:`repro.native.phases`) to the
strategy interface, once per record model.  Both bindings name the same
five functions: the phases are written against
:class:`~repro.native.records.RecordModel`, and the job's model decides
the format.  The backend objects are pure dispatch metadata.
"""

from __future__ import annotations

from .. import phases
from .base import Algorithm

__all__ = ["CANONICAL_FIXED16", "CANONICAL_STRING"]


def _canonical(records: str) -> Algorithm:
    return Algorithm(
        name="canonical",
        records=records,
        generate_input=phases.generate_input,
        run_formation=phases.run_formation,
        selection=phases.selection,
        all_to_all=phases.all_to_all,
        merge=phases.merge,
        wire_profile="canonical",
    )


CANONICAL_FIXED16 = _canonical("fixed16")
CANONICAL_STRING = _canonical("string")
