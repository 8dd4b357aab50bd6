"""Pluggable native sort algorithms (the backend bake-off registry).

Two registered backends sort the same jobs to the same canonical
balanced output, so the driver and the conformance harness can compare
them head to head (ROADMAP item 4; paper Section III):

``canonical``
    CANONICALMERGESORT — the paper's algorithm, the default, and the
    only backend for the string record model.  Its phases live in
    :mod:`repro.native.phases`, one implementation for both record
    models (:class:`~repro.native.records.RecordModel`).
``striped``
    Mergesort with global striping (:mod:`.striped`): locally sorted
    runs striped block-wise over all PEs, merge by collective batch
    re-sort — communication in both passes, which is the amplification
    the paper's algorithm avoids.

Workers dispatch through :func:`resolve_algorithm`; job validation
(:class:`~repro.native.job.NativeJob`) guarantees only registered
(algo, records) pairs reach it.
"""

from __future__ import annotations

from ...core.config import ConfigError
from .base import Algorithm
from .canonical import CANONICAL_FIXED16, CANONICAL_STRING
from . import striped as _striped
from .. import phases as _phases

__all__ = ["ALGORITHMS", "Algorithm", "resolve_algorithm"]

#: Registered backend names, in documentation order.
ALGORITHMS = ("canonical", "striped")

STRIPED_FIXED16 = Algorithm(
    name="striped",
    records="fixed16",
    generate_input=_phases.generate_input,
    run_formation=_striped.run_formation,
    selection=_striped.selection,
    all_to_all=_striped.all_to_all,
    merge=_striped.merge,
    wire_profile="striped",
)

_REGISTRY = {
    (alg.name, alg.records): alg
    for alg in (
        CANONICAL_FIXED16,
        CANONICAL_STRING,
        STRIPED_FIXED16,
    )
}


def resolve_algorithm(algo: str, records: str = "fixed16") -> Algorithm:
    """The registered backend for ``(algo, records)``.

    Raises :class:`~repro.core.config.ConfigError` for unknown names or
    unsupported combinations (today: the string model only runs
    canonical).
    """
    if algo not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algo!r}; choose from {ALGORITHMS}"
        )
    try:
        return _REGISTRY[(algo, records)]
    except KeyError:
        raise ConfigError(
            f"algorithm {algo!r} does not support records={records!r} yet"
        ) from None
