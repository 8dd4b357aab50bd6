"""Native execution backend: CANONICALMERGESORT on real files.

Where :mod:`repro.core` *simulates* the paper's algorithm against a
performance model, this package *executes* it: worker processes are the
PEs, a spill directory is the disk farm, the interconnect is either a
multiprocessing pipe mesh or real TCP sockets (:mod:`repro.net`), and
every phase moves real 16-byte records with ``numpy``.  The phase logic
is shared — the sample-bounded selection windows, splitter matrices and
merge semantics are imported from :mod:`repro.algos` and
:mod:`repro.core`, so the native backend is an execution of the same
algorithm, not a reimplementation.

Entry points:

>>> from repro.native import native_sort
>>> result = native_sort(config, n_workers=4, spill_dir="/tmp/sort")
>>> result.validate().raise_if_failed()

or ``python -m repro --backend native --spill-dir /tmp/sort``.
"""

from .comm_api import Comm, CommError, CommTimeout, MeshComm
from .driver import NativeSortError, NativeSortResult, NativeSorter, native_sort
from .job import TRANSPORTS, NativeJob
from .pipeline import Prefetcher, WriteBehind
from .records import NATIVE_DTYPE, RECORD_BYTES
from ..core.stats import WorkerStats

__all__ = [
    "Comm",
    "CommError",
    "CommTimeout",
    "MeshComm",
    "NativeJob",
    "NativeSorter",
    "NativeSortResult",
    "NativeSortError",
    "WorkerStats",
    "Prefetcher",
    "WriteBehind",
    "TRANSPORTS",
    "native_sort",
    "NATIVE_DTYPE",
    "RECORD_BYTES",
]
