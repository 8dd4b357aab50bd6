"""Correctness, leak and environment checks — all outside the timed regions.

The oracle is independent of the program: ``np.sort`` / ``sorted()`` of
the input files the benchmark (or, for service jobs, the pool workers)
wrote, cut at the canonical ``i*N/P`` boundaries, compared key for key
with the output files, plus pair-exact payload round-tripping (the
payload is the global input index).
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

from repro.native.records import (
    NATIVE_DTYPE,
    read_varlen_file,
    string_checksum,
)
from repro.native.shm import list_shm_segments
from repro.testing import oracle

__all__ = [
    "Tally",
    "check_fixed16",
    "check_strings",
    "leaks",
    "environment",
    "calibrate",
    "stop_resource_tracker",
]


class Tally:
    """Operations attempted vs failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.issues: List[str] = []

    def op(self, issues: Sequence[str]) -> None:
        """Count one operation; it failed iff ``issues`` is non-empty."""
        self.attempted += 1
        if issues:
            self.failed += 1
            self.issues.extend(issues)


# ------------------------------------------------------------------ oracle


def check_fixed16(
    input_paths: Sequence[str], output_paths: Sequence[str]
) -> Tuple[List[str], int]:
    """Outputs vs ``np.sort`` of the input files; returns (issues, checksum)."""
    issues: List[str] = []
    keys_in = np.concatenate(
        [np.fromfile(p, dtype=NATIVE_DTYPE)["key"] for p in input_paths]
    )
    checksum = oracle.multiset_checksum(keys_in)
    total = len(keys_in)
    outs = [np.fromfile(p, dtype=NATIVE_DTYPE) for p in output_paths]
    expect = oracle.expected_outputs([keys_in], n_ranks=len(outs))
    for rank, (got, want) in enumerate(zip(outs, expect)):
        if len(got) != len(want):
            issues.append(f"rank {rank} holds {len(got)} records, canonical "
                          f"share is {len(want)}")
        elif not np.array_equal(got["key"], want):
            bad = int(np.flatnonzero(got["key"] != want)[0])
            issues.append(f"rank {rank} diverges from np.sort at record {bad}")
    del expect
    payloads = np.concatenate([o["payload"] for o in outs])
    if len(payloads) != total or (total and int(payloads.max()) >= total):
        issues.append("output payloads are not the global input indices")
    else:
        seen = np.zeros(total, dtype=bool)
        seen[payloads] = True
        if not seen.all():
            issues.append("output payloads are not a permutation of the "
                          "input indices")
        elif not np.array_equal(
            keys_in[payloads], np.concatenate([o["key"] for o in outs])
        ):
            issues.append("some output (key, payload) pair does not "
                          "round-trip to the input")
    return issues, checksum


def check_strings(
    input_paths: Sequence[str], output_paths: Sequence[str]
) -> Tuple[List[str], int]:
    """String twin of :func:`check_fixed16`: ``sorted()`` of decoded keys."""
    issues: List[str] = []
    keys_in: List[bytes] = []
    checksum = 0
    for path in input_paths:
        batch = read_varlen_file(path)
        keys_in.extend(batch.keys())
        checksum = string_checksum(batch, checksum)
    total = len(keys_in)
    expect = sorted(keys_in)
    outs = [read_varlen_file(p) for p in output_paths]
    for rank, batch in enumerate(outs):
        want = expect[rank * total // len(outs):(rank + 1) * total // len(outs)]
        if batch.keys() != want:
            issues.append(f"rank {rank} diverges from the sorted() oracle "
                          f"({len(batch)} records, want {len(want)})")
    payloads = [int(p) for b in outs for p in b.payloads()]
    if sorted(payloads) != list(range(total)):
        issues.append("output payloads are not a permutation of the "
                      "input indices")
    elif any(keys_in[p] != k
             for p, k in zip(payloads, (k for b in outs for k in b.keys()))):
        issues.append("some output (key, payload) pair does not round-trip "
                      "to the input")
    return issues, checksum


# ------------------------------------------------------------------- leaks


def _child_pids() -> List[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited between listdir and open
        # The command name may hold spaces: the ppid is the second field
        # after its closing parenthesis.
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == me:
            out.append(int(name))
    return out


def leaks(spill_root: str) -> List[str]:
    """What a workload left behind: children, shm segments, spill files."""
    found = []
    kids = _child_pids()
    if kids:
        found.append(f"leaked child processes: {kids}")
    segments = list_shm_segments()
    if segments:
        found.append(f"leaked shm segments: {segments}")
    try:
        left = sorted(os.listdir(spill_root))
    except FileNotFoundError:
        left = []
    if left:
        found.append(f"spill root not empty: {left[:8]}")
    return found


def stop_resource_tracker() -> None:
    """End multiprocessing's resource-tracker child and wait for it.

    Creating shared-memory segments (the shm transport probe) starts the
    tracker; it would otherwise outlive every workload's leak check and
    only exit, unwaited, after the benchmark itself.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


# ------------------------------------------------------------- environment


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    path = os.path.realpath(path)
    best, fs = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            _dev, mount, kind = line.split()[:3]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fs = mount, kind
    return fs


def environment(spill_root: str) -> dict:
    """What the numbers were measured on (Linux only, like the leak check)."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spill_root": spill_root,
        "spill_fs": _fs_type(spill_root),
    }


def calibrate(rounds: int = 5) -> float:
    """Single-thread ``np.sort`` calibration probe, in milliseconds.

    Taken before and after a run: the program is not involved, so a gap
    between the two means the machine changed speed under the benchmark.
    """
    keys = np.random.default_rng(0).integers(0, 2**63, 1 << 22, dtype=np.uint64)
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        np.sort(keys)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3
