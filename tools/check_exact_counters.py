#!/usr/bin/env python3
"""Gate the benchmark counters that repeat exactly.

Timings on a shared box drift by tens of percent; byte and run counts do
not drift at all.  ``python3 benchmarks/suite/run.py --smoke --seed 1``
prints, per workload, how many bytes the sort moved through the block
store and over the interconnect per input byte, how many runs it formed
and how much the all-to-all shipped — numbers that are a pure function
of the code and the seed.  This tool runs that command, reads its final
JSON line and fails on *any* change against the committed
``tools/exact_counters.json``: had it existed, the all-to-all's third
pass over the data (6N instead of the paper's 4N) would have failed CI
the day it appeared.

    python3 tools/check_exact_counters.py            # exit 0 = unchanged
    python3 tools/check_exact_counters.py --update   # accept the new values

``service-burst`` reports medians over however many jobs fit into the
run, so it does not repeat exactly and is left out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "exact_counters.json")
COMMAND = ["benchmarks/suite/run.py", "--smoke", "--seed", "1"]
WORKLOADS = ("uniform-2x64m", "manyruns-2x24m", "worstcase-2x64m", "strings-2x2m")
COUNTERS = (
    "io_bytes_per_input_byte",
    "wire_bytes_per_input_byte",
    "native.phases.n_runs",
    "native.phases.all_to_all_wire_mib",
)


def measure() -> dict:
    proc = subprocess.run(
        [sys.executable, *COMMAND], cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stdout[-4000:], proc.stderr[-4000:], sep="\n")
        raise SystemExit(f"{' '.join(COMMAND)} exited {proc.returncode}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        workload: {
            name: final["metrics"][workload][name]["value"] for name in COUNTERS
        }
        for workload in WORKLOADS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {os.path.relpath(EXPECTED, ROOT)}")
    args = parser.parse_args()

    got = measure()
    if args.update:
        with open(EXPECTED, "w") as handle:
            json.dump(got, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"exact counters: wrote {os.path.relpath(EXPECTED, ROOT)}")
        return 0

    with open(EXPECTED) as handle:
        want = json.load(handle)
    changed = [
        f"{workload} {name}: {want.get(workload, {}).get(name)!r} -> "
        f"{got[workload][name]!r}"
        for workload in WORKLOADS
        for name in COUNTERS
        if want.get(workload, {}).get(name) != got[workload][name]
    ]
    for line in changed:
        print(f"exact counters: {line}")
    if changed:
        print("exact counters: CHANGED — these repeat exactly for a given seed, "
              "so the code moved them; if that is intended, rerun with --update "
              "and commit the file")
        return 1
    print(f"exact counters: ok ({len(COUNTERS)} counters x "
          f"{len(WORKLOADS)} workloads unchanged)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
