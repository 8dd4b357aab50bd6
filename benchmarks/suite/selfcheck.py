#!/usr/bin/env python3
"""Self-check of the benchmark (not of the program): runs ``run.py --smoke``
and asserts that every workload printed exactly the metric names and units
``BENCHMARK.json`` declares, that the oracle and leak checks passed, and
that the contract file itself is well-formed.  About 30 s; exit 0 = fine.

    python3 benchmarks/suite/selfcheck.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    problems = []
    if sorted(contract) != ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]:
        problems.append(f"BENCHMARK.json keys: {sorted(contract)}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in contract["end_to_end"]):
        problems.append("BENCHMARK.json has no setup_s [s, lower] metric")
    declared = {m["name"]: m["unit"]
                for m in contract["end_to_end"] + contract["per_layer"]}
    if len(declared) != len(contract["end_to_end"]) + len(contract["per_layer"]):
        problems.append("a metric name is used twice")

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        print(proc.stdout[-4000:], proc.stderr[-4000:], sep="\n")
        problems.append(f"run.py --smoke exited {proc.returncode}")
    else:
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        if not final["correct"] or final["failed"]:
            problems.append(f"smoke run failed operations: {final['failed']}")
        names = [w["name"] for w in contract["workloads"]]
        if sorted(final["metrics"]) != sorted(names):
            problems.append(f"workloads run: {sorted(final['metrics'])}")
        for name, metrics in final["metrics"].items():
            printed = {k: v["unit"] for k, v in metrics.items()}
            if printed != declared:
                diff = sorted(set(printed.items()) ^ set(declared.items()))
                problems.append(f"{name}: names/units differ from "
                                f"BENCHMARK.json: {diff}")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print(f"selfcheck: {'FAILED' if problems else 'ok'} "
          f"({len(declared)} metrics x {len(contract['workloads'])} workloads)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
