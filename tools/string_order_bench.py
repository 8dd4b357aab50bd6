#!/usr/bin/env python3
"""Time the string model's key order against a stable column argsort.

    PYTHONPATH=src python3 tools/string_order_bench.py [--records N] [--repeats K]

For each key shape — the three string families on uniform and on skewed
(duplicate-heavy) u64 keys, plus one all-equal column — builds the
NUL-padded ``S{w}`` key column of N records and prints the median
milliseconds of ``np.argsort(column, kind="stable")`` (the comparison
sort the order replaced) and of ``records._column_order`` (the packed
MSD order), and their ratio.  Both must give the same permutation; the
tool exits 1 if one does not.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.native.records import STRING_FAMILIES, VarlenBatch, _column_order
from repro.workloads.gensort import record_keys


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def shapes(n: int, seed: int):
    """``(name, keys)`` of every shape, N keys each."""
    for family, key_of in STRING_FAMILIES.items():
        for skew in (False, True):
            values = record_keys(0, n, seed=seed, skew=skew)
            yield (f"{family}{'-skewed' if skew else ''}",
                   [key_of(int(v)) for v in values])
    yield "all-equal", [b"https://example.com/same"] * n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int, default=17476,
                        help="keys per column (default: one strings-2x2m run)")
    parser.add_argument("--repeats", type=int, default=41)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    print("| keys | argsort ms | packed order ms | ratio |")
    print("|---|---|---|---|")
    same = True
    for name, keys in shapes(args.records, args.seed):
        column = VarlenBatch.build(keys, np.arange(len(keys))).column
        same &= bool(np.array_equal(np.argsort(column, kind="stable"),
                                    _column_order(column)))
        old = _median_ms(lambda: np.argsort(column, kind="stable"), args.repeats)
        new = _median_ms(lambda: _column_order(column), args.repeats)
        print(f"| {name} | {old:.2f} | {new:.2f} | {new / old:.2f} |")
    if not same:
        print("the two orders differ", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
