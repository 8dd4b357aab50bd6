"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro.bench fig2            # quick sweep (P = 1..8)
    python -m repro.bench fig5 --full     # the paper's full P = 1..64
    python -m repro.bench all             # every experiment, quick mode
    demsort-bench graysort                # installed console script
"""

from __future__ import annotations

import argparse
import sys
import time

from . import EXPERIMENTS, write_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demsort-bench",
        allow_abbrev=False,
        description="Regenerate the paper's tables and figures on the "
        "simulated cluster.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (figN, SortBenchmark category, or ablation)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's full scale (P up to 64 / 195 nodes); slower",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="directory for the rendered reports (default: bench_results/)",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        result = EXPERIMENTS[name](quick=not args.full)
        elapsed = time.time() - started
        print(result.render())
        path = write_report(result, out_dir=args.out_dir)
        print(f"\n[{name}: {elapsed:.1f}s wall; report written to {path}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
