#!/usr/bin/env python3
"""Paired A/B of the benchmark suite: a git revision against this tree.

    python3 tools/compare.py REV --workload W --pairs N [--seconds S] [--seed-base K]

Exports REV's committed files (``git archive``, local only) into a
temporary directory, then runs ``benchmarks/suite/run.py --workload W
--trace 0`` from both trees in N pairs: pair i uses seed K + i, and the
side that runs first alternates, so the host's drift over minutes falls
on both sides alike.  Each run's own end-to-end metrics are read from its
final JSON line.  Prints one EXPERIMENTS.md-style row per end-to-end
metric of BENCHMARK.json — the median and quartiles of each side, the
pairs the change won (by the metric's direction; ties count for
neither), the ratio of the medians with its seeded 95 % bootstrap
confidence interval (pairs resampled with replacement) and a two-sided
sign-test p — and whether the I/O and wire ratios were identical in
every pair.  The
temporary tree is removed on exit.  Nothing under ``benchmarks/suite/``
is edited.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE = os.path.join("benchmarks", "suite", "run.py")
#: Counters that repeat exactly for a given seed: equal in every pair
#: unless the change moved them.
EXACT = ("io_bytes_per_input_byte", "wire_bytes_per_input_byte")
#: Bootstrap resamples behind each confidence interval, and their seed.
RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of ``wins`` against ``losses`` (ties left out)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2**n)


def bootstrap_ratio_ci(base: Sequence[float], change: Sequence[float],
                       level: float = 0.95, resamples: int = RESAMPLES,
                       seed: int = BOOTSTRAP_SEED) -> Tuple[float, float]:
    """Percentile bootstrap interval of ``median(change) / median(base)``.

    Each resample draws ``len(base)`` pairs with replacement, keeping the
    two sides of a pair together as the pairing does; resamples whose
    base median is 0 are left out.  Seeded, so the same pairs always give
    the same interval.
    """
    rng = random.Random(seed)
    n = len(base)
    ratios = []
    for _ in range(resamples):
        picks = [rng.randrange(n) for _ in range(n)]
        base_median = statistics.median(base[i] for i in picks)
        if base_median:
            ratios.append(statistics.median(change[i] for i in picks)
                          / base_median)
    if not ratios:
        return math.nan, math.nan
    ratios.sort()
    tail = (1 - level) / 2
    return (ratios[int(tail * (len(ratios) - 1))],
            ratios[math.ceil((1 - tail) * (len(ratios) - 1))])


def _spread(values: Sequence[float]) -> str:
    """``median [q1, q3]`` of the values."""
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(pairs: List[Dict[str, Dict[str, float]]], specs: List[dict]
              ) -> List[dict]:
    """One row per metric of ``specs`` from ``pairs`` of ``{"base": metrics,
    "change": metrics}``: medians and quartiles, wins, ratio with its
    bootstrap interval, sign test."""
    rows = []
    for spec in specs:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
        base_median = statistics.median(base)
        rows.append({
            "metric": name,
            "base": _spread(base),
            "change": _spread(change),
            "wins": wins,
            "pairs": len(pairs),
            "ratio": statistics.median(change) / base_median if base_median else math.nan,
            "ci": bootstrap_ratio_ci(base, change),
            "p": sign_test_p(wins, losses),
        })
    return rows


def exact_in_every_pair(pairs: List[Dict[str, Dict[str, float]]]) -> bool:
    """Whether both sides read the same I/O and wire ratios in every pair."""
    return all(p["base"][k] == p["change"][k] for p in pairs for k in EXACT)


def format_table(workload: str, rev: str, rows: List[dict], exact: bool,
                 seeds: str) -> str:
    lines = [
        f"{workload}, {rows[0]['pairs']} interleaved pairs, seeds {seeds}; "
        f"base = {rev}",
        "",
        "| metric | base median [q1, q3] | change median [q1, q3] | change "
        "better | ratio | ratio 95 % CI | sign-test p |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lo, hi = row["ci"]
        lines.append(
            f"| `{row['metric']}` | {row['base']} | {row['change']} | "
            f"{row['wins']}/{row['pairs']} | {row['ratio']:.3f} | "
            f"[{lo:.3f}, {hi:.3f}] | {row['p']:.3g} |"
        )
    lines += ["", f"I/O and wire ratios identical in every pair: {exact}"]
    return "\n".join(lines)


def _run_suite(tree: str, workload: str, seed: int, seconds: float,
               spill_root: str) -> Dict[str, float]:
    """One untraced suite run from ``tree``; its end-to-end metric values."""
    cmd = [sys.executable, os.path.join(tree, SUITE), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--spill-root", spill_root]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: run exited {proc.returncode} without a "
                         f"result:\n{proc.stdout[-2000:]}") from None
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed}: {result['failed']} failed "
                         f"operations:\n{proc.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _export(rev: str, into: str) -> None:
    """REV's committed files into the directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this tree against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--seed-base", type=int, default=1000,
                        help="pair i runs seed SEED_BASE + i on both sides")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    tmp = tempfile.mkdtemp(prefix="compare-")
    try:
        base_tree = os.path.join(tmp, "base")
        os.makedirs(base_tree)
        _export(args.rev, base_tree)
        spill = os.path.join(tmp, "spill")
        trees = {"base": base_tree, "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {side: _run_suite(trees[side], args.workload, seed,
                                     args.seconds, spill) for side in order}
            pairs.append(pair)
            print(f"# pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                  f"sort_mb_s base {pair['base']['sort_mb_s']:.4g} change "
                  f"{pair['change']['sort_mb_s']:.4g}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    seeds = f"{args.seed_base}–{args.seed_base + args.pairs - 1}"
    print(format_table(args.workload, args.rev,
                       summarize(pairs, contract["end_to_end"]),
                       exact_in_every_pair(pairs), seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
