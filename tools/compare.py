#!/usr/bin/env python3
"""Paired A/B of the benchmark suite: a git revision against this tree.

    python3 tools/compare.py REV --workload W --pairs N [--seconds S] [--seed-base K]
                             [--trace]

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
every pair.  With ``--trace`` each side of a pair also runs once with
``--trace 1``, and the table gains a row per phase
(``native.phases.<phase>_s``, the slowest rank's seconds) from those
runs, so one compare also says which phase moved.  The temporary tree is
removed on exit.  Nothing under ``benchmarks/suite/`` is edited.
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
#: The per-phase rows ``--trace`` adds (seconds, lower is better).
PHASES = [{"name": f"native.phases.{phase}_s", "better": "lower"}
          for phase in ("run_formation", "selection", "all_to_all", "merge")]


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


def parse_result(stdout: str) -> Dict[str, float]:
    """The metric values of a suite run from its output, whose last line
    is the result object; ``ValueError`` if there is none, or if the run
    reports failed operations."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise ValueError(f"{result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def phase_specs(pairs: List[Dict[str, Dict[str, float]]]) -> List[dict]:
    """The :data:`PHASES` rows every side of every pair has a value for
    (a workload without native phases has none)."""
    return [spec for spec in PHASES
            if all(spec["name"] in side for pair in pairs
                   for side in pair.values())]


def _run_suite(tree: str, workload: str, seed: int, seconds: float,
               spill_root: str, trace: int = 0) -> Dict[str, float]:
    """One suite run from ``tree``; its metric values."""
    cmd = [sys.executable, os.path.join(tree, SUITE), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spill-root", spill_root]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"{tree}: seed {seed}: run exited {proc.returncode}: "
                         f"{exc}:\n{proc.stdout[-2000:]}") from None


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
    parser.add_argument("--trace", action="store_true",
                        help="also run each side traced and add per-phase rows")
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
            if args.trace:
                for side in order:
                    traced = _run_suite(trees[side], args.workload, seed,
                                        args.seconds, spill, trace=1)
                    pair[side].update((spec["name"], traced[spec["name"]])
                                      for spec in PHASES
                                      if spec["name"] in traced)
            pairs.append(pair)
            print(f"# pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                  f"sort_mb_s base {pair['base']['sort_mb_s']:.4g} change "
                  f"{pair['change']['sort_mb_s']:.4g}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    seeds = f"{args.seed_base}–{args.seed_base + args.pairs - 1}"
    specs = contract["end_to_end"] + phase_specs(pairs)
    print(format_table(args.workload, args.rev, summarize(pairs, specs),
                       exact_in_every_pair(pairs), seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
