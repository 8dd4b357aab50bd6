#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/suite/run.py --seed 1            # everything, ~4 min
    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py --list | --smoke | --repeat-check

``BENCHMARK.json`` at the repo root is the contract: it names the
workloads, every metric with its unit and direction, and the bound by
which an end-to-end metric may worsen.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` records spans, runs
every layer probe and reports the per-layer metrics; without ``--trace``
both runs are made.  Every run checks its outputs against an oracle and
for leaks, prints each metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero if anything failed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
#: Calibration probes further apart than this flag the run as noisy.
NOISY_GAP = 0.05


def _load_contract() -> dict:
    with open(CONTRACT) as handle:
        return json.load(handle)


def _parse_args(contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, tracing off; 1: traced "
                             "run, per-layer metrics (default: both)")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced runs' spans as Chrome-trace JSON")
    parser.add_argument("--spill-root", default=os.path.join(ROOT, ".bench_spill"),
                        help="where inputs and spill files go (a benchmark "
                             "argument, not a program knob)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload 16x smaller: names, units and "
                             "oracle only")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with unit, direction, bound")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare against the bounds")
    return parser.parse_args()


def _print_list(contract: dict) -> None:
    print("workloads:")
    for wl in contract["workloads"]:
        print(f"  {wl['name']:<18} {wl['why']}")
    print("end-to-end metrics (tracing off):")
    for m in contract["end_to_end"]:
        print(f"  {m['name']:<44} {m['unit']:<7} better: {m['better']:<7}"
              f"bound {100 * m['bound']:g}%")
    print("per-layer metrics (traced run):")
    for m in contract["per_layer"]:
        print(f"  {m['name']:<44} {m['unit']:<7} better: {m['better']}")


def _report(outcome, specs: list, trace: int) -> dict:
    """Print one run's metrics by name with units; returns the result
    object (the contract's last-line format)."""
    tally = outcome.tally
    want = [m["name"] for m in specs]
    if sorted(want) != sorted(outcome.metrics):
        differ = sorted(set(want) ^ set(outcome.metrics))
        raise SystemExit(f"{outcome.workload}: metric set differs from "
                         f"BENCHMARK.json: {differ}")
    print(f"== {outcome.workload}  trace={trace}  attempted={tally.attempted} "
          f"failed={tally.failed} "
          f"failed_share={tally.failed / tally.attempted:g}")
    for spec in specs:
        print(f"  {spec['name']:<44} {outcome.metrics[spec['name']]:>14.6g} "
              f"{spec['unit']}")
    for note in outcome.notes:
        print(f"  # {note}")
    for issue in tally.issues:
        print(f"  ! {issue}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            spec["name"]: {"value": outcome.metrics[spec["name"]],
                           "unit": spec["unit"]}
            for spec in specs
        },
    }


def _child(contract: dict, name: str, trace: int, args,
           trace_out: str = None) -> dict:
    """:func:`_run` in a process of its own, exactly as the driver makes
    it: workers are forked from the benchmark process, so a measured run
    must not inherit the resident set an earlier workload left behind.
    Echoes the child's report and returns its result object."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--spill-root", args.spill_root]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(proc.stdout, end="")
        raise SystemExit(f"{name} trace={trace}: run exited "
                         f"{proc.returncode} without a result")
    print("\n".join(lines[:-1]))
    return result


def _repeat_check(contract: dict, names: list, args) -> int:
    """Two sets of untraced runs of the same code, judged by the bounds."""
    sets = [{name: _child(contract, name, 0, args) for name in names}
            for _ in range(2)]
    breaches = failed = 0
    print(f"{'workload':<18} {'metric':<28} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in names:
        first, second = sets[0][name], sets[1][name]
        failed += first["failed"] + second["failed"]
        for spec in contract["end_to_end"]:
            a = first["metrics"][spec["name"]]["value"]
            b = second["metrics"][spec["name"]]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            breach = worse > spec["bound"]
            breaches += breach
            print(f"{name:<18} {spec['name']:<28} {a:>12.5g} {b:>12.5g} "
                  f"{100 * worse:>8.2f}% {100 * spec['bound']:>5g}%"
                  f"{'  BREACH' if breach else ''}")
    print(f"repeat-check: {breaches} breaches, {failed} failed operations")
    return 1 if breaches or failed else 0


def _fan_out(contract: dict, names: list, modes: list, args) -> int:
    """Several runs, then one combined result line.  Measured runs get a
    process each; smoke runs (names, units and oracle only) share this one."""
    run = _run if args.smoke else _child
    results, parts = {}, []
    for name in names:
        for trace in modes:
            part = None
            if trace and args.trace_out:
                part = f"{args.trace_out}.{name}.part"
                parts.append(part)
            results[name, trace] = run(contract, name, trace, args, part)
    if parts:
        events = []
        for pid, part in enumerate(parts, start=1):
            with open(part) as handle:
                for event in json.load(handle)["traceEvents"]:
                    events.append({**event, "pid": pid})
            os.remove(part)
        with open(args.trace_out, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            name: {k: v for trace in modes
                   for k, v in results[name, trace]["metrics"].items()}
            for name in names
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _run(contract: dict, name: str, trace: int, args,
         trace_out: str = None) -> dict:
    """One workload, traced or not, in this process: the run the driver
    asks for.  Prints the report and returns the result object."""
    import checks
    from spans import chrome_trace
    from workloads import Plan, run_workload

    plan = Plan.smoke() if args.smoke else Plan(seconds=args.seconds)
    os.makedirs(args.spill_root, exist_ok=True)
    # A directory of this process's own, so the leak check ("nothing left
    # under it") cannot be confused by another invocation or a user's files.
    spill = tempfile.mkdtemp(prefix="run-", dir=args.spill_root)
    try:
        env = checks.environment(spill)
        rounds = 1 if args.smoke else 5
        before = checks.calibrate(rounds)
        print(f"# repro benchmark suite: workload={name} seed={args.seed} "
              f"seconds={plan.seconds:g} trace={trace} smoke={args.smoke}")
        outcome = run_workload(name, args.seed, plan, bool(trace), spill)
        after = checks.calibrate(rounds)
    finally:
        checks.stop_resource_tracker()
        shutil.rmtree(spill, ignore_errors=True)
        try:
            os.rmdir(args.spill_root)
        except OSError:
            pass  # not ours alone, or not empty: leave it
    result = _report(outcome,
                     contract["per_layer" if trace else "end_to_end"], trace)
    env.update(calibration_ms=[before, after],
               noisy=abs(after - before) / before > NOISY_GAP)
    print("env " + json.dumps(env))
    if trace and trace_out:
        with open(trace_out, "w") as handle:
            json.dump(chrome_trace([outcome.recorder]), handle)
    return result


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    contract = _load_contract()
    args = _parse_args(contract)
    if args.list:
        _print_list(contract)
        return 0
    names = [args.workload] if args.workload else [
        w["name"] for w in contract["workloads"]]
    modes = [args.trace] if args.trace is not None else [0, 1]
    if args.repeat_check:
        return _repeat_check(contract, names, args)
    if len(names) == 1 and len(modes) == 1:
        result = _run(contract, names[0], modes[0], args, args.trace_out)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    return _fan_out(contract, names, modes, args)


if __name__ == "__main__":
    sys.exit(main())
