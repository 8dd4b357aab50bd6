"""``python -m repro conformance``: the conformance harness entry point.

Modes (combinable; exit code 0 iff everything passed)::

    python -m repro conformance --quick            # tier-1 pruned matrix
    python -m repro conformance --full             # nightly: entries x sizings
    python -m repro conformance --chaos            # kill-at-boundary sweep
    python -m repro conformance --search 50        # property-based search
    python -m repro conformance --replay <token>   # one pinned case
    python -m repro conformance --list             # corpus taxonomy

``--json`` emits one machine-readable object (what the CI job archives);
``--report FILE`` additionally writes it to a file, so a failing nightly
run can upload the minimized reproducers as an artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import List

from . import chaos, corpus, differential, properties


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro conformance",
        allow_abbrev=False,
        description="Differential conformance: sim backend vs native "
        "backend vs np.sort, plus native fault injection.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the pruned tier-1 matrix (<=8 corpus cases, both backends)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the full nightly matrix (every entry x sizing)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="kill a native worker at every phase boundary; each run must "
        "fail fast with a clean diagnostic",
    )
    parser.add_argument(
        "--pipelined", action="store_true",
        help="additionally run native-only pipelined twins (read-ahead + "
        "write-behind) of every matrix case, and run the chaos sweep with "
        "pipelined I/O plus a torn-write-inside-write-behind case",
    )
    parser.add_argument(
        "--transport", choices=("pipe", "tcp", "shm", "both", "all"),
        default="pipe",
        help="native interconnect for matrix cases; 'tcp' or 'shm' adds "
        "native-only twins of every matrix case over that transport (and "
        "runs the chaos sweep over it too); 'both' = pipe+tcp, "
        "'all' = pipe+tcp+shm",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="additionally run native-only recovery twins of every matrix "
        "case (chaos kill + --max-restarts 1; the resumed sort must agree "
        "bitwise with the oracle), and flip the chaos sweep into recovery "
        "mode (kill/sever/wedge faults must be survived, not just failed "
        "fast)",
    )
    parser.add_argument(
        "--strings", action="store_true",
        help="additionally run native-only string twins of every matrix "
        "case (variable-length records via the order-preserving u64-to-"
        "string map, LCP-compressed splitters, decoded sorted() oracle; "
        "with --recover, string recovery twins too), and sweep a string "
        "job as well under --chaos",
    )
    parser.add_argument(
        "--recover-smoke", action="store_true",
        help="run only the recovery smoke (one boundary kill + resume per "
        "transport); the fast push-time CI gate",
    )
    parser.add_argument(
        "--service-smoke", action="store_true",
        help="run the sort-service smoke (live daemon, two overlapping "
        "wire jobs, clean shutdown); the push-time CI gate for the "
        "service subsystem",
    )
    parser.add_argument(
        "--service-chaos", action="store_true",
        help="kill a pool worker mid-job on a live sort service: the "
        "victim job must recover via its per-job supervisor, a "
        "concurrent job must finish untouched, and the pool must respawn "
        "the worker",
    )
    parser.add_argument(
        "--keep-failures", metavar="DIR", default=None,
        help="copy each failing chaos case's spill directory (manifests "
        "included) plus its verdict into DIR as a reproducer artifact",
    )
    parser.add_argument(
        "--search", type=int, metavar="N", default=0,
        help="run N random property-based cases (shrunk on failure)",
    )
    parser.add_argument(
        "--replay", metavar="TOKEN", default=None,
        help="replay one case token (entry:sizing:p<P>:s<seed>:rand|norand:"
        "selection[:backends])",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_corpus",
        help="print the corpus taxonomy and exit",
    )
    parser.add_argument("--seed", type=int, default=42, help="matrix/search seed")
    parser.add_argument(
        "--spill-root", default=None,
        help="directory for native spill files (default: a temp dir)",
    )
    parser.add_argument(
        "--chaos-budget", type=float, default=30.0,
        help="seconds each chaos case may take before it counts as a hang",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON object instead of the human-readable report",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write the JSON report to FILE (CI artifact)",
    )
    return parser


def _print_corpus(say) -> None:
    say("corpus entries:")
    for name in corpus.entry_names():
        entry = corpus.ENTRIES[name]
        fig6 = "  [+fig6 norand variant]" if entry.fig6_mode else ""
        say(f"  {name:20s} {entry.note}{fig6}")
    say("\nsizings (records):")
    for name in sorted(corpus.SIZINGS):
        sz = corpus.SIZINGS[name]
        say(
            f"  {name:16s} N/P={sz.n_per_rank:<5d} B={sz.block_records:<3d} "
            f"M={sz.memory_records:<4d} {sz.note}"
        )
    say("\nad-hoc sizing names n<N>b<B>m<M> are accepted in replay tokens.")


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    say = (lambda *a, **k: None) if args.json else print
    report: dict = {"command": "conformance", "seed": args.seed, "ok": True}

    if args.list_corpus:
        _print_corpus(say)
        if args.json:
            report["entries"] = {
                n: corpus.ENTRIES[n].note for n in corpus.entry_names()
            }
            report["sizings"] = {
                n: corpus.SIZINGS[n].note for n in sorted(corpus.SIZINGS)
            }
            print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    if not any((args.quick, args.full, args.chaos, args.search, args.replay,
                args.recover_smoke, args.service_smoke, args.service_chaos)):
        args.quick = True  # bare invocation = the quick tier

    failures: List[dict] = []
    t0 = time.time()
    spill_root = args.spill_root
    made_root = False
    if spill_root is None:
        spill_root = tempfile.mkdtemp(prefix="repro-conformance-")
        made_root = True
    else:
        os.makedirs(spill_root, exist_ok=True)

    try:
        # -- differential matrices --------------------------------------------
        specs: List[differential.CaseSpec] = []
        if args.replay:
            try:
                specs.append(differential.CaseSpec.from_token(args.replay))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.quick:
            specs.extend(differential.quick_specs(seed=args.seed))
        if args.full:
            specs.extend(differential.full_specs(seed=args.seed))
        if args.pipelined and specs:
            specs.extend(
                differential.pipelined_variants(
                    [s for s in specs if s.records == "fixed16"]
                )
            )
        extra_transports = {
            "pipe": (),
            "tcp": ("tcp",),
            "shm": ("shm",),
            "both": ("tcp",),
            "all": ("tcp", "shm"),
        }[args.transport]
        if extra_transports and specs:
            # Native-only twins of every (non-pipelined) matrix case over
            # each extra transport: the oracle byte-comparison plus the
            # pipe twin already in the list prove the transport is
            # bitwise-invisible.
            base = [
                s for s in specs
                if "native" in s.backends
                and s.transport == "pipe"
                and not s.pipelined
            ]
            for extra in extra_transports:
                variants = (
                    differential.tcp_variants(base)
                    if extra == "tcp"
                    else differential.shm_variants(base)
                )
                specs.extend(variants)
        if args.recover and specs:
            # Native-only recovery twins: the same workloads with a rank
            # killed at the run-formation boundary and one restart — the
            # resumed sort must still match the oracle byte for byte.
            specs.extend(
                differential.recovery_variants(
                    [
                        s for s in specs
                        if "native" in s.backends
                        and not s.pipelined
                        and not s.recover
                    ]
                )
            )
        if args.strings and specs:
            # Native-only string twins over every transport (and, with
            # --pipelined / --recover, every pipelined / recovery case)
            # already in the list: the identical corpus keys, mapped
            # through the order-preserving u64-to-string embedding,
            # sorted as variable-length records against an independent
            # decoded sorted() oracle.
            specs.extend(
                differential.string_variants(
                    [s for s in specs if "native" in s.backends]
                )
            )
        if specs:
            results = differential.run_specs(specs)
            n_div = 0
            for r in results:
                if not r.ok:
                    n_div += 1
                    failures.append(r.describe())
                    say(f"DIVERGED {r.spec.to_token()} [{r.backend}]")
                    for d in r.divergences:
                        say(f"    {d}")
                    say(f"    replay: {r.spec.replay_command()}")
            say(
                f"differential: {len(specs)} cases x backends = "
                f"{len(results)} runs, {n_div} divergences"
            )
            report["differential"] = {
                "cases": len(specs),
                "runs": len(results),
                "divergences": n_div,
            }

        # -- property search --------------------------------------------------
        if args.search:
            srep = properties.search(n_cases=args.search, seed=args.seed)
            say(
                f"property search: {srep.cases_run} cases, "
                f"{len(srep.failures)} failures"
            )
            for f in srep.failures:
                failures.append(f.describe())
                say(f"FAILED (minimized): {f.minimized.to_token()}")
                for d in f.divergences:
                    say(f"    {d}")
                say(f"    replay: {f.replay}")
            report["search"] = {
                "cases": srep.cases_run,
                "failures": [f.describe() for f in srep.failures],
            }

        # -- chaos sweep -------------------------------------------------------
        if args.chaos:
            transports = ["pipe"] + list(extra_transports)
            if args.keep_failures:
                os.makedirs(args.keep_failures, exist_ok=True)
            verdicts = []
            record_models = ["fixed16"] + (["string"] if args.strings else [])
            for transport in transports:
                for records in record_models:
                    verdicts.extend(
                        chaos.run_chaos_sweep(
                            spill_root, budget=args.chaos_budget,
                            pipelined=args.pipelined,
                            transport=transport,
                            recover=args.recover,
                            keep_failures_dir=args.keep_failures,
                            job_timeout=6.0 if args.recover else 15.0,
                            records=records,
                        )
                    )
            bad = [v for v in verdicts if not v["ok"]]
            for v in verdicts:
                flag = "ok  " if v["ok"] else "FAIL"
                say(f"chaos {flag} {v['fault']:38s} {v['elapsed']:6.2f}s")
            if bad:
                failures.extend(bad)
            say(f"chaos: {len(verdicts)} kill points, {len(bad)} failures")
            report["chaos"] = {
                "points": len(verdicts),
                "failures": len(bad),
                "recover": args.recover,
                "verdicts": verdicts,
            }

        # -- recovery smoke ----------------------------------------------------
        if args.recover_smoke:
            verdicts = chaos.run_recovery_smoke(spill_root)
            bad = [v for v in verdicts if not v["ok"]]
            for v in verdicts:
                flag = "ok  " if v["ok"] else "FAIL"
                say(
                    f"recovery-smoke {flag} {v['fault']:38s} "
                    f"{v['elapsed']:6.2f}s  ({v['outcome']})"
                )
            if bad:
                failures.extend(bad)
            report["recovery_smoke"] = {
                "cases": len(verdicts),
                "failures": len(bad),
                "verdicts": verdicts,
            }

        # -- sort-service modes ------------------------------------------------
        for enabled, key, runner in (
            (args.service_smoke, "service_smoke", chaos.run_service_smoke),
            (args.service_chaos, "service_chaos", chaos.run_service_chaos),
        ):
            if not enabled:
                continue
            verdicts = runner(spill_root)
            bad = [v for v in verdicts if not v["ok"]]
            for v in verdicts:
                flag = "ok  " if v["ok"] else "FAIL"
                say(
                    f"{key.replace('_', '-')} {flag} {v['fault']:38s} "
                    f"{v['elapsed']:6.2f}s  ({v['outcome']})"
                )
            if bad:
                failures.extend(bad)
            report[key] = {
                "cases": len(verdicts),
                "failures": len(bad),
                "verdicts": verdicts,
            }
    finally:
        if made_root:
            import shutil

            shutil.rmtree(spill_root, ignore_errors=True)

    report["ok"] = not failures
    report["failures"] = failures
    report["elapsed_s"] = round(time.time() - t0, 2)
    say(f"\nconformance {'PASSED' if not failures else 'FAILED'} "
        f"in {report['elapsed_s']}s")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
