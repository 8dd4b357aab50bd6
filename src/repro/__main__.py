"""Command-line sorter: run one distributed external sort.

Two backends share this entry point:

* ``--backend sim`` (default) runs the discrete-event *simulation* of
  the paper's cluster — seconds of real time model hours of cluster
  time, and every figure of the paper can be reproduced;
* ``--backend native`` runs the same CANONICALMERGESORT **for real**:
  worker processes as PEs, a spill directory of record files as the
  disk farm, pipes as the interconnect.

Usage::

    python -m repro --nodes 8 --workload random
    python -m repro --nodes 8 --workload worstcase --no-randomize --timeline
    python -m repro --algorithm striped --nodes 4
    python -m repro --backend native --nodes 4 --spill-dir /tmp/sort \\
        --data-mib 64 --memory-mib 16
    python -m repro --backend native --nodes 2 --spill-dir /tmp/sort --json
    python -m repro --backend native --nodes 4 --spill-dir /tmp/sort \\
        --transport tcp
    python -m repro worker --connect 127.0.0.1:7070 --rank 1
    python -m repro serve --pool 4 --spill-root /tmp/sort-svc \\
        --listen 127.0.0.1:7099
    python -m repro submit --connect 127.0.0.1:7099 --data-mib 8 --wait
    python -m repro jobs --connect 127.0.0.1:7099 --stats

Data sizes are given in MiB per node — *represented* bytes for the
simulator, real record bytes for the native backend.  ``--json`` replaces
the human-readable report with one JSON object on stdout (config,
per-phase wall times, I/O volumes, validation verdict).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import (
    CanonicalMergeSort,
    Cluster,
    ExternalSampleSort,
    GlobalStripedMergeSort,
    MiB,
    NowSort,
    SortConfig,
    WORKLOADS,
    generate_input,
    input_keys,
    validate_output,
)

ALGORITHMS = ("canonical", "striped", "nowsort", "samplesort")

#: Native backend registry names (repro.native.algos); a separate axis
#: from the sim-only ``--algorithm`` above.
NATIVE_ALGORITHMS = ("canonical", "striped")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a distributed external sort: simulated cluster "
        "of the Rahn/Sanders/Singler paper, or native processes on real files.",
    )
    parser.add_argument(
        "--backend", choices=("sim", "native"), default="sim",
        help="simulate the paper's cluster, or really sort files with "
        "worker processes",
    )
    parser.add_argument("--nodes", type=int, default=8, help="number of PEs")
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="random",
        help="input distribution",
    )
    parser.add_argument(
        "--algorithm", choices=ALGORITHMS, default="canonical",
        help="which sorter to run (sim backend only)",
    )
    parser.add_argument(
        "--data-mib", type=float, default=96.0,
        help="data per node, MiB (represented for sim, real for native)",
    )
    parser.add_argument(
        "--memory-mib", type=float, default=32.0,
        help="run memory per node, MiB",
    )
    parser.add_argument(
        "--block-mib", type=float, default=1.0, help="block size B, MiB"
    )
    parser.add_argument(
        "--downscale", type=float, default=1.0,
        help="simulate 1/downscale of the blocks; times are rescaled",
    )
    parser.add_argument(
        "--no-randomize", action="store_true",
        help="disable run-formation block randomization (Figure 6 mode)",
    )
    parser.add_argument(
        "--selection", choices=("sampled", "basic", "bisect"),
        default="sampled", help="multiway-selection strategy",
    )
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument(
        "--timeline", action="store_true",
        help="print the per-PE phase Gantt chart (sim backend)",
    )
    parser.add_argument(
        "--utilization", action="store_true",
        help="print the per-disk utilization heat strips (sim backend)",
    )
    parser.add_argument(
        "--skip-validation", action="store_true",
        help="skip output validation (timing-only runs)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON object (config, phase walls, I/O volume) "
        "instead of the human-readable report",
    )
    # -- native backend -------------------------------------------------------
    parser.add_argument(
        "--spill-dir", default=None,
        help="directory for the native backend's record files (required "
        "with --backend native)",
    )
    parser.add_argument(
        "--keep-spill", action="store_true",
        help="keep the native output files instead of deleting the spill dir",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="native per-message receive timeout, seconds",
    )
    parser.add_argument(
        "--transport", choices=("pipe", "tcp", "shm"), default="pipe",
        help="native interconnect: multiprocessing pipes (single host), "
        "real TCP sockets with rendezvous, or zero-copy shared-memory "
        "rings (single host; see docs/TRANSPORT.md)",
    )
    parser.add_argument(
        "--pending-sends", type=int, default=4, metavar="N",
        help="native exchange backpressure: at most N chunks queued to "
        "the sender before the producer blocks",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="TCP transport: rendezvous endpoint the driver listens on "
        "(port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--no-spawn", action="store_true",
        help="TCP transport: spawn no worker processes; wait for "
        "externally launched 'python -m repro worker' PEs instead",
    )
    parser.add_argument(
        "--prefetch-blocks", type=int, default=0, metavar="W",
        help="native read-ahead budget in blocks (0 = synchronous reads); "
        "fetches follow the paper's optimal prefetch schedule",
    )
    parser.add_argument(
        "--write-behind", type=int, default=0, metavar="BLOCKS",
        help="native write-behind budget in blocks (0 = synchronous writes)",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=0, metavar="N",
        help="native recovery: restart a failed job up to N times, "
        "resuming from the per-rank manifests (implies checkpointing; "
        "see docs/RECOVERY.md)",
    )
    parser.add_argument(
        "--checkpoint", action="store_true",
        help="native recovery: journal per-rank manifests at phase "
        "boundaries even when --max-restarts is 0",
    )
    parser.add_argument(
        "--records", choices=("fixed16", "string"), default="fixed16",
        help="native record model: the paper's fixed 16-byte records or "
        "length-prefixed byte-string keys with LCP-compressed splitters "
        "(see docs/NATIVE.md)",
    )
    parser.add_argument(
        "--algo", choices=NATIVE_ALGORITHMS, default="canonical",
        help="native sort backend: the paper's canonical pipeline or the "
        "globally striped mergesort (see docs/NATIVE.md)",
    )
    parser.add_argument(
        "--shm-ring-kib", type=int, default=None, metavar="KIB",
        help="shm transport: data capacity of each directed ring buffer "
        "in KiB (default 1024; rejected for pipe/tcp jobs — see "
        "docs/TRANSPORT.md)",
    )
    return parser


def _config_dict(config: SortConfig, nodes: int) -> dict:
    return {
        "n_nodes": nodes,
        "data_per_node_bytes": config.data_per_node_bytes,
        "memory_bytes": config.memory_bytes,
        "block_bytes": config.block_bytes,
        "downscale": config.downscale,
        "randomize": config.randomize,
        "selection": config.selection,
        "seed": config.seed,
    }


def _emit(args, report: dict) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))


def run_sim(args, config: SortConfig) -> int:
    if args.algo != "canonical":
        print("--algo picks the native backend; the sim backend is driven "
              "by --algorithm", file=sys.stderr)
        return 2
    cluster = Cluster(args.nodes)
    tracer = None
    if args.utilization:
        from .sim import Tracer

        tracer = Tracer.attach(cluster)
    em, inputs = generate_input(cluster, config, kind=args.workload)
    before = None if args.skip_validation else input_keys(em, inputs)

    say = (lambda *a, **k: None) if args.json else print
    say(
        f"{args.algorithm} sort: {config.total_bytes(args.nodes) / 2**30:.2f} GiB "
        f"({args.workload}) on {args.nodes} PEs / {cluster.n_disks} disks, "
        f"R = {config.n_runs(cluster.spec)} runs"
    )

    if args.algorithm == "canonical":
        result = CanonicalMergeSort(cluster, config).sort(em, inputs)
        outputs = result.output_keys(em)
        balanced = True
    elif args.algorithm == "striped":
        result = GlobalStripedMergeSort(cluster, config).sort(em, inputs)
        outputs = [result.global_keys(em)]
        before = [np.concatenate(before)] if before is not None else None
        balanced = False
    elif args.algorithm == "nowsort":
        result = NowSort(cluster, config).sort(em, inputs)
        outputs = result.output_keys(em)
        balanced = False
    else:
        result = ExternalSampleSort(cluster, config).sort(em, inputs)
        outputs = result.output_keys(em)
        balanced = False

    say()
    say(result.stats.summary())
    if args.timeline:
        say()
        say(result.stats.timeline())
    if tracer is not None:
        say()
        say(tracer.utilization_table())

    stats_dict = result.stats.to_dict()
    report = {
        "backend": "sim",
        "algorithm": args.algorithm,
        "workload": args.workload,
        "config": _config_dict(config, args.nodes),
        "total_time": stats_dict["total_time_simulated"],
        "total_time_scaled": stats_dict["total_time_scaled"],
        "phases": {
            phase: {
                "wall": p["wall_max"],
                "wall_scaled": p["wall_scaled"],
                "io_bytes": p["bytes"],
            }
            for phase, p in stats_dict["phases"].items()
        },
        "io_bytes": sum(p["bytes"] for p in stats_dict["phases"].values()),
        "network_bytes": stats_dict["network_bytes"],
    }

    code = 0
    if before is not None:
        vreport = validate_output(before, outputs, balanced=balanced)
        report["validation"] = {"ok": vreport.ok, "issues": vreport.issues,
                                "total_keys": vreport.total_keys}
        if not vreport.ok:
            say("\nVALIDATION FAILED:")
            for issue in vreport.issues:
                say(f"  - {issue}")
            code = 1
        else:
            say(f"\noutput valid ({vreport.total_keys} keys, "
                f"checksum {vreport.checksum:#018x})")
    _emit(args, report)
    return code


def run_native(args, config: SortConfig) -> int:
    from .core.config import ConfigError
    from .native import NativeJob, NativeSorter
    from .native.driver import NativeSortError

    if args.spill_dir is None:
        print("--backend native requires --spill-dir", file=sys.stderr)
        return 2
    if args.workload not in ("random", "skewed"):
        print(
            f"--backend native supports workloads 'random' and 'skewed', "
            f"not {args.workload!r}",
            file=sys.stderr,
        )
        return 2
    if args.algorithm != "canonical":
        print("--backend native only runs the canonical algorithm",
              file=sys.stderr)
        return 2

    say = (lambda *a, **k: None) if args.json else print
    try:
        job = NativeJob(
            config=config,
            n_workers=args.nodes,
            spill_dir=args.spill_dir,
            skew=(args.workload == "skewed"),
            timeout=args.timeout,
            transport=args.transport,
            pending_sends=args.pending_sends,
            listen=args.listen,
            spawn_workers=not args.no_spawn,
            prefetch_blocks=args.prefetch_blocks,
            write_behind_blocks=args.write_behind,
            max_restarts=args.max_restarts,
            checkpoint=args.checkpoint,
            cleanup_on_abort=not args.keep_spill,
            records=args.records,
            algo=args.algo,
            shm_ring_kib=args.shm_ring_kib,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    say(
        f"native sort: {job.total_records * job.record_bytes / 2**30:.2f} GiB "
        f"({args.workload}) on {args.nodes} worker processes, "
        f"R = {job.n_runs} runs, spill dir {args.spill_dir}"
    )

    try:
        result = NativeSorter(job).run()
    except NativeSortError as exc:
        print(f"native sort failed: {exc}", file=sys.stderr)
        return 1
    say()
    say(result.stats.summary())

    report = result.stats.to_dict()
    report["config"] = job.describe()
    report["config"]["workload"] = args.workload
    report["io_bytes"] = result.stats.total_io_bytes
    report["phases"] = {
        phase: {
            "wall": p["wall_max"],
            "io_bytes": p["bytes"],
            "throughput_mb_s": p["throughput_mb_s"],
            "stall_s": p["stall_s"],
            "overlap_ratio": p["overlap_ratio"],
            "wire_sent": p["wire_sent"],
            "wire_recv": p["wire_recv"],
            "wire_volume": p["wire_volume"],
        }
        for phase, p in report["phases"].items()
    }

    code = 0
    if not args.skip_validation:
        vreport = result.validate()
        report["validation"] = {"ok": vreport.ok, "issues": vreport.issues,
                                "total_keys": vreport.total_keys}
        if not vreport.ok:
            say("\nVALIDATION FAILED:")
            for issue in vreport.issues:
                say(f"  - {issue}")
            code = 1
        else:
            say(f"\noutput valid ({vreport.total_keys} records, "
                f"checksum {vreport.checksum:#018x})")
    if not args.keep_spill:
        result.cleanup()
    else:
        say(f"\noutputs kept: {args.spill_dir}/output_<rank>.dat")
    _emit(args, report)
    return code


def run_worker(argv) -> int:
    """``python -m repro worker``: join a TCP sort as one externally
    launched PE (another terminal, another host — see docs/TRANSPORT.md).

    The driver side runs ``--backend native --transport tcp --no-spawn``;
    this side dials its rendezvous endpoint, receives the job and the
    peer table over the wire, sorts, and reports back.
    """
    from .native.worker import tcp_worker_main
    from .net.rendezvous import parse_hostport

    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Join a native TCP sort as one worker PE.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the driver's rendezvous endpoint",
    )
    parser.add_argument(
        "--rank", type=int, required=True, help="this PE's rank (0-based)"
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=60.0,
        help="seconds to keep retrying the rendezvous dial (with backoff)",
    )
    args = parser.parse_args(argv)
    if args.rank < 0:
        print(f"--rank must be >= 0, got {args.rank}", file=sys.stderr)
        return 2
    try:
        addr = parse_hostport(args.connect)
    except ValueError as exc:
        print(f"bad --connect: {exc}", file=sys.stderr)
        return 2
    tcp_worker_main(args.rank, addr, connect_timeout=args.connect_timeout)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "conformance":
        # The conformance harness has its own parser and exit semantics:
        # python -m repro conformance --quick | --full | --chaos | ...
        from .testing.cli import main as conformance_main

        return conformance_main(argv[1:])
    if argv and argv[0] == "worker":
        return run_worker(argv[1:])
    if argv and argv[0] in ("serve", "submit", "jobs"):
        # The sort service (docs/SERVICE.md): a persistent daemon plus
        # its thin submit/inspect clients, each with its own parser.
        from .service import cli as service_cli

        handler = {
            "serve": service_cli.run_serve,
            "submit": service_cli.run_submit,
            "jobs": service_cli.run_jobs,
        }[argv[0]]
        return handler(argv[1:])
    args = build_parser().parse_args(argv)
    config = SortConfig(
        data_per_node_bytes=args.data_mib * MiB,
        memory_bytes=args.memory_mib * MiB,
        block_bytes=args.block_mib * MiB,
        downscale=args.downscale,
        randomize=not args.no_randomize,
        selection=args.selection,
        seed=args.seed,
    )
    if args.backend == "native":
        return run_native(args, config)
    return run_sim(args, config)


if __name__ == "__main__":
    sys.exit(main())
